"""The orbit-leader scan pinned to stored key sequences, and its coset chain.

``golden/scan-digests.json`` holds, per shape and group tier, the leader
count and the sha256 of the key sequence (``conftest.scan_digest``) that a
trusted commit's scan produced.  A change to ``canonical_classes`` must
reproduce every one of them.  Never regenerate the file to make a failing
run pass.
"""

import json
import os
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_shapes_with_few_edges, scan_digest
from mpcover import symmetry
from mpcover.graphs import build_shape
from mpcover.symmetry import (SymmetryGroup, bits_to_key, canonical_classes,
                              key_to_bits, symmetry_group)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "scan-digests.json")

with open(GOLDEN) as _fh:
    DIGESTS = json.load(_fh)


def _sizes(name):
    return [int(a) for a in name.split(",")]


def _group(shape, tier):
    if tier == "raw":
        return None
    return symmetry_group(shape, cap=1) if tier == "cap1" else symmetry_group(shape)


def test_golden_lists_every_pinned_case():
    claim10 = {",".join(map(str, s)) for s in all_shapes_with_few_edges(8)}
    assert len(claim10) == 16
    for name in claim10:
        assert set(DIGESTS[name]) == {"full", "cap1", "raw"}
    for name in ("2,2,2,1", "4,2,2", "3,3,2", "5,2,2", "2,2,2,2"):
        assert set(DIGESTS[name]) == {"full"}
    assert set(DIGESTS["3,2,2"]) == {"full", "cap1"}


@pytest.mark.parametrize("name, tier", sorted(
    (name, tier) for name, tiers in DIGESTS.items() for tier in tiers))
def test_key_sequence_matches_golden(name, tier):
    shape = build_shape(_sizes(name))
    assert scan_digest(shape, _group(shape, tier)) == DIGESTS[name][tier]


def test_cap1_subgroup_of_3_2_2_is_pinned():
    # a shape where the cyclic subgroup is not the full group
    shape = build_shape([3, 2, 2])
    sub = symmetry_group(shape, cap=1)
    assert not sub.is_full
    assert len(sub.elements) < len(symmetry_group(shape).elements)
    got = scan_digest(shape, sub)
    assert got == DIGESTS["3,2,2"]["cap1"]
    assert got["leaders"] > DIGESTS["3,2,2"]["full"]["leaders"]


def _chain_members(group):
    """Every (inv, flip) the chain holds, one item per lone element."""
    out = []
    for flip, entries in enumerate(group.chain()):
        stack = list(entries)
        while stack:
            inv, _, _, kids = stack.pop()
            if kids is None:
                out.append((inv, flip))
            else:
                stack += [kid for _, kid in kids]
    return out


@pytest.mark.parametrize("sizes", [[1, 1], [3], [2, 2, 1], [3, 2, 2],
                                   [2, 2, 2, 2]])
def test_chain_holds_each_distinct_element_once(sizes):
    shape = build_shape(sizes)
    for group in (symmetry_group(shape), symmetry_group(shape, cap=1)):
        members = _chain_members(group)
        assert len(members) == len(set(members))
        assert set(members) == set(group.elements)


def test_repeated_element_is_scanned_once():
    # [1, 1]: both vertex maps induce the identity on the one edge
    shape = build_shape([1, 1])
    group = symmetry_group(shape)
    assert group.elements == [((0,), 1), ((0,), 1)]
    assert _chain_members(group) == [((0,), 1)]
    assert list(canonical_classes(shape, group)) == [(0, 0)]


def test_listing_every_element_twice_changes_nothing():
    shape = build_shape([3, 2, 2])
    group = symmetry_group(shape)
    doubled = SymmetryGroup(shape, group.elements * 2, group.is_full,
                            group.order)
    assert (list(canonical_classes(shape, doubled))
            == list(canonical_classes(shape, group)))


def test_flip_only_groups():
    # [3] has no edges, and each of its six vertex maps gives the bare swap
    shape = build_shape([3])
    group = symmetry_group(shape)
    assert set(group.elements) == {((), 1)} and len(group.elements) == 6
    assert list(canonical_classes(shape, group)) == [(0, 0)]
    # the bare color swap alone: a leader is any key whose first bit is 0
    shape = build_shape([2, 2, 1])
    m = shape.m
    swap = SymmetryGroup(shape, [(tuple(range(m)), 1)], False, 2)
    assert [k for k, _ in canonical_classes(shape, swap)] == list(
        range(1 << (m - 1)))


_FULL = {}


def _full_scan(sizes):
    if sizes not in _FULL:
        shape = build_shape(sizes)
        group = symmetry_group(shape)
        _FULL[sizes] = (shape, group, list(canonical_classes(shape, group)))
    return _FULL[sizes]


# a cut is a fraction of the key span, or a leader's key moved by -1, 0 or 1
_cut = st.tuples(st.booleans(), st.floats(0, 1), st.integers(-1, 1))


@settings(deadline=None, max_examples=40)
@given(sizes=st.sampled_from([(5, 2, 2), (2, 2, 2, 2)]),
       cuts=st.lists(_cut, min_size=3, max_size=3),
       stop=st.integers(1, 50))
def test_windows_and_restarts_on_larger_shapes(sizes, cuts, stop):
    shape, group, whole = _full_scan(sizes)
    span = 1 << shape.m

    def key(cut):
        at_leader, frac, step = cut
        if at_leader:
            return whole[int(frac * (len(whole) - 1))][0] + step
        return int(frac * span)

    lo, hi = sorted((key(cuts[0]), key(cuts[1])))
    start = key(cuts[2])
    want = [(k, b) for k, b in whole if max(lo, start) <= k < hi]
    gen = canonical_classes(shape, group, lo=max(lo, start), hi=hi)
    head = list(islice(gen, stop))
    gen.close()
    assert head == want[:stop]
    if head:
        tail = list(canonical_classes(shape, group,
                                      lo=max(lo, head[-1][0] + 1), hi=hi))
        assert head + tail == want


# ---------------------------------------------------------------------------
# The tail: the scan decides the last k = _tail_width(shape) edges of a
# prefix in one block of 2^k completions.
# ---------------------------------------------------------------------------

def test_tail_width_is_the_rows_past_part_0_capped():
    widths = {(5, 2, 2): 4, (4, 2, 2): 4, (3, 3, 2): 6, (4, 3, 2): 6,
              (2, 2, 2, 2): 8, (3, 3, 3): 8, (2, 2, 2, 1): 8, (4, 4, 1): 4,
              (3, 2): 0, (1, 1): 0, (3,): 0}
    for sizes, k in widths.items():
        assert symmetry._tail_width(build_shape(sizes)) == k
    assert symmetry.TAIL_CAP == 8  # [2,2,2,2] has 12 such edges


@pytest.mark.parametrize("sizes", [(5, 2, 2), (2, 2, 2, 2)])
def test_windows_inside_one_tail_block(sizes):
    shape, group, whole = _full_scan(sizes)
    k = symmetry._tail_width(shape)
    assert 0 < k < shape.m
    size = 1 << k
    blocks = sorted({key >> k for key, _ in whole})
    # blocks holding several leaders, from the start, middle and end
    crowded = [p for p in blocks
               if sum(1 for key, _ in whole if key >> k == p) >= 3]
    picks = {crowded[0], crowded[len(crowded) // 2], crowded[-1]}
    step = max(1, size // 24)  # every edge of a [5,2,2] block; a grid on 256
    for p in picks:
        start = p << k
        inside = [(key, b) for key, b in whole if key >> k == p]
        for lo in range(start + 1, start + size - 1, step):
            for hi in range(lo + 1, start + size, step):
                got = list(canonical_classes(shape, group, lo=lo, hi=hi))
                assert got == [(key, b) for key, b in inside if lo <= key < hi]


def test_restarting_every_500_leaders_gives_the_full_scan():
    # a survey's chunks: stop after 500 leaders, restart at the last key + 1
    shape, group, whole = _full_scan((2, 2, 2, 2))
    got, pos, span = [], 0, 1 << shape.m
    while pos < span:
        gen = canonical_classes(shape, group, lo=pos)
        chunk = list(islice(gen, 500))
        gen.close()
        got += chunk
        pos = chunk[-1][0] + 1 if len(chunk) == 500 else span
    assert got == whole
    assert len(whole) == 24607
    # the goldens hash keys only: the bits must be the same coloring
    assert all(b == key_to_bits(key, shape.m) for key, b in whole)


def _orbit_minima(shape, group):
    """(key, bits) of every coloring whose key is its orbit's least."""
    m = shape.m
    ones = (1 << m) - 1
    out = []
    for bits in range(1 << m):
        key = bits_to_key(bits, m)
        for inv, flip in group.elements:
            img = sum(1 << j for j in range(m) if bits >> inv[j] & 1)
            if bits_to_key(img ^ (ones if flip else 0), m) < key:
                break
        else:
            out.append((key, bits))
    return sorted(out)


def test_a_scan_that_starts_in_the_tail(monkeypatch):
    # With m <= k the walk stops at depth 0 and the root decides every
    # coloring.  A shape of one part has m = k = 0.
    shape = build_shape([3])
    group = symmetry_group(shape)
    assert symmetry._tail_width(shape) == 0 == shape.m
    assert list(canonical_classes(shape, group)) == [(0, 0)]
    assert list(canonical_classes(shape, group, lo=1, hi=2)) == []
    # Every shape of two or more parts has edges in part 0's rows, so
    # m > k; make the width m to start one in the tail too.
    shape, group, whole = _full_scan((2, 2, 1))
    monkeypatch.setattr(symmetry, "_tail_width", lambda s: s.m)
    assert list(canonical_classes(shape, group)) == whole
    assert whole == _orbit_minima(shape, group)
    span = 1 << shape.m
    for lo, hi in [(1, span - 1), (span // 3, span // 2), (5, 6)]:
        got = list(canonical_classes(shape, group, lo=lo, hi=hi))
        assert got == [(key, b) for key, b in whole if lo <= key < hi]


@pytest.mark.parametrize("sizes", [(3, 2), (4, 2), (2, 2), (3, 3)])
def test_two_part_shapes_yield_one_leaf_blocks(sizes):
    # no edge lies in a row past part 0, so every block is one completion
    shape, group, whole = _full_scan(sizes)
    assert symmetry._tail_width(shape) == 0
    assert whole == _orbit_minima(shape, group)
    span = 1 << shape.m
    for lo, hi in [(0, span // 2), (span // 3, span - 1), (7, 8)]:
        got = list(canonical_classes(shape, group, lo=lo, hi=hi))
        assert got == [(key, b) for key, b in whole if lo <= key < hi]


@pytest.mark.parametrize("sizes", [(2, 2, 1), (3, 2, 1), (2, 1, 1, 1)])
def test_every_tail_width_gives_the_same_scan(monkeypatch, sizes):
    shape, group, whole = _full_scan(sizes)
    for k in range(shape.m + 1):
        monkeypatch.setattr(symmetry, "_tail_width", lambda s: k)
        assert list(canonical_classes(shape, group)) == whole
        hi = (1 << shape.m) - 5
        assert (list(canonical_classes(shape, group, lo=3, hi=hi))
                == [(key, b) for key, b in whole if 3 <= key < hi])
