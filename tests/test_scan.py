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
from mpcover.graphs import build_shape
from mpcover.symmetry import SymmetryGroup, canonical_classes, symmetry_group

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
