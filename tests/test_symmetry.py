"""Orbit-leader enumeration and canonical keys."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_shapes_with_few_edges, random_coloring
from mpcover import symmetry
from mpcover.graphs import EdgeColoring, build_shape
from mpcover.search import _chunk_worker
from mpcover.symmetry import (FULL_EXPANSION_CAP, bits_to_key,
                              canonical_classes, canonical_key,
                              edge_perm, key_to_bits, leader_count,
                              size_families, symmetry_group,
                              vertex_group_order)


def all_classes(sizes, group=None):
    shape = build_shape(sizes)
    if group is None:
        group = symmetry_group(shape)
    return list(canonical_classes(shape, group))


def orbit_of(chi: EdgeColoring, group) -> set:
    """All bit-strings in chi's orbit under the expanded elements."""
    out = {chi.bits}
    for inv, flip in group.elements:
        flipmask = ((1 << chi.shape.m) - 1) if flip else 0
        img = 0
        for j in range(chi.shape.m):
            if (chi.bits >> inv[j]) & 1:
                img |= 1 << j
        out.add(img ^ flipmask)
    return out


def test_size_families_and_group_order():
    assert size_families(build_shape([2, 2, 1])) == [[0, 1], [2]]
    assert vertex_group_order(build_shape([2, 1])) == 2
    assert vertex_group_order(build_shape([2, 2])) == 8  # 2!*2! within, 2! across
    assert vertex_group_order(build_shape([1, 1, 1])) == 6
    assert vertex_group_order(build_shape([3, 2, 2])) == 48


def test_group_expansion_counts():
    shape = build_shape([2, 1])
    g = symmetry_group(shape)
    assert g.is_full and g.order == 4
    # identity-without-flip is dropped, everything else is materialized
    assert len(g.elements) == g.order - 1
    forced = symmetry_group(shape, cap=1)
    assert not forced.is_full and forced.order == 4


def test_edge_perm_is_a_permutation():
    shape = build_shape([2, 2, 1])
    ep = edge_perm(shape, [1, 0, 2, 3, 4])
    assert sorted(ep) == list(range(shape.m))


def test_key_bits_reversal():
    assert bits_to_key(0b1, 3) == 0b100
    assert bits_to_key(0b100, 3) == 0b1
    for m in (1, 4, 9):
        for bits in range(1 << m):
            assert key_to_bits(bits_to_key(bits, m), m) == bits


def test_two_classes_on_the_path_shape():
    # shape [2,1] has 2 edges and a 4-element group: exactly 2 orbits
    leaders = all_classes([2, 1])
    assert len(leaders) == 2
    shape = build_shape([2, 1])
    keys = {bits_to_key(canonical_key(EdgeColoring(shape, b)), shape.m)
            for b in range(1 << shape.m)}
    assert len(keys) == 2


@pytest.mark.parametrize("sizes", [[2, 1], [2, 2], [1, 1, 1], [2, 1, 1],
                                   [2, 2, 1]])
def test_leaders_are_orbit_minima_and_cover_everything(sizes):
    shape = build_shape(sizes)
    # the full group, and the cyclic subgroup the large-group tier uses
    for group in (symmetry_group(shape), symmetry_group(shape, cap=1)):
        leaders = all_classes(sizes, group)
        keys = [k for k, _ in leaders]
        assert keys == sorted(keys)  # ascending, strictly
        assert len(set(keys)) == len(keys)

        seen = set()
        for key, bits in leaders:
            orbit = orbit_of(EdgeColoring(shape, bits), group)
            assert min(bits_to_key(b, shape.m) for b in orbit) == key
            assert not (orbit & seen)  # orbits of distinct leaders are disjoint
            seen |= orbit
        assert len(seen) == 1 << shape.m  # and they partition the whole space


def test_canonical_key_is_orbit_invariant(rng):
    shape = build_shape([2, 2, 2])
    group = symmetry_group(shape)
    for _ in range(20):
        chi = random_coloring(rng, [2, 2, 2])
        key = canonical_key(chi)
        assert canonical_key(chi.swap_colors()) == key
        perm = [1, 0, 2, 3, 4, 5]  # swap inside part 0
        assert canonical_key(chi.permute(perm)) == key
        # the canonical member is in the orbit and is a fixed point
        assert key in orbit_of(chi, group)
        assert canonical_key(EdgeColoring(shape, key)) == key


def test_backtracking_key_agrees_with_expansion(rng):
    # the brute-force orbit minimum over the expanded group's elements
    for sizes in ([2, 2, 1], [3, 2, 1], [2, 2, 2]):
        shape = build_shape(sizes)
        group = symmetry_group(shape)
        for _ in range(30):
            chi = random_coloring(rng, sizes)
            least = min(bits_to_key(b, shape.m) for b in orbit_of(chi, group))
            assert canonical_key(chi) == key_to_bits(least, shape.m)


def test_canonical_key_past_the_expansion_cap(rng):
    for sizes in ([2] * 6, [9, 1, 1], [6, 6], [4, 4, 4]):
        shape = build_shape(sizes)
        assert vertex_group_order(shape) > FULL_EXPANSION_CAP
        p, q = next((p, q) for p in range(shape.k) for q in range(p + 1, shape.k)
                    if sizes[p] == sizes[q])
        within = list(range(shape.n))
        within[0], within[1] = 1, 0  # a swap within part 0
        across = list(range(shape.n))  # a swap of parts p and q
        for o in range(sizes[p]):
            u, v = shape.part_start[p] + o, shape.part_start[q] + o
            across[u], across[v] = v, u
        even = sum(1 << i for i, (u, v) in enumerate(shape.edges)
                   if (u + v) % 2 == 0)  # blue iff u + v is even
        colorings = [random_coloring(rng, sizes) for _ in range(3)]
        colorings += [EdgeColoring(shape, 0), EdgeColoring(shape, even)]
        for chi in colorings:
            key = canonical_key(chi)
            assert canonical_key(chi.swap_colors()) == key
            assert canonical_key(chi.permute(within)) == key
            assert canonical_key(chi.permute(across)) == key
            assert canonical_key(EdgeColoring(shape, key)) == key


def test_canonical_key_builds_no_group(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("canonical_key expanded a group")
    monkeypatch.setattr(symmetry, "symmetry_group", refuse)
    for _ in range(5):
        canonical_key(random_coloring(rng, [2, 2, 1]))


def test_every_leader_is_its_own_canonical_key():
    # the scan's leaders, checked by a search that builds no group
    shape = build_shape([4, 2, 2])
    leaders = [bits for _, bits in canonical_classes(shape, symmetry_group(shape))]
    assert [canonical_key(EdgeColoring(shape, b)) for b in leaders] == leaders
    assert len(set(leaders)) == len(leaders) == 4316


def test_raw_mode_enumerates_every_bitstring():
    shape = build_shape([2, 2])
    raw = list(canonical_classes(shape, None))
    assert len(raw) == 1 << shape.m
    assert [k for k, _ in raw] == list(range(1 << shape.m))


def test_windows_compose_and_restart():
    shape = build_shape([2, 2, 1])
    group = symmetry_group(shape)
    whole = list(canonical_classes(shape, group))
    span = 1 << shape.m
    mid = span // 3
    split = (list(canonical_classes(shape, group, lo=0, hi=mid))
             + list(canonical_classes(shape, group, lo=mid, hi=span)))
    assert split == whole
    # restart just after the third leader reproduces the tail
    third = whole[2][0]
    tail = list(canonical_classes(shape, group, lo=third + 1))
    assert tail == whole[3:]


def test_subgroup_tier_is_a_sound_refinement():
    """Cyclic-subgroup leaders over-count classes but cover the same orbits."""
    shape = build_shape([2, 2, 1])
    full_leaders = all_classes([2, 2, 1])
    cyc = symmetry_group(shape, cap=1)
    assert not cyc.is_full
    cyc_leaders = all_classes([2, 2, 1], cyc)
    assert len(cyc_leaders) >= len(full_leaders)
    projected = {bits_to_key(canonical_key(EdgeColoring(shape, bits)), shape.m)
                 for _, bits in cyc_leaders}
    assert projected == {k for k, _ in full_leaders}


@settings(deadline=None, max_examples=40)
@given(st.integers(0, (1 << 8) - 1))
def test_leader_bit_zero_is_red(bits):
    # a leader beaten by the plain color swap is impossible
    shape = build_shape([2, 2, 1])
    key = canonical_key(EdgeColoring(shape, bits))
    assert (key & 1) == 0


@pytest.mark.parametrize("sizes,want", [
    ([2, 2, 1], 27), ([4, 2, 2], 4316), ([5, 2, 2], 16579),
    ([2, 2, 2, 2], 24607), ([3, 3, 2], 9400)])
def test_burnside_count_matches_enumeration(sizes, want):
    shape = build_shape(sizes)
    group = symmetry_group(shape)
    assert leader_count(shape, group) == want
    assert sum(1 for _ in canonical_classes(shape, group)) == want


def test_burnside_count_on_small_shapes_and_subgroups():
    # the claim-10 shapes, [2, 2, 1] among them, in all three tiers
    shapes = all_shapes_with_few_edges(8)
    assert len(shapes) == 16 and (2, 2, 1) in shapes
    for sizes in shapes:
        shape = build_shape(sizes)
        for group in (symmetry_group(shape), symmetry_group(shape, cap=1), None):
            enumerated = sum(1 for _ in canonical_classes(shape, group))
            assert leader_count(shape, group) == enumerated, (sizes, group)
    # edge permutations induced twice ([1, 1]) or by every vertex map ([3])
    for sizes in ([1, 1], [3]):
        shape = build_shape(sizes)
        assert leader_count(shape, symmetry_group(shape)) == 1
        assert len(all_classes(sizes)) == 1


_FULL_SCANS = {}


def _full_scan(sizes):
    sizes = tuple(sizes)
    if sizes not in _FULL_SCANS:
        shape = build_shape(sizes)
        group = symmetry_group(shape)
        _FULL_SCANS[sizes] = (shape, group, list(canonical_classes(shape, group)))
    return _FULL_SCANS[sizes]


@settings(deadline=None, max_examples=60)
@given(sizes=st.sampled_from([(2, 2, 2, 1), (3, 2, 2), (3, 3, 1)]),
       cuts=st.lists(st.floats(0, 1), min_size=3, max_size=3))
def test_any_window_is_a_slice_of_the_full_scan(sizes, cuts):
    shape, group, whole = _full_scan(sizes)
    lo, hi, start = (int(c * (1 << shape.m)) for c in cuts)
    window = list(canonical_classes(shape, group, lo=max(lo, start), hi=hi))
    assert window == [(k, b) for k, b in whole if max(lo, start) <= k < hi]


def test_stopped_chunk_restarts_after_its_last_key():
    # The chunk worker stops its generator after `limit` leaders and the next
    # chunk restarts at last_key + 1; together they reproduce the full scan.
    shape, group, whole = _full_scan((3, 2, 2))
    gen = canonical_classes(shape, group)
    head = [next(gen) for _ in range(400)]
    gen.close()
    tail = list(canonical_classes(shape, group, lo=head[-1][0] + 1))
    assert head + tail == whole

    span = 1 << shape.m
    pos, counted = 0, 0
    while pos < span:
        tally, pos = _chunk_worker(((3, 2, 2), 2, 4, True, True, None,
                                    span, pos, 300))
        counted += tally.classes
    assert counted == len(whole)
