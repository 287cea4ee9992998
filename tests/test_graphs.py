"""Shapes, colorings, distances, components and the bi-distance cells."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import far_vertex_of, random_coloring
from mpcover import graphs, ladder
from mpcover.errors import (EmptySet, InvalidShape, InvalidVertex,
                            NoUniqueClone)
from mpcover.graphs import (BLUE, INF, MAX_VERTICES, RED, EdgeColoring,
                            _balls, bilayer_partition, bits_of,
                            build_shape, color_diameter, color_distance,
                            coloring_from_json, coloring_to_json, component_of,
                            diameter_at_most, diameter_in_mask, far_masks,
                            mask_of, other_color)

SMALL_SHAPES = ((2, 1), (2, 2), (1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1),
                (2, 2, 2))


@st.composite
def colorings(draw, shapes=SMALL_SHAPES):
    shape = build_shape(draw(st.sampled_from(shapes)))
    bits = draw(st.integers(min_value=0, max_value=(1 << shape.m) - 1))
    return EdgeColoring(shape, bits)


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

def test_shape_counts():
    s = build_shape([4, 3, 2])
    assert s.n == 9 and s.m == 26 and s.k == 3
    assert build_shape([2, 2, 2]).m == 12
    # canonicalization sorts sizes descending
    assert build_shape([2, 3, 4]) == build_shape([4, 3, 2])
    assert build_shape([2, 3, 4]).part_sizes == (4, 3, 2)


def test_shape_blocks_and_adjacency():
    s = build_shape([3, 2, 1])
    assert [s.part_of(v) for v in range(6)] == [0, 0, 0, 1, 1, 2]
    assert list(s.part_vertices(1)) == [3, 4]
    for u in range(s.n):
        for v in range(u + 1, s.n):
            assert ((u, v) in s.edge_index) == (s.part_id[u] != s.part_id[v])


@pytest.mark.parametrize("bad", [[], [0, 2], [3, -1], [MAX_VERTICES + 1],
                                 [MAX_VERTICES // 2 + 1] * 2])
def test_shape_rejects_bad_sizes(bad):
    with pytest.raises(InvalidShape):
        build_shape(bad)


@pytest.mark.parametrize("make", [
    lambda: build_shape([True, True, True]),
    lambda: build_shape([True, 2]),
    lambda: build_shape([2.0, 2]),
    lambda: build_shape(["2", 2]),
    lambda: EdgeColoring(build_shape([2, 1]), 1.5),
    lambda: EdgeColoring(build_shape([2, 1]), True),
    lambda: EdgeColoring(build_shape([2, 1]), 0).recolored(1.0),
    lambda: EdgeColoring(build_shape([2, 1]), 0).recolored(False),
], ids=["bool-sizes", "bool-and-int", "float-size", "str-size",
        "float-bits", "bool-bits", "recolored-float", "recolored-bool"])
def test_non_integer_sizes_and_bits_are_invalid_shapes(make):
    # a bool is no integer here, as for vertex ids and counts
    with pytest.raises(InvalidShape):
        make()


def test_clone_of():
    s = build_shape([2, 2, 1])
    assert s.clone == (1, 0, 3, 2, None)
    assert s.clone_pairs == ((0, 1), (2, 3))
    assert build_shape([3, 1]).clone_pairs == ()
    assert s.clone_of(0) == 1 and s.clone_of(1) == 0
    assert s.clone_of(2) == 3
    with pytest.raises(NoUniqueClone):
        s.clone_of(4)  # singleton part
    with pytest.raises(InvalidVertex):
        s.clone_of(9)


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------

def test_from_edges_roundtrip(rng):
    chi = random_coloring(rng, [3, 2, 2])
    rebuilt = EdgeColoring.from_edges(
        chi.shape, [(u, v, (chi.bits >> i) & 1)
                    for i, (u, v) in enumerate(chi.shape.edges)])
    assert rebuilt.bits == chi.bits
    # the adjacency rows agree with the edge colors
    for u in range(chi.n):
        for c in (RED, BLUE):
            assert set(bits_of(chi.adj[c][u])) == {
                v for v in range(chi.n) if chi.shape.part_id[v] != chi.shape.part_id[u]
                and chi.color_of(u, v) == c}


def _random_shape(rng):
    return build_shape([rng.randint(1, 6) for _ in range(rng.randint(1, 6))])


def _near_bits(rng, m, bits):
    """bits with a few random edges flipped, or a fresh bitstring."""
    if rng.random() < 0.25:
        return rng.getrandbits(m)
    for _ in range(rng.randint(0, 3) if m else 0):
        bits ^= 1 << rng.randrange(m)
    return bits


def _same_coloring(a, b):
    return (a.bits == b.bits and a.adj == b.adj and a == b
            and hash(a) == hash(b))


@pytest.mark.parametrize("seed", range(6))
def test_recolored_matches_the_constructor(seed):
    rng = random.Random(seed)
    shapes = [build_shape([5]), build_shape([3, 3, 2]),
              build_shape([10, 10, 10])]
    shapes += [_random_shape(rng) for _ in range(8)]
    assert shapes[0].m == 0 and max(s.n for s in shapes) == 30
    for shape in shapes:
        m = shape.m
        for _ in range(20):
            a = EdgeColoring(shape, rng.getrandbits(m))
            b = _near_bits(rng, m, a.bits)
            assert _same_coloring(a.recolored(b), EdgeColoring(shape, b))
        for bad in (-1, 1 << m):
            with pytest.raises(InvalidShape):
                a.recolored(bad)


def test_a_chain_of_recolorings_does_not_drift(rng):
    for sizes in ([4], [2, 2, 2, 2], [5, 2, 2], [9, 8, 7, 6]):
        shape = build_shape(sizes)
        chi = EdgeColoring(shape, 0)
        for _ in range(200):
            chi = chi.recolored(_near_bits(rng, shape.m, chi.bits))
            assert _same_coloring(chi, EdgeColoring(shape, chi.bits))


def _pair_edges(sizes):
    """The edge list and index of a shape by the plain pair enumeration."""
    part = [p for p, a in enumerate(sorted(sizes, reverse=True))
            for _ in range(a)]
    edges = tuple((u, v) for u in range(len(part))
                  for v in range(u + 1, len(part)) if part[u] != part[v])
    return edges, {e: i for i, e in enumerate(edges)}


def _edge_rows(edges, n, bits):
    """(red, blue) adjacency rows, one edge at a time."""
    rows = ([0] * n, [0] * n)
    for i, (u, v) in enumerate(edges):
        side = rows[(bits >> i) & 1]
        side[u] |= 1 << v
        side[v] |= 1 << u
    return tuple(rows[RED]), tuple(rows[BLUE])


@pytest.mark.parametrize("seed", range(4))
def test_slice_built_shapes_and_rows_match_a_per_edge_build(seed):
    rng = random.Random(seed)
    sizes_list = [[1], [5], [1, 1], [6] * 5]
    sizes_list += [[rng.randint(1, 6) for _ in range(rng.randint(1, 7))]
                   for _ in range(12)]
    for sizes in sizes_list:
        edges, index = _pair_edges(sizes)
        shape = build_shape(sizes)
        m = len(edges)
        assert shape.m == m
        all_blue = (1 << m) - 1
        chis = [EdgeColoring(shape, b)
                for b in (rng.getrandbits(m), 0, all_blue)]
        # the rows come from the slices, before the edge list exists
        assert shape._edges is None and shape._edge_index is None
        for chi in chis:
            assert chi.adj == _edge_rows(edges, shape.n, chi.bits)
        assert shape.edges == edges and shape.edge_index == index
        assert shape.edges is shape.edges  # built once, then kept
        with pytest.raises(AttributeError):
            shape.edges = ()
        for a in chis:
            for b in (_near_bits(rng, m, a.bits), 0, all_blue):
                assert _same_coloring(a.recolored(b), EdgeColoring(shape, b))
                assert a.recolored(b).adj == _edge_rows(edges, shape.n, b)


def test_from_edges_rejects_bad_lists():
    s = build_shape([2, 1])
    with pytest.raises(InvalidShape):
        EdgeColoring.from_edges(s, [(0, 1, RED)])  # same-part pair
    with pytest.raises(InvalidShape):
        EdgeColoring.from_edges(s, [(0, 2, RED), (0, 2, BLUE), (1, 2, RED)])
    with pytest.raises(InvalidShape):
        EdgeColoring.from_edges(s, [(0, 2, RED)])  # one edge uncolored


def test_swap_and_permute(rng):
    chi = random_coloring(rng, [2, 2, 1])
    assert chi.swap_colors().swap_colors() == chi
    # swapping the two vertices of part 0 respects the parts
    perm = [1, 0, 2, 3, 4]
    chi2 = chi.permute(perm)
    assert chi2.color_of(0, 2) == chi.color_of(1, 2)
    with pytest.raises(InvalidVertex):
        chi.permute([2, 1, 0, 3, 4])  # moves across parts
    # a bool is no vertex id, though it sorts as one; nor is a float
    three = EdgeColoring(build_shape([1, 1, 1]), 0b101)
    for perm in ([True, False, 2], [1.0, 0.0, 2.0]):
        with pytest.raises(InvalidVertex):
            three.permute(perm)


@pytest.mark.parametrize("sizes", [[1], [3], [2, 1], [3, 2, 2], [6] * 5])
def test_swap_colors_trades_the_rows(rng, sizes):
    shape = build_shape(sizes)
    for bits in (0, (1 << shape.m) - 1, rng.getrandbits(shape.m)):
        chi = EdgeColoring(shape, bits)
        swapped = chi.swap_colors()
        assert _same_coloring(
            swapped, EdgeColoring(shape, bits ^ ((1 << shape.m) - 1)))
        assert _same_coloring(swapped.swap_colors(), chi)


def test_color_of_reads_one_edge():
    chi = EdgeColoring(build_shape([2, 2]), 0b0110)  # edges (0,3), (1,2) blue
    assert [chi.color_of(u, v) for u, v in ((0, 2), (0, 3), (1, 2), (1, 3))] \
        == [RED, BLUE, BLUE, RED]
    assert chi.color_of(3, 0) == BLUE


@pytest.mark.parametrize("u, v, message", [
    (0, 1, "lie in one part"), (3, 2, "lie in one part"),
    (2, 2, "lie in one part"), (0, 9, "vertex 9 outside 0..3"),
    (-1, 2, "vertex -1 outside 0..3"), (True, 2, "vertex True outside"),
    (0, False, "vertex False outside"), (0, 2.0, "vertex 2.0 outside"),
])
def test_color_of_needs_two_vertices_of_different_parts(u, v, message):
    # a bool is no vertex id, though True == 1 would find edge (1, 2)
    chi = EdgeColoring(build_shape([2, 2]), 0b0110)
    with pytest.raises(InvalidVertex, match=message):
        chi.color_of(u, v)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_distance_basics(rng):
    chi = random_coloring(rng, [3, 2, 1])
    for v in range(chi.n):
        assert color_distance(chi, RED, v, v) == 0
    allred = EdgeColoring.all_same(build_shape([3, 2, 1]), RED)
    for u in range(allred.n):
        for v in range(u + 1, allred.n):
            assert color_distance(allred, BLUE, u, v) >= INF
    with pytest.raises(InvalidVertex):
        color_distance(chi, RED, 0, 17)
    # all red: the co-part vertex is two steps away, the blue graph is empty
    allred = EdgeColoring.all_same(build_shape([2, 2, 2]), RED)
    assert allred.distances(RED)[0] == (0, 2, 1, 1, 1, 1)
    assert max(allred.distances(BLUE)[0]) >= INF


@settings(deadline=None)
@given(colorings())
def test_distance_symmetric_and_triangle(chi):
    for c in (RED, BLUE):
        dist = chi.distances(c)
        for u in range(chi.n):
            for v in range(chi.n):
                assert dist[u][v] == dist[v][u]
                for w in range(chi.n):
                    assert dist[u][w] <= dist[u][v] + dist[v][w]


def test_color_diameter():
    allblue = EdgeColoring.all_same(build_shape([2, 2, 2]), BLUE)
    assert color_diameter(allblue, BLUE) == 2
    assert color_diameter(allblue, BLUE, [3]) == 0
    assert color_diameter(allblue, RED) >= INF
    with pytest.raises(EmptySet):
        color_diameter(allblue, BLUE, [])


@settings(deadline=None, max_examples=300)
@given(colorings(SMALL_SHAPES + ((3, 3, 2), (4, 2, 2, 1))), st.data(),
       st.sampled_from((RED, BLUE)), st.integers(0, 4))
def test_diameter_at_most_matches_diameter_in_mask(chi, data, c, d):
    mask = data.draw(st.integers(0, chi.shape.full_mask))
    assert diameter_at_most(chi, c, mask, d) == (diameter_in_mask(chi, c, mask) <= d)


def _floyd_warshall_diameter(chi, c, mask):
    """Reference: max pairwise color-c distance inside the mask (INF if cut)."""
    vs = list(bits_of(mask))
    pid = chi.shape.part_id
    dist = {(u, v): 0 if u == v else
            (1 if pid[u] != pid[v] and chi.color_of(u, v) == c else INF)
            for u in vs for v in vs}
    for w in vs:
        for u in vs:
            for v in vs:
                if dist[u, w] + dist[w, v] < dist[u, v]:
                    dist[u, v] = dist[u, w] + dist[w, v]
    return max(dist.values(), default=0)


@st.composite
def masked_colorings(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)
                 .filter(lambda s: sum(s) <= 12))
    shape = build_shape(sizes)
    chi = EdgeColoring(shape, draw(st.integers(0, (1 << shape.m) - 1)))
    part = draw(st.integers(0, shape.k - 1))
    mask = draw(st.one_of(
        st.integers(0, shape.full_mask),
        st.integers(0, shape.n - 1).map(lambda v: 1 << v),
        st.just(mask_of(shape.part_vertices(part)))))  # no edges inside
    return chi, mask


@settings(deadline=None, max_examples=300)
@given(masked_colorings(), st.sampled_from((RED, BLUE)))
def test_diameter_in_mask_matches_floyd_warshall(chi_mask, c):
    chi, mask = chi_mask
    assert diameter_in_mask(chi, c, mask) == _floyd_warshall_diameter(chi, c, mask)


def _bfs_ball(chi, c, u, d, mask):
    """Reference: the mask's vertices within color-c distance d of u, by a
    plain BFS that never leaves the mask."""
    pid = chi.shape.part_id
    inside = {v for v in range(chi.n) if (mask >> v) & 1}
    dist = {u: 0}
    queue = [u]
    for x in queue:
        if dist[x] == d:
            continue
        for y in sorted(inside - set(dist)):
            if pid[x] != pid[y] and chi.color_of(x, y) == c:
                dist[y] = dist[x] + 1
                queue.append(y)
    return set(dist)


@settings(deadline=None, max_examples=400)
@given(masked_colorings(), st.sampled_from((RED, BLUE)), st.data(),
       st.one_of(st.integers(0, 14), st.just(INF)))
def test_balls_match_bfs_inside_the_mask(chi_mask, c, data, d):
    chi, mask = chi_mask
    if not mask:
        mask = 1 << data.draw(st.integers(0, chi.n - 1))
    u = data.draw(st.sampled_from(list(bits_of(mask))))
    rows = chi.adj[c]
    balls = _balls(rows, u, mask, d)
    for r, ball in enumerate(balls):
        assert set(bits_of(ball)) == _bfs_ball(chi, c, u, r, mask)
        # each ball grows the one before: the list ends where growth stops
        assert r == 0 or ball & ~balls[r - 1]
    assert set(bits_of(balls[-1])) == _bfs_ball(chi, c, u, d, mask)
    # every radius cuts the unbounded list there
    whole = _balls(rows, u, mask, INF)
    assert all(_balls(rows, u, mask, e) == whole[:e + 1]
               for e in range(len(whole) + 1))


@settings(deadline=None, max_examples=400)
@given(masked_colorings(), st.sampled_from((RED, BLUE)),
       st.one_of(st.integers(0, 14), st.just(INF)))
def test_far_vertex_is_the_lowest_vertex_whose_ball_misses_the_mask(
        chi_mask, c, d):
    chi, mask = chi_mask
    inside = set(bits_of(mask))
    want = next((u for u in sorted(inside)
                 if _bfs_ball(chi, c, u, d, mask) != inside), None)
    assert far_vertex_of(chi.adj[c], mask, d) == want


@st.composite
def star_or_random_masks(draw):
    """(chi, c, mask): a center u with a random subset of its color-c
    neighbors (a dominated mask), or a plain random mask."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)
                 .filter(lambda s: sum(s) <= 12))
    shape = build_shape(sizes)
    chi = EdgeColoring(shape, draw(st.integers(0, (1 << shape.m) - 1)))
    c = draw(st.sampled_from((RED, BLUE)))
    if draw(st.booleans()):
        u = draw(st.integers(0, shape.n - 1))
        mask = (1 << u) | (chi.adj[c][u] & draw(st.integers(0, shape.full_mask)))
    else:
        mask = draw(st.integers(0, shape.full_mask))
    return chi, c, mask


@settings(deadline=None, max_examples=400)
@given(star_or_random_masks(), st.integers(0, 4))
def test_diameter_at_most_matches_floyd_warshall(chi_c_mask, d):
    chi, c, mask = chi_c_mask
    assert diameter_at_most(chi, c, mask, d) == \
        (_floyd_warshall_diameter(chi, c, mask) <= d)


def _walk_coloring(sizes, order, c, closed=False):
    """(chi, mask): color c on the consecutive pairs of ``order`` (and on the
    closing pair when ``closed``), the other color on every other edge.  The
    color-c graph induced on ``order`` is then that path or cycle."""
    shape = build_shape(sizes)
    walk = set(zip(order, order[1:] + order[:1] if closed else order[1:]))
    for u, v in walk:
        assert shape.part_id[u] != shape.part_id[v]
    colored = [(u, v, c if (u, v) in walk or (v, u) in walk else other_color(c))
               for u, v in shape.edges]
    return EdgeColoring.from_edges(shape, colored), mask_of(order)


def _interleaved(parts, size, k):
    """k vertices of ``parts`` parts of ``size``, one part after the next,
    so that consecutive ones are in different parts."""
    return [(i % parts) * size + i // parts for i in range(k)]


# Paths whose lowest vertex is an end: on K_{5,5,5,5,5,5}, where most mask
# pairs are non-edges, and on a complete graph.  And paths whose lowest vertex
# is inside, where a radius-(k - 2) ball from it already fills the mask.
PATHS = ([((5,) * 6, _interleaved(6, 5, k)) for k in (2, 3, 4, 7, 12, 30)]
         + [((5,) * 6, _interleaved(6, 5, 30)[1:])]
         + [((1,) * k, list(range(k))) for k in (3, 4, 9)]
         + [((1,) * k, list(range(1, k // 2 + 1)) + [0]
             + list(range(k // 2 + 1, k))) for k in (3, 4, 5, 9, 16)])


@pytest.mark.parametrize("c", (RED, BLUE))
@pytest.mark.parametrize("sizes, order", PATHS)
def test_a_path_of_k_vertices_has_diameter_k_minus_1(sizes, order, c):
    chi, mask = _walk_coloring(sizes, order, c)
    k, n = len(order), chi.n
    assert diameter_in_mask(chi, c, mask) == k - 1
    assert diameter_at_most(chi, c, mask, k - 1)
    assert not diameter_at_most(chi, c, mask, k - 2)
    for d in list(range(k + 2)) + [n, INF]:
        assert diameter_at_most(chi, c, mask, d) == (k - 1 <= d), d


@pytest.mark.parametrize("c", (RED, BLUE))
@pytest.mark.parametrize("sizes, order", [
    ((5,) * 6, _interleaved(6, 5, 30)),
    ((5,) * 6, _interleaved(6, 5, 5)),
    ((1,) * 4, [0, 1, 2, 3]),
    ((1,) * 11, [3, 0, 7, 1, 10, 2, 4, 9, 5, 6, 8]),
    ((3, 3, 3), [0, 3, 6, 1, 4, 7, 2, 5, 8]),
])
def test_a_cycle_of_k_vertices_has_diameter_half_k(sizes, order, c):
    chi, mask = _walk_coloring(sizes, order, c, closed=True)
    k, n = len(order), chi.n
    assert diameter_in_mask(chi, c, mask) == k // 2
    assert diameter_at_most(chi, c, mask, k // 2)
    assert not diameter_at_most(chi, c, mask, k // 2 - 1)
    for d in list(range(k + 2)) + [n, INF]:
        assert diameter_at_most(chi, c, mask, d) == (k // 2 <= d), d


@pytest.mark.parametrize("c", (RED, BLUE))
def test_a_disconnected_mask_is_false_at_every_d(c):
    order = _interleaved(6, 5, 30)
    chi, full = _walk_coloring((5,) * 6, order, c)
    cut = EdgeColoring(chi.shape, chi.bits ^ 1 << chi.shape.edge_index[
        tuple(sorted(order[14:16]))])  # the path loses its middle edge
    part = mask_of(chi.shape.part_vertices(0))  # no edges inside a part
    for g, mask in ((cut, full), (chi, part), (chi, 0b11)):
        assert diameter_in_mask(g, c, mask) == INF
        for d in (0, 1, 2, 3, mask.bit_count() - 1, g.n, INF):
            assert not diameter_at_most(g, c, mask, d), (mask, d)


@pytest.mark.parametrize("c", (RED, BLUE))
@pytest.mark.parametrize("d", (0, 1, 2, 30, INF))
def test_empty_and_singleton_masks_have_diameter_0(c, d):
    chi = EdgeColoring(build_shape([5] * 6), 0)
    for mask in (0, 1, 1 << 29):
        assert diameter_in_mask(chi, c, mask) == 0
        assert diameter_at_most(chi, c, mask, d)


def _broom(d, r, candy, c):
    """(chi, mask) on a complete graph: a hub 0 of eccentricity r <= d, and
    a vertex 1 at distance d - r + 1 from it of eccentricity d + 1.

    Two arms leave the hub in color c: 0, 2, ..., 1 of d - r + 1 edges, and
    a handle of r - 1 edges that ends in three bristles (a broom) or, with
    ``candy``, a triangle (a lollipop), at distance r.  The last vertex lies
    outside the mask and is joined in color c to every vertex of it, a
    shortcut that only a walk leaving the mask can take.
    """
    arm = [0] + list(range(2, d - r + 2)) + [1]
    handle = [0] + list(range(d - r + 2, d + 1))
    tip = [d + 1, d + 2, d + 3]
    pairs = {*zip(arm, arm[1:]), *zip(handle, handle[1:])}
    pairs |= {(handle[-1], v) for v in tip}
    if candy:
        pairs |= {(d + 1, d + 2), (d + 1, d + 3), (d + 2, d + 3)}
    pairs |= {(v, d + 4) for v in range(d + 4)}
    shape = build_shape([1] * (d + 5))
    colored = [(u, v, c if (u, v) in pairs or (v, u) in pairs
                else other_color(c))
               for u, v in shape.edges]
    return EdgeColoring.from_edges(shape, colored), shape.full_mask >> 1


@pytest.mark.parametrize("c", (RED, BLUE))
@pytest.mark.parametrize("candy", (False, True))
@pytest.mark.parametrize("d, r", [(d, r) for d in range(3, 7)
                                  for r in range((d + 2) // 2, d + 1)])
def test_the_eccentricity_skip_stops_next_to_a_far_vertex(d, r, candy, c):
    # The hub's ball fills the mask at radius r, which clears the hub's
    # radius-(d - r) ball; vertex 1, one step past it, is the lowest vertex
    # of eccentricity d + 1.  At r = (d + 1) / 2 one more step of clearing
    # would take every far vertex.
    chi, mask = _broom(d, r, candy, c)
    inside = set(bits_of(mask))
    ecc = {u: next(e for e in range(chi.n)
                   if _bfs_ball(chi, c, u, e, mask) == inside) for u in inside}
    assert ecc[0] == r and ecc[1] == d + 1 == max(ecc.values())
    assert 1 in _bfs_ball(chi, c, 0, d - r + 1, mask) - \
        _bfs_ball(chi, c, 0, d - r, mask)
    assert far_vertex_of(chi.adj[c], mask, d) == 1
    assert diameter_in_mask(chi, c, mask) == d + 1
    for e in range(d + 3):
        assert diameter_at_most(chi, c, mask, e) == (d + 1 <= e), e
        assert far_vertex_of(chi.adj[c], mask, e) == \
            min((u for u in inside if ecc[u] > e), default=None), e


def test_diameter_at_most_grows_no_sweep_below_d_3(rng, monkeypatch):
    # past the dominator scan the sweep could clear only each center at
    # d = 2, and keeping its balls made the surveys, which decide nearly
    # every mask at d = 2, slower; d = 2 runs the pair test, which grows
    # no ball at all
    def no_sweep(rows, allowed, d):
        raise AssertionError(f"_far_vertex at d = {d}")

    monkeypatch.setattr(graphs, "_far_vertex", no_sweep)
    for _ in range(300):
        chi = random_coloring(rng, rng.choice(([2, 2, 2, 2], [3, 3, 2],
                                                [5, 2, 2], [1] * 8)))
        c = rng.choice((RED, BLUE))
        mask = rng.getrandbits(chi.n)
        for d in (0, 1, 2):
            assert diameter_at_most(chi, c, mask, d) == \
                (diameter_in_mask(chi, c, mask) <= d)


def _dominated(chi, c, mask):
    return any(mask & ~chi.adj[c][u] == 1 << u for u in bits_of(mask))


@pytest.mark.parametrize("seed", range(4))
def test_diameter_at_most_2_matches_the_exact_diameter(seed):
    # past the dominator scan, d = 2 runs the pair test inside the mask;
    # the seeded masks reach it with both answers
    rng = random.Random(seed)
    reached = {False: 0, True: 0}
    for _ in range(400):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        while sum(sizes) > 12:
            sizes.pop()
        chi = random_coloring(rng, sizes)
        c = rng.choice((RED, BLUE))
        mask = rng.getrandbits(chi.n)
        got = diameter_at_most(chi, c, mask, 2)
        assert got == (diameter_in_mask(chi, c, mask) <= 2)
        if mask.bit_count() > 3 and not _dominated(chi, c, mask):
            reached[got] += 1
    assert reached[False] and reached[True]


def test_a_pair_meeting_only_outside_the_mask_fails_at_d_2():
    # on K_6, red inside {0, 1, 2, 3} is the path 0-2-3-1, which no vertex
    # dominates; 0 and 1 share only vertex 4, red to all, outside the mask
    shape = build_shape([1] * 6)
    red = {(0, 2), (2, 3), (1, 3), *((v, 4) for v in (0, 1, 2, 3)), (4, 5)}
    chi = EdgeColoring.from_edges(shape, [(u, v, RED if (u, v) in red else BLUE)
                                          for u, v in shape.edges])
    mask = 0b1111
    assert chi.adj[RED][0] & chi.adj[RED][1] == 1 << 4
    assert not graphs._pairs_meet(chi.adj[RED], mask)
    assert not diameter_at_most(chi, RED, mask, 2)
    assert diameter_at_most(chi, RED, mask, 3)
    assert graphs._pairs_meet(chi.adj[RED], mask | 1 << 4)
    assert diameter_at_most(chi, RED, mask | 1 << 4, 2)


@pytest.mark.parametrize("seed", range(3))
def test_d_2_checks_grow_no_ball(seed, monkeypatch):
    # the pair test decides d = 2 with ANDs alone: with _grow raising, the
    # masked check past the one-ball path (masks of 4 or more vertices) and
    # the spanning rung still give the exact verdicts, taken beforehand
    rng = random.Random(seed)
    cases = []
    for _ in range(300):
        chi = random_coloring(rng, rng.choice(([2, 2, 2, 2], [3, 3, 2],
                                                [5, 2, 2], [3, 2, 1],
                                                [1] * 7, [4, 4, 3])))
        c = rng.choice((RED, BLUE))
        mask = rng.getrandbits(chi.n) | 0b1111
        cases.append((chi, c, mask, diameter_in_mask(chi, c, mask) <= 2,
                      diameter_in_mask(chi, c, chi.shape.full_mask) <= 2))

    def no_ball(rows, frontier):
        raise AssertionError("_grow at d = 2")

    monkeypatch.setattr(graphs, "_grow", no_ball)
    seen = {False: 0, True: 0}
    for chi, c, mask, want, spans in cases:
        assert diameter_at_most(chi, c, mask, 2) == want
        assert ladder._spanning_diameter(chi, c, 2) == spans
        seen[want] += 1
    assert seen[False] and seen[True]


@st.composite
def colorings_up_to_12(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)
                 .filter(lambda s: sum(s) <= 12))
    shape = build_shape(sizes)
    full = (1 << shape.m) - 1
    return EdgeColoring(shape, draw(st.one_of(st.integers(0, full),
                                              st.sampled_from((0, full)))))


@settings(deadline=None, max_examples=300)
@given(colorings_up_to_12(), st.sampled_from((RED, BLUE)), st.integers(0, 4))
def test_far_masks_match_the_distance_matrix(chi, c, d):
    dist = chi.distances(c)
    want = tuple(mask_of(v for v in range(chi.n) if v != u and dist[u][v] > d)
                 for u in range(chi.n))
    assert far_masks(chi, c, d) == want


# ---------------------------------------------------------------------------
# components and bi-distance cells
# ---------------------------------------------------------------------------

def test_bilayer_partition_examples():
    g3 = build_shape([2, 2, 2])
    lx, lxp = bilayer_partition(EdgeColoring.all_same(g3, BLUE), 0)
    assert lx[1] & lxp[1] == mask_of({2, 3, 4, 5})
    lx, lxp = bilayer_partition(EdgeColoring.all_same(g3, RED), 0)
    assert lx[3] & lxp[3] == mask_of({2, 3, 4, 5})


def test_bilayer_partition_matches_bfs(rng):
    for _ in range(20):
        chi = random_coloring(rng, [2] * 5)
        x = rng.randrange(chi.n)
        xp = chi.shape.clone_of(x)
        lx, lxp = bilayer_partition(chi, x)
        assert lx[0] is None and lxp[0] is None
        cells = {(i, j): lx[i] & lxp[j] for i in (1, 2, 3) for j in (1, 2, 3)}
        # the nine cells are disjoint and tile V minus the pair
        union = 0
        for mask in cells.values():
            assert union & mask == 0
            union |= mask
        assert union == chi.shape.full_mask & ~(1 << x | 1 << xp)
        for v in range(chi.n):
            if v in (x, xp):
                continue
            i = min(color_distance(chi, BLUE, x, v), 3)
            j = min(color_distance(chi, BLUE, xp, v), 3)
            assert (cells[(i, j)] >> v) & 1


def test_component_of(rng):
    chi = random_coloring(rng, [2, 2, 1])
    for c in (RED, BLUE):
        dist = chi.distances(c)
        for v in range(chi.n):
            mask = component_of(chi.adj[c], v)
            assert mask == mask_of(u for u in range(chi.n) if dist[v][u] < INF)
            # closed under color-c adjacency
            for u in bits_of(mask):
                assert chi.adj[c][u] & ~mask == 0


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(colorings(), st.booleans())
def test_coloring_json_roundtrip(chi, compact):
    obj = coloring_to_json(chi, compact=compact)
    back = coloring_from_json(obj)
    assert back == chi


@st.composite
def file_colorings(draw):
    """(parts, file edges, bits): parts not in canonical order, the file's
    cross-part pairs in its own vertex numbering, and one bit per pair."""
    parts = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)
                 .filter(lambda s: s != sorted(s, reverse=True)))
    part = [p for p, a in enumerate(parts) for _ in range(a)]
    edges = [(u, v) for u in range(len(part)) for v in range(u + 1, len(part))
             if part[u] != part[v]]
    return parts, edges, draw(st.integers(0, (1 << len(edges)) - 1))


@settings(deadline=None, max_examples=200)
@given(file_colorings())
def test_coloring_json_reorders_parts(file_coloring):
    parts, edges, bits = file_coloring
    from_bits = coloring_from_json({"parts": parts, "bits": f"{bits:x}"})
    from_edges = coloring_from_json({"parts": parts, "edges": [
        [u, v, "blue" if (bits >> i) & 1 else "red"]
        for i, (u, v) in enumerate(edges)]})
    assert from_bits == from_edges
    assert from_bits.shape.part_sizes == tuple(sorted(parts, reverse=True))


def test_coloring_json_labels_and_errors():
    chi = EdgeColoring.all_same(build_shape([2, 1]), RED)
    obj = coloring_to_json(chi, labels={"x": 0})
    assert obj["labels"] == {"x": 0}
    with pytest.raises(InvalidShape):
        coloring_from_json({"parts": [2, 1]})  # neither edges nor bits
    with pytest.raises(InvalidShape):
        coloring_from_json({"edges": []})
    with pytest.raises(InvalidShape):
        coloring_from_json({"parts": [2, 1], "bits": "ff"})  # too many bits
    # int(x, 16) takes each of these but "zz"
    for not_hex in ("zz", "-1", "+f", " f", "0xf", "f_f"):
        with pytest.raises(InvalidShape, match="must be a hex string"):
            coloring_from_json({"parts": [2, 1], "bits": not_hex})
    with pytest.raises(InvalidShape):
        coloring_from_json({"parts": [2, 1], "edges": [[0, 2], [1, 2]]})
    with pytest.raises(InvalidShape):
        coloring_from_json({"parts": [2, 1], "edges": [[0, 5, "red"]]})


@pytest.mark.parametrize("parts", [[2.5, 1], ["2", 1], [True, 1], "21", 3])
def test_coloring_json_needs_integer_parts(parts):
    with pytest.raises(InvalidShape):
        coloring_from_json({"parts": parts, "bits": "0"})


def test_mask_helpers():
    assert mask_of([0, 3]) == 0b1001
    assert list(bits_of(0b10110)) == [1, 2, 4]
    assert other_color(RED) == BLUE and other_color(BLUE) == RED
