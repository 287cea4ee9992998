"""Cover certificates and their independent verification."""

import copy
import dataclasses
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_coloring, two_star_pieces
from mpcover.covers import (COVERAGE_GAP, DIAMETER_EXCEEDED, DISCONNECTED,
                            TOO_MANY_SUBGRAPHS, Cover, MonoSubgraph,
                            Violation, certifies_masks, cover_from_json,
                            cover_from_masks, cover_to_json, make_cover,
                            subgraph_diameter, verify_cover)
from mpcover.errors import InvalidCover, InvalidVertex
from mpcover.graphs import (BLUE, INF, RED, EdgeColoring, bits_of,
                            build_shape)
from mpcover.ladder import find_cover


def mask_pieces(cover):
    """A cover's subgraphs as the (color, mask) pieces ``certifies_masks`` reads."""
    return [(g.color, g.mask) for g in cover]


def oracle_diameter(chi, c, vs):
    """Test-local diameter oracle: dict BFS from every vertex of the set."""
    vs = sorted(vs)
    best = 0
    for src in vs:
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in vs:
                    if v in dist or chi.shape.part_id[u] == chi.shape.part_id[v]:
                        continue
                    if chi.color_of(u, v) == c:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) < len(vs):
            return INF
        best = max(best, max(dist.values()))
    return best


def test_make_cover_drops_empty_parts():
    cover = make_cover((RED, [0, 1]), (BLUE, []))
    assert len(cover) == 1
    with pytest.raises(InvalidCover):
        MonoSubgraph(RED, frozenset())


def test_cover_from_masks_keeps_order_and_drops_empty_masks():
    cover = cover_from_masks([(BLUE, 0b1010), (RED, 0), (RED, 0b1)])
    assert cover == make_cover((BLUE, [1, 3]), (RED, [0]))


def test_two_stars_cover_a_singleton_part(rng):
    shape = build_shape([3, 1, 1])
    for _ in range(5):
        chi = EdgeColoring(shape, rng.getrandbits(shape.m))
        # vertex 3 is a part of its own
        cover = cover_from_masks(two_star_pieces(chi, 3))
        assert verify_cover(chi, cover, 2, 2) is None


def test_violation_kinds():
    chi = EdgeColoring.all_same(build_shape([2, 2]), RED)
    gap = verify_cover(chi, make_cover((RED, [0, 2, 3])), 2, 2)
    assert gap.kind == COVERAGE_GAP and gap.witness == (1,)

    # 0 and 1 share a part: no red path inside {0, 1}
    disc = verify_cover(chi, make_cover((RED, [0, 1]), (RED, [2, 3])), 2, 2)
    assert disc.kind == DISCONNECTED and disc.subgraph_index == 0

    # 0-2-1 is the only red route within {0, 1, 2}
    diam = verify_cover(chi, make_cover((RED, [0, 1, 2]), (RED, [3])), 1, 2)
    assert diam.kind == DIAMETER_EXCEEDED and diam.witness == (2, 1)

    many = verify_cover(
        chi, make_cover((RED, [0]), (RED, [1]), (RED, [2, 3])), 2, 2)
    assert many.kind == TOO_MANY_SUBGRAPHS
    assert "TooManySubgraphs" in many.describe()


def test_certifies_on_each_violation_kind():
    chi = EdgeColoring.all_same(build_shape([2, 2]), RED)

    def certifies(cover, d, t):
        return certifies_masks(chi, mask_pieces(cover), d, t)

    assert certifies(make_cover((RED, range(4))), 2, 1)
    assert not certifies(make_cover((RED, [0, 2, 3])), 2, 2)  # gap
    assert not certifies(make_cover((RED, [0, 1]), (RED, [2, 3])), 2, 2)
    assert not certifies(make_cover((RED, [0, 1, 2]), (RED, [3])), 1, 2)
    assert not certifies(make_cover((RED, [0]), (RED, [1]), (RED, [2, 3])), 2, 2)


@st.composite
def shapes_up_to_ten(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    while sum(sizes) > 10:
        sizes.pop()
    return build_shape(sizes)


@settings(deadline=None, max_examples=400)
@given(shapes_up_to_ten(), st.data(), st.integers(0, 4), st.integers(1, 3))
def test_certifies_agrees_with_verify_cover(shape, data, d, t):
    # random vertex sets make disconnected, too-wide and gap-leaving pieces;
    # the whole vertex set is drawn often enough to give passing covers too
    chi = EdgeColoring(shape, data.draw(st.integers(0, (1 << shape.m) - 1)))
    masks = st.one_of(st.just(shape.full_mask), st.integers(1, shape.full_mask),
                      st.just(0))
    pieces = data.draw(st.lists(st.tuples(st.sampled_from((RED, BLUE)), masks),
                                min_size=1, max_size=3))
    cover = make_cover(*((c, bits_of(m)) for c, m in pieces))
    certified = certifies_masks(chi, mask_pieces(cover), d, t)
    assert certified == (verify_cover(chi, cover, d, t) is None)
    if len(pieces) <= t:
        # an empty piece passes as if make_cover had dropped it
        assert certifies_masks(chi, pieces, d, t) == certified


def reference_verify(chi, cover, d, t):
    """Test-local verify_cover that takes every piece's exact diameter."""
    if len(cover) > t:
        return Violation(TOO_MANY_SUBGRAPHS, None, (len(cover), t))
    covered = set()
    for i, g in enumerate(cover):
        diam = oracle_diameter(chi, g.color, g.vertices)
        if diam >= INF:
            return Violation(DISCONNECTED, i, tuple(sorted(g.vertices))[:2])
        if diam > d:
            return Violation(DIAMETER_EXCEEDED, i, (diam, d))
        covered |= g.vertices
    missing = sorted(set(range(chi.n)) - covered)
    return Violation(COVERAGE_GAP, None, (missing[0],)) if missing else None


@st.composite
def covers_with_stars(draw):
    """(chi, cover): pieces are stars (a center with some of its same-color
    neighbors, so dominated), random vertex sets, or the whole vertex set."""
    shape = draw(shapes_up_to_ten())
    chi = EdgeColoring(shape, draw(st.integers(0, (1 << shape.m) - 1)))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.sampled_from((RED, BLUE)))
        kind = draw(st.sampled_from(("star", "random", "full")))
        if kind == "star":
            u = draw(st.integers(0, shape.n - 1))
            mask = (1 << u) | (chi.adj[c][u]
                               & draw(st.integers(0, shape.full_mask)))
        elif kind == "random":
            mask = draw(st.integers(1, shape.full_mask))
        else:
            mask = shape.full_mask
        pieces.append((c, bits_of(mask)))
    return chi, make_cover(*pieces)


@settings(deadline=None, max_examples=400)
@given(covers_with_stars(), st.integers(0, 4), st.integers(1, 3))
def test_verify_cover_matches_exact_diameters(chi_cover, d, t):
    chi, cover = chi_cover
    assert verify_cover(chi, cover, d, t) == reference_verify(chi, cover, d, t)


def test_mask_is_not_a_field():
    g = MonoSubgraph(RED, frozenset({0, 3}))
    assert g.mask == 0b1001
    assert g == MonoSubgraph(RED, frozenset({3, 0}))
    assert hash(g) == hash(MonoSubgraph(RED, frozenset({0, 3})))
    assert cover_to_json(Cover((g,))) == {
        "subgraphs": [{"color": "red", "vertices": [0, 3]}]}


def test_mask_stays_outside_the_fields():
    assert [f.name for f in dataclasses.fields(MonoSubgraph)] == ["color",
                                                                  "vertices"]
    g = MonoSubgraph(RED, frozenset({0, 3}))
    h = MonoSubgraph(RED, frozenset({0, 3}))
    object.__setattr__(h, "mask", 0b111)  # a different mask is not seen
    assert g == h and hash(g) == hash(h)
    assert cover_to_json(Cover((g,))) == cover_to_json(Cover((h,)))


@pytest.mark.parametrize("bad", [-1, 4, 10 ** 18], ids=["negative", "n", "huge"])
def test_hostile_vertex_ids_raise_invalid_vertex(bad):
    chi = EdgeColoring.all_same(build_shape([2, 2]), RED)
    g = MonoSubgraph(RED, frozenset({0, bad}))
    assert g.mask == (0b10001 if bad == 4 else -1)  # no 10**18-bit mask
    cover = Cover((MonoSubgraph(RED, frozenset(range(4))), g))
    message = re.escape(f"vertex {bad!r} outside 0..3")
    with pytest.raises(InvalidVertex, match=message):
        verify_cover(chi, cover, 2, 2)
    with pytest.raises(InvalidVertex, match=message):
        subgraph_diameter(chi, g)
    assert not certifies_masks(chi, mask_pieces(cover), 2, 2)


@pytest.mark.parametrize("bad", [True, False], ids=["true", "false"])
def test_bool_vertex_ids_raise_invalid_vertex(bad):
    # a bool is an int to isinstance, yet no shape has it as a vertex id
    chi = EdgeColoring.all_same(build_shape([2, 2]), RED)
    g = MonoSubgraph(RED, frozenset({bad, 2}))
    assert g.mask == -1
    cover = Cover((MonoSubgraph(RED, frozenset(range(4))), g))
    message = re.escape(f"vertex {bad!r} outside 0..3")
    with pytest.raises(InvalidVertex, match=message):
        verify_cover(chi, cover, 2, 2)
    with pytest.raises(InvalidVertex, match=message):
        subgraph_diameter(chi, g)
    with pytest.raises(InvalidVertex, match=message):
        chi.shape.check_vertex(bad)
    assert not certifies_masks(chi, mask_pieces(cover), 2, 2)


def test_a_bool_id_cover_is_refused_as_it_is_written():
    # the JSON form of a bool id is refused on reading, so verify refuses it
    chi = EdgeColoring.all_same(build_shape([2, 2]), RED)
    cover = make_cover((RED, [True, 2]))
    with pytest.raises(InvalidVertex, match="vertex True outside 0..3"):
        verify_cover(chi, cover, 2, 2)
    with pytest.raises(InvalidCover):
        cover_from_json(cover_to_json(cover))


# Piece lists for the lazy-vertex-set contract: one and two pieces, an
# empty mask to drop, and pieces that fail each way on a [3, 2, 2] coloring.
MASK_PIECES = [
    [(RED, 0b1111111)],
    [(BLUE, 0b1010), (RED, 0), (RED, 0b1)],
    [(RED, 0b0011101), (BLUE, 0b1100011)],
    [(BLUE, 0b1000001), (RED, 0b0111110)],
    [(RED, 0b1), (BLUE, 0b10), (RED, 0b100)],
]


def _eager(pieces):
    return make_cover(*((c, list(bits_of(mask))) for c, mask in pieces))


@pytest.mark.parametrize("pieces", MASK_PIECES)
def test_cover_from_masks_reads_as_make_cover(pieces):
    eager = _eager(pieces)
    # a fresh cover for each reader, so none sees a set another one built
    assert cover_from_masks(pieces) == eager
    assert hash(cover_from_masks(pieces)) == hash(eager)
    assert repr(cover_from_masks(pieces)) == repr(eager)
    assert cover_to_json(cover_from_masks(pieces)) == cover_to_json(eager)
    assert pickle.loads(pickle.dumps(cover_from_masks(pieces))) == eager
    assert copy.deepcopy(cover_from_masks(pieces)) == eager
    for g, h in zip(cover_from_masks(pieces), eager):
        assert dataclasses.fields(g) == dataclasses.fields(h)
        assert [f.name for f in dataclasses.fields(g)] == ["color", "vertices"]
        assert (g.color, g.mask, g.vertices) == (h.color, h.mask, h.vertices)


def test_a_passing_verify_builds_no_vertex_set(rng):
    found = 0
    for _ in range(40):
        chi = random_coloring(rng, [3, 2, 2])
        cover = find_cover(chi, 2, 2)  # verified once on the way out
        if cover is None:
            continue
        found += 1
        assert verify_cover(chi, cover, 2, 2) is None
        assert all("vertices" not in vars(g) for g in cover)
    assert found


def test_cover_from_masks_fails_verify_as_make_cover(rng):
    kinds = set()
    for _ in range(20):
        chi = random_coloring(rng, [3, 2, 2])
        for pieces in MASK_PIECES:
            for d, t in ((0, 2), (1, 2), (1, 3), (2, 1), (2, 2)):
                got = verify_cover(chi, cover_from_masks(pieces), d, t)
                assert got == verify_cover(chi, _eager(pieces), d, t)
                kinds.add(got and got.kind)
    assert kinds == {None, COVERAGE_GAP, DISCONNECTED, DIAMETER_EXCEEDED,
                     TOO_MANY_SUBGRAPHS}


def test_cover_from_masks_names_an_outside_vertex():
    chi = EdgeColoring.all_same(build_shape([2, 2]), RED)
    pieces = [(RED, 0b1111), (BLUE, 0b1000000001)]
    for cover in (cover_from_masks(pieces), _eager(pieces)):
        with pytest.raises(InvalidVertex, match="vertex 9 outside 0..3"):
            verify_cover(chi, cover, 2, 2)


# Shapes of at most 12 vertices for the two forms of verify_cover.
PIECE_SHAPES = ([2, 1], [2, 2, 1], [3, 2, 2], [2, 2, 2, 2], [5, 2, 2],
                [4, 3, 2], [3, 3, 3, 3])


def _random_pieces(rng, chi):
    """0 to 3 (color, mask) pieces: empty, full, random masks and stars."""
    full = chi.shape.full_mask
    pieces = []
    for _ in range(rng.randint(0, 3)):
        c, u = rng.choice((RED, BLUE)), rng.randrange(chi.n)
        star = chi.adj[c][u] | 1 << u
        pieces.append((c, rng.choice((0, full, rng.getrandbits(chi.n), star,
                                      full & ~star))))
    return tuple(pieces)


def test_verify_cover_reads_pieces_as_their_cover(rng):
    # the ladder hands verify_cover (color, mask) pieces: each verdict, with
    # its kind, index and witness, is the one for the cover built from them
    kinds = set()
    for _ in range(400):
        chi = random_coloring(rng, rng.choice(PIECE_SHAPES))
        pieces = _random_pieces(rng, chi)
        cover = cover_from_masks(pieces)
        for d in range(5):
            for t in (1, 2):
                got = verify_cover(chi, pieces, d, t)
                assert got == verify_cover(chi, cover, d, t), (chi, pieces)
                kinds.add(got and got.kind)
    assert kinds == {None, COVERAGE_GAP, DISCONNECTED, DIAMETER_EXCEEDED,
                     TOO_MANY_SUBGRAPHS}


def test_a_piece_past_n_names_its_lowest_outside_vertex(rng):
    for _ in range(60):
        chi = random_coloring(rng, rng.choice(PIECE_SHAPES))
        outside = rng.getrandbits(4) << chi.n | 1 << rng.randrange(chi.n,
                                                                   chi.n + 4)
        pieces = ((BLUE, outside | 1), (RED, chi.shape.full_mask))
        lowest = (outside & -outside).bit_length() - 1
        message = re.escape(f"vertex {lowest} outside 0..{chi.n - 1}")
        for form in (pieces, cover_from_masks(pieces)):
            with pytest.raises(InvalidVertex, match=message):
                verify_cover(chi, form, 2, 2)


def test_verify_is_deterministic_first_fail():
    # subgraph count is checked before anything else
    chi = EdgeColoring.all_same(build_shape([2, 2]), RED)
    cover = make_cover((RED, [0]), (RED, [1]), (RED, [2]))
    assert verify_cover(chi, cover, 2, 3).kind == COVERAGE_GAP
    assert verify_cover(chi, cover, 2, 2).kind == TOO_MANY_SUBGRAPHS


def test_ok_is_monotone_in_d_and_t(rng):
    checked = 0
    while checked < 15:
        chi = random_coloring(rng, rng.choice([[2, 2, 1], [2, 2, 2], [3, 2, 1]]))
        cover = find_cover(chi, 2, 2)
        if cover is None:
            continue
        checked += 1
        for d in (2, 3, 4):
            for t in (2, 3, 5):
                assert verify_cover(chi, cover, d, t) is None


def test_subgraph_diameter_against_oracle(rng):
    for _ in range(30):
        chi = random_coloring(rng, [3, 2, 2])
        vs = frozenset(v for v in range(chi.n) if rng.random() < 0.6) or frozenset({0})
        for c in (RED, BLUE):
            got = subgraph_diameter(chi, MonoSubgraph(c, vs))
            assert got == oracle_diameter(chi, c, vs)


def test_singletons_have_diameter_zero(rng):
    chi = random_coloring(rng, [2, 2])
    assert subgraph_diameter(chi, MonoSubgraph(BLUE, frozenset({3}))) == 0


def test_double_stars_have_diameter_at_most_three(rng):
    # all edges at two adjacent same-color centers: never worse than 3
    tried = 0
    while tried < 40:
        chi = random_coloring(rng, [3, 3, 2])
        u, v = rng.randrange(chi.n), rng.randrange(chi.n)
        if chi.shape.part_id[u] == chi.shape.part_id[v]:
            continue
        c = chi.color_of(u, v)
        vs = {u, v} | set(bits_of(chi.adj[c][u])) | set(bits_of(chi.adj[c][v]))
        assert subgraph_diameter(chi, MonoSubgraph(c, frozenset(vs))) <= 3
        tried += 1


def test_enlarging_a_subgraph_never_stretches_distances(rng):
    # the normal-form justification: distances in the color graph induced on
    # T >= S are pointwise <= those induced on S
    for _ in range(20):
        chi = random_coloring(rng, [2, 2, 2])
        small = {v for v in range(chi.n) if rng.random() < 0.5} or {0}
        big = small | {v for v in range(chi.n) if rng.random() < 0.5}
        for c in (RED, BLUE):
            for s in small:
                inner = _dists_within(chi, c, small, s)
                outer = _dists_within(chi, c, big, s)
                for v in small:
                    assert outer.get(v, INF) <= inner.get(v, INF)


def _dists_within(chi, c, vs, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in vs:
                if v in dist or chi.shape.part_id[u] == chi.shape.part_id[v]:
                    continue
                if chi.color_of(u, v) == c:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


@settings(deadline=None)
@given(st.integers(0, (1 << 12) - 1))
def test_cover_json_roundtrip(bits):
    chi = EdgeColoring(build_shape([2, 2, 2]), bits)
    cover = make_cover((RED, range(chi.n)), (BLUE, [0, 3]))
    assert cover_from_json(cover_to_json(cover)).subgraphs == cover.subgraphs


def test_cover_json_rejects_junk():
    with pytest.raises(InvalidCover):
        cover_from_json({"not": "a cover"})
    with pytest.raises(InvalidCover):
        cover_from_json({"subgraphs": [{"color": "red", "vertices": []}]})
    with pytest.raises(InvalidCover):
        cover_from_json({"subgraphs": [{"vertices": [0, 1]}]})
    with pytest.raises(InvalidCover):
        cover_from_json({"subgraphs": [{"color": 7, "vertices": [0]}]})


@pytest.mark.parametrize("vertices", ["02", [0, 2.0], [0, True], {"0": 1}, 2])
def test_cover_json_needs_an_integer_list(vertices):
    with pytest.raises(InvalidCover):
        cover_from_json({"subgraphs": [{"color": "red", "vertices": vertices}]})
