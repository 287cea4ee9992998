"""Exact cover decisions, pruning soundness, and the shape survey engine."""

import ast
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from concurrent.futures import Future
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (decide_digest, prune_digest, random_coloring,
                      two_bag_digest, two_star_pieces)
from test_graphs import colorings_up_to_12
from mpcover import ladder, search
from mpcover.covers import (Cover, certifies_masks, cover_from_masks,
                            cover_to_json, make_cover, verify_cover)
from mpcover.errors import (CapExceeded, InvalidParameter, MpcoverError,
                            Unsupported, Unwritable)
from mpcover.families import (check_monotone_extension, classify_tripartite,
                              gen_thm31)
from mpcover.graphs import (BLUE, RED, EdgeColoring, bits_of, build_shape,
                            color_distance, diameter_at_most,
                            diameter_in_mask, far_masks)
from mpcover.ladder import (cover_exists, find_cover, prune_with_constructions,
                            survivor_property_violations, two_bag_cover)
from mpcover.search import (MAX_NOTES, SearchResult, compute_D, gk_survey,
                            keep_notes, load_checkpoint, save_checkpoint)
from mpcover.symmetry import canonical_classes, symmetry_group


def oracle_cover_exists(chi, t, d):
    """Brute force over bag masks and color pairs; independent of the search."""
    n = chi.n
    full = (1 << n) - 1
    diam = {}

    def dm(c, mask):
        if (c, mask) not in diam:
            diam[(c, mask)] = diameter_in_mask(chi, c, mask)
        return diam[(c, mask)]

    if t == 1:
        return any(dm(c, full) <= d for c in (RED, BLUE))
    for c1 in (RED, BLUE):
        for c2 in (RED, BLUE):
            for s1 in range(1, full + 1):
                if dm(c1, s1) > d:
                    continue
                need = full & ~s1
                for s2 in range(1, full + 1):
                    if s2 & need == need and dm(c2, s2) <= d:
                        return True
    return False


# ---------------------------------------------------------------------------
# cover_exists / find_cover
# ---------------------------------------------------------------------------

def test_parameter_guards(rng):
    chi = random_coloring(rng, [2, 2])
    with pytest.raises(Unsupported):
        cover_exists(chi, 3, 2)
    with pytest.raises(InvalidParameter):
        cover_exists(chi, 0, 2)
    with pytest.raises(InvalidParameter):
        cover_exists(chi, 2, -1)
    for t, d in ((True, 2), (2, True), (2, False), (2.0, 2), (2, 2.5)):
        with pytest.raises(InvalidParameter):
            find_cover(chi, t, d)


def test_single_bag_is_the_spanning_diameter():
    allred = EdgeColoring.all_same(build_shape([2, 2, 2]), RED)
    assert cover_exists(allred, 1, 2)
    assert not cover_exists(allred, 1, 1)


def test_matches_brute_force_oracle(rng):
    # every rung, the counting bound, tiny and the t = 1 exit included
    for sizes in ([1, 1], [2, 1], [2, 1, 1], [2, 2, 1], [3, 2, 1], [2, 2, 2]):
        for _ in range(12):
            chi = random_coloring(rng, sizes)
            for t in (1, 2):
                for d in range(4):
                    want = oracle_cover_exists(chi, t, d)
                    assert cover_exists(chi, t, d) == want, (
                        sizes, chi.bits, t, d)


def test_found_covers_verify_and_none_means_none(rng):
    for _ in range(40):
        chi = random_coloring(rng, [2, 2, 2])
        cover = find_cover(chi, 2, 2)
        if cover is None:
            assert not oracle_cover_exists(chi, 2, 2)
        else:
            assert verify_cover(chi, cover, 2, 2) is None


def test_existence_is_monotone_in_d(rng):
    for _ in range(20):
        chi = random_coloring(rng, [3, 2, 2])
        feasible = [cover_exists(chi, 2, d) for d in range(5)]
        assert feasible == sorted(feasible)  # False... then True...


def test_orbit_invariance_of_existence(rng):
    shape = build_shape([2, 2, 2])
    for _ in range(10):
        chi = random_coloring(rng, [2, 2, 2])
        base = cover_exists(chi, 2, 2)
        assert cover_exists(chi.swap_colors(), 2, 2) == base
        assert cover_exists(chi.permute([1, 0, 3, 2, 4, 5]), 2, 2) == base


def test_no_diameter_one_cover_when_n_exceeds_two_k(rng):
    # the oracle behind the ladder's counting bound: a diameter-1 piece is a
    # clique, so it holds at most one vertex per part
    for sizes in ([3, 2, 2], [4, 2, 1], [3, 3, 2]):
        for _ in range(10):
            assert two_bag_cover(random_coloring(rng, sizes), 1) is None
    allred = EdgeColoring.all_same(build_shape([3, 2, 2]), RED)
    assert two_bag_cover(allred, 1) is None


def test_two_bag_matches_oracle_on_four_parts(rng):
    # [2,2,2,2] is the gk_survey(4) shape, where every class reaches the
    # exhaustive search at d = 1
    for sizes in ([2, 2, 2, 2], [2, 2, 1, 1]):
        shape = build_shape(sizes)
        chis = [random_coloring(rng, sizes) for _ in range(6)]
        chis += [EdgeColoring.all_same(shape, c) for c in (RED, BLUE)]
        for chi in chis:
            for d in (1, 2):
                pieces = two_bag_cover(chi, d)
                assert (pieces is not None) == oracle_cover_exists(chi, 2, d), \
                    (sizes, chi.bits, d)
                if pieces is not None:
                    assert verify_cover(chi, cover_from_masks(pieces), d, 2) is None


def test_two_bag_cover_leaves_no_reference_cycle(rng):
    # the recursive search is a closure that refers to itself through its
    # cell; left as it is, each call's closure, rows and coloring wait for
    # the cyclic collector instead of being freed on return
    chis = [random_coloring(rng, sizes)
            for sizes in ([5, 2, 2], [3, 3, 2]) for _ in range(20)]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for chi in chis:
            for d in (2, 3):
                two_bag_cover(chi, d)
        leaked = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert leaked == 0


def test_two_bag_search_ignores_bag_order(rng):
    # why _PAIR_ORDER holds (BLUE, RED) but not (RED, BLUE)
    failed = 0
    for sizes in ([2, 2, 1], [3, 2, 1], [2, 2, 2], [3, 2, 2], [2, 2, 1, 1]):
        for _ in range(12):
            chi = random_coloring(rng, sizes)
            for d in (1, 2, 3):
                far = (far_masks(chi, RED, d), far_masks(chi, BLUE, d))
                pop = [[mask.bit_count() for mask in masks] for masks in far]
                br = ladder._two_bag_pair(chi, d, BLUE, RED, far, pop)
                rb = ladder._two_bag_pair(chi, d, RED, BLUE, far, pop)
                assert (br is None) == (rb is None), (sizes, chi.bits, d)
                failed += br is None
    assert failed > 50


# sha256 of the two-bag output over every orbit leader
# (``conftest.two_bag_digest``), as a trusted commit's search produced it;
# tests/sweep_two_bag.py holds the same pins for two larger shapes.  Never
# regenerate these to make a failing run pass.
@pytest.mark.parametrize("sizes, d, sha256", [
    pytest.param(
        (3, 2, 2), 1,
        "96a138e81675a3bb3c7e57753117f6506f725b7b5584b53e75e18f0381fcd384",
        id="3-2-2-d1"),
    pytest.param(
        (3, 2, 2), 2,
        "fa620840ea106f96526df9287bc746e5dfd1425a947e3f286d5be10e7e734942",
        id="3-2-2-d2"),
    pytest.param(
        (3, 2, 2), 3,
        "1bd6386eaafd56a68107af632631f79c563c041f14460dbba026903f8c01279d",
        id="3-2-2-d3"),
    pytest.param(
        (3, 3, 2), 1,
        "030163747cb6c44710be4ec83bc071822906f61711d80151ca5644a6c8a4796e",
        id="3-3-2-d1"),
    pytest.param(
        (3, 3, 2), 2,
        "d4901a3f3eb41ee1d299eae4fa6d98cf8f0fdb57497afdc7ddfaf3b248c71bfc",
        id="3-3-2-d2"),
    pytest.param(
        (3, 3, 2), 3,
        "69cd2411aad2d4e4e9090207c982f088b0cb5804353f921c0a4e830d0bc802bf",
        id="3-3-2-d3"),
])
def test_two_bag_output_matches_pinned_digest(sizes, d, sha256):
    assert two_bag_digest(sizes, d) == sha256


# sha256 of the prune rules' (label, pieces) over every orbit leader, or over
# 2 000 seeded colorings of [2,2,2,2,2] (``conftest.prune_digest``), as a
# trusted commit's rules produced them.  The rule order, the orientation
# order inside each rule and every piece are pinned.  Never regenerate these
# to make a failing run pass.
@pytest.mark.parametrize("sizes, d, samples, sha256", [
    pytest.param(
        (5, 2, 2), 2, None,
        "254b616f21227a82a7b11b17c8e1f3a07acab0e156384fe288669d0420f7b559",
        id="5-2-2-d2"),
    pytest.param(
        (5, 2, 2), 3, None,
        "a09f7fc382ffde34f3702bcd7a8d5dbb3cc720baef47b4bad382271bf2e7b874",
        id="5-2-2-d3"),
    pytest.param(
        (4, 2, 2), 2, None,
        "766e2bfb03b3ddc1dad47999754e6bc364a248db511731a1394c7ff38974f1d6",
        id="4-2-2-d2"),
    pytest.param(
        (4, 2, 2), 3, None,
        "f67deb2a0e433be9354fa761d16c66e8462e974caf324fc41e8444fe9fad5dbb",
        id="4-2-2-d3"),
    pytest.param(
        (2, 2, 2, 2), 2, None,
        "35e38de76edade5da58fc4787898763f1c6418f437460dfb83abebf567ecae29",
        id="2-2-2-2-d2"),
    pytest.param(
        (2, 2, 2, 2), 3, None,
        "6dd23f5867b7b24986633c38f5a603eb1b18568a3dec59d3e7a879e17d782d7f",
        id="2-2-2-2-d3"),
    pytest.param(
        (2, 2, 2, 2, 2), 2, 2000,
        "cc4fa5f4cf5c28f142b27cba7e158159454729a91b2b331bcce184a570725edf",
        id="2x5-random-d2"),
])
def test_prune_rules_output_matches_pinned_digest(sizes, d, samples, sha256):
    assert prune_digest(sizes, d, samples, seed=1) == sha256


# sha256 of the ladder's (label, pieces) over every orbit leader, with the
# prune rules on and off (``conftest.decide_digest``), as a trusted commit's
# ladder decided them; tests/sweep_ladder.py holds the same pins for two
# larger shapes.  Never regenerate these to make a failing run pass.
@pytest.mark.parametrize("sizes, d, prune, sha256", [
    pytest.param(
        (4, 2, 2), 2, True,
        "2ac7690813e07e6b130f0dd86d96ae9e554804898c2dfba78e82db8aeaf84e74",
        id="4-2-2-d2-prune"),
    pytest.param(
        (4, 2, 2), 2, False,
        "23292e83a594efa08cb95eea7b0e1c592efe2c793e24618a0245742b971129fe",
        id="4-2-2-d2"),
    pytest.param(
        (4, 2, 2), 3, True,
        "c1ba36c7420d48ff00181998cacb0ab921eaa5a9a05a53a64327d4f9bf1d3899",
        id="4-2-2-d3-prune"),
    pytest.param(
        (4, 2, 2), 3, False,
        "40c7789f5d9beb8d76e282f282acb6a1e2f605b2d7b3220c00369e5444fed9fb",
        id="4-2-2-d3"),
    pytest.param(
        (2, 2, 2, 1), 2, True,
        "0f477f1d424efec172c3fc664a32104a7eaec6fdd7b497a70e02c98d0d5d8cee",
        id="2-2-2-1-d2-prune"),
    pytest.param(
        (2, 2, 2, 1), 2, False,
        "0f477f1d424efec172c3fc664a32104a7eaec6fdd7b497a70e02c98d0d5d8cee",
        id="2-2-2-1-d2"),
    pytest.param(
        (2, 2, 2, 1), 3, True,
        "89ad1fab24e8250422a647cdcb69e48263a5bc752fc9e8e5de8bb203f1bcccc6",
        id="2-2-2-1-d3-prune"),
    pytest.param(
        (2, 2, 2, 1), 3, False,
        "89ad1fab24e8250422a647cdcb69e48263a5bc752fc9e8e5de8bb203f1bcccc6",
        id="2-2-2-1-d3"),
])
def test_ladder_decisions_match_pinned_digest(sizes, d, prune, sha256):
    assert decide_digest(sizes, d, prune) == sha256


def test_no_diameter_one_cover_when_a_part_exceeds_t(rng):
    # the exact counting bound: t cliques hold at most t vertices of a part,
    # on shapes where n <= t·k, so only this bound rules d = 1 out
    for sizes in ([3, 1, 1, 1], [3, 2, 1, 1]):
        shape = build_shape(sizes)
        assert shape.n <= 2 * shape.k
        chis = [random_coloring(rng, sizes) for _ in range(8)]
        chis += [EdgeColoring.all_same(shape, c) for c in (RED, BLUE)]
        for chi in chis:
            assert not oracle_cover_exists(chi, 2, 1), chi.bits
            assert not cover_exists(chi, 2, 1)


def test_counting_bound_skips_the_two_bag_search(rng, monkeypatch):
    def fail(*args):
        raise AssertionError("a d = 1 rung ran past the counting bound")

    # the clique-pair filter alone would also refute these, so it fails too
    monkeypatch.setattr(ladder, "_clique_pair_exists", fail)
    monkeypatch.setattr(ladder, "two_bag_cover", fail)
    for sizes in ([3, 1, 1, 1], [3, 2, 1, 1]):
        for _ in range(8):
            chi = random_coloring(rng, sizes)
            assert find_cover(chi, 2, 1) is None


# Shapes where the counting bounds leave d = 1 open, so the clique-pair
# filter runs: every part has at most two vertices.
CLIQUE_PAIR_SHAPES = ((2, 2, 2, 2), (2, 2, 2, 1), (2, 2, 1, 1), (2, 1, 1, 1),
                      (1, 1, 1, 1))


@st.composite
def d1_colorings(draw):
    """Random colorings, and colorings with two planted monochromatic cliques."""
    shape = build_shape(draw(st.sampled_from(CLIQUE_PAIR_SHAPES)))
    bits = draw(st.integers(0, (1 << shape.m) - 1))
    if draw(st.booleans()):
        # one vertex of each part to each side (a size-1 part picks a side)
        side = [0] * shape.n
        for p in range(shape.k):
            vs = list(shape.part_vertices(p))
            first = draw(st.integers(0, 1))
            for i, v in enumerate(vs):
                side[v] = first ^ i
        colors = (draw(st.sampled_from((RED, BLUE))),
                  draw(st.sampled_from((RED, BLUE))))
        for i, (u, v) in enumerate(shape.edges):
            if side[u] == side[v]:
                bits = bits & ~(1 << i) | (colors[side[u]] << i)
    return EdgeColoring(shape, bits)


@settings(deadline=None, max_examples=300)
@given(d1_colorings())
def test_clique_pair_filter_is_exact_at_d1(chi):
    want = oracle_cover_exists(chi, 2, 1)
    assert ladder._clique_pair_exists(chi) == want
    assert (two_bag_cover(chi, 1) is not None) == want


@settings(deadline=None, max_examples=200)
@given(colorings_up_to_12())
def test_spanning_rung_is_the_bounded_diameter(chi):
    full = chi.shape.full_mask
    for c in (RED, BLUE):
        diameter = diameter_in_mask(chi, c, full)
        for d in range(5):
            assert ladder._spanning_diameter(chi, c, d) == (diameter <= d)


def test_two_stars_cover_only_at_size_one_parts(rng):
    # the fact behind the ladder trying two stars only at size-1 parts
    for sizes in ([3, 2, 1], [2, 2, 1, 1], [5, 2, 2]):
        for _ in range(10):
            chi = random_coloring(rng, sizes)
            shape = chi.shape
            for u in range(chi.n):
                pieces = two_star_pieces(chi, u)
                if shape.part_sizes[shape.part_id[u]] == 1:
                    assert all(certifies_masks(chi, pieces, d, 2)
                               for d in (2, 3, 4))
                else:
                    assert not any(certifies_masks(chi, pieces, d, 2)
                                   for d in range(5))


def test_a_returned_cover_that_fails_verification_is_an_internal_error(
        rng, monkeypatch):
    chi = random_coloring(rng, [2, 2, 1])
    monkeypatch.setattr(ladder, "_late_rungs",
                        lambda *args: (((RED, 1),), "spanning"))
    # at d = 1 no rung runs before _late_rungs (two stars win at d >= 2)
    with pytest.raises(RuntimeError, match="CoverageGap") as err:
        find_cover(chi, 2, 1)
    assert not isinstance(err.value, MpcoverError)  # never a config error


def _recorded_verify(monkeypatch):
    """A list that collects (pieces, verdict) of each ``verify_cover`` call
    the ladder makes."""
    calls = []
    original = ladder.verify_cover

    def recorded(chi, pieces, d, t):
        violation = original(chi, pieces, d, t)
        calls.append((pieces, violation))
        return violation

    monkeypatch.setattr(ladder, "verify_cover", recorded)
    return calls


def test_one_passing_verify_cover_per_class(tmp_path, monkeypatch):
    # the ladder's rungs propose pieces, and each class's winner is verified
    # as pieces.  The construction generator drops the candidates with a gap
    # or a failing ring, so every call passes: one per class, on the very
    # tuple returned.  A hint that certifies is the same tuple in each class
    # it wins, so one tuple may be verified in two classes
    calls = _recorded_verify(monkeypatch)
    returned = []
    decide = search._decide

    def recorded(*args):
        pieces, label = decide(*args)
        if pieces is not None:
            returned.append(pieces)
        return pieces, label

    monkeypatch.setattr(search, "_decide", recorded)
    gk3 = str(tmp_path / "gk3.json")
    for survey in (lambda: compute_D([3, 2, 2]),
                   lambda: gk_survey(3, checkpoint_path=gk3)):
        calls.clear()
        returned.clear()
        result = survey()
        assert all(violation is None for _, violation in calls)
        assert len(calls) == len(returned) == result.classes > 0
        assert all(a is b for (a, _), b in zip(calls, returned))
    calls.clear()
    assert find_cover(gen_thm31(2), 2, 2) is None
    assert all(violation is not None for _, violation in calls)


def test_a_construction_candidate_that_fails_verify_cover_is_skipped(
        monkeypatch):
    chi, decided = _two_bag_pieces((3, 3, 2), 2)[0]  # no rung before wins
    full = chi.shape.full_mask
    wide = ((RED, full), (BLUE, full))  # covers V; no color spans at d = 2
    bad = [("clone-star", ((RED, 0), (BLUE, full))),  # an empty piece
           ("clone-star", ((RED, 1), (BLUE, full & ~3))),  # misses vertex 1
           ("far-clone", wide)]
    calls = _recorded_verify(monkeypatch)

    monkeypatch.setattr(ladder, "_prune_candidates",
                        lambda chi, d: iter(bad + [("near-clone", decided)]))
    pieces, label = ladder._decide(chi, 2, 2, True)
    assert label == "near-clone"
    assert pieces == decided
    # the empty piece and the gap never reach verify_cover; the wide one fails
    assert [violation is None for _, violation in calls] == [False, True]
    assert calls[-1][0] is pieces

    calls.clear()
    monkeypatch.setattr(ladder, "_prune_candidates",
                        lambda chi, d: iter(bad))
    pieces, label = ladder._decide(chi, 2, 2, True)
    assert label == "trichotomy"  # the later rungs give today's answer
    assert pieces == decided
    assert [violation is None for _, violation in calls] == [False, True]


def test_every_class_is_decided_on_its_own_rows(tmp_path, monkeypatch):
    # the chunk worker steps each leader's rows from the previous leader's;
    # a 7-class chunk limit restarts the stepping many times mid-range
    calls = []
    original = search._min_cover_d

    def checked(chi, *args):
        assert chi.adj == EdgeColoring(chi.shape, chi.bits).adj
        calls.append(chi.shape.part_sizes)
        return original(chi, *args)

    monkeypatch.setattr(search, "_min_cover_d", checked)
    stepped = compute_D([3, 3, 2], checkpoint_every=7, threads=1)
    assert len(calls) == stepped.classes > 0
    assert set(calls) == {(3, 3, 2)}
    calls.clear()
    result = gk_survey(3, threads=1, checkpoint_path=str(tmp_path / "gk3.json"))
    assert len(calls) == result.classes > 0
    assert set(calls) == {(2, 2, 2)}
    monkeypatch.undo()
    assert (stepped.to_json(timing=False)
            == compute_D([3, 3, 2]).to_json(timing=False))


def test_a_fresh_survey_that_miscounts_is_an_internal_error(monkeypatch):
    # no checkpoint was read, so a count off the orbit count is the engine's
    monkeypatch.setattr(search, "leader_count", lambda shape, group: 28)
    with pytest.raises(RuntimeError, match="counted 27 classes") as err:
        compute_D([2, 2, 1])
    assert not isinstance(err.value, MpcoverError)


def test_allred_g3_is_covered_at_diameter_one():
    # two red triangles (one vertex per part each) cover all of G3 at d=1
    allred = EdgeColoring.all_same(build_shape([2, 2, 2]), RED)
    assert cover_exists(allred, 2, 1)
    assert not cover_exists(allred, 2, 0)


# ---------------------------------------------------------------------------
# pruning rules
# ---------------------------------------------------------------------------

def test_the_public_api_returns_what_it_returned(monkeypatch):
    # the ladder returns pieces; find_cover and prune_with_constructions
    # build a Cover from them for their callers, and cover_exists builds
    # none.  The digest, over cover_exists and each returned cover's JSON
    # form, was taken when the ladder built a Cover for every winner
    rng = random.Random(35)
    colorings = [random_coloring(rng, sizes)
                 for sizes in ([3, 2, 2], [2, 2, 2, 2], [3, 2, 1], [4, 3, 2],
                               [2, 1]) for _ in range(12)]
    td = [(t, d) for t in (1, 2) for d in range(5)]
    with mock.patch.object(ladder, "cover_from_masks",
                           side_effect=AssertionError("a Cover was built")):
        exists = [[cover_exists(chi, t, d) for t, d in td] for chi in colorings]
    h = hashlib.sha256()
    for chi, ex in zip(colorings, exists):
        found = [find_cover(chi, t, d) for t, d in td]
        pruned = [prune_with_constructions(chi, d) for d in (2, 3)]
        assert [cover is not None for cover in found] == ex
        assert all(isinstance(cover, Cover) for cover in found + pruned
                   if cover is not None)
        out = [ex, [None if cover is None else cover_to_json(cover)
                    for cover in found + pruned]]
        h.update(json.dumps(out).encode())
        h.update(b"\n")
    assert 0 < sum(map(sum, exists)) < len(td) * len(colorings)
    assert h.hexdigest() == (
        "32acfadfaea1bcd016dcce0d3276e52ed00a086d929efc87de5d21d96be7da43")


def test_prune_certificates_always_verify(rng):
    hits = 0
    for _ in range(300):
        chi = random_coloring(rng, [2] * 4)
        cover = prune_with_constructions(chi, 2)
        if cover is not None:
            hits += 1
            assert verify_cover(chi, cover, 2, 2) is None
    assert hits > 250  # random colorings mostly die to the cheap rules


@st.composite
def candidate_pieces(draw):
    """(chi, two (color, mask) pieces): stars, random, full or empty masks."""
    shape = build_shape(draw(st.sampled_from(
        ([2, 2, 2], [2, 2, 2, 2], [3, 2, 2], [3, 2, 1]))))
    chi = EdgeColoring(shape, draw(st.integers(0, (1 << shape.m) - 1)))
    vertex = st.integers(0, chi.n - 1)
    pieces = []
    for _ in range(2):
        c = draw(st.sampled_from((RED, BLUE)))
        star = ladder._star_mask(chi, c, draw(vertex))
        pieces.append((c, draw(st.sampled_from((
            star, star | (1 << draw(vertex)),
            draw(st.integers(0, shape.full_mask)), shape.full_mask, 0)))))
    return chi, pieces


@settings(deadline=None, max_examples=300)
@given(candidate_pieces(), st.integers(2, 4))
def test_first_verified_returns_the_pieces_that_verify(chi_pieces, d):
    # the construction candidates' one tester, on a single candidate
    chi, pieces = chi_pieces
    with mock.patch.object(ladder, "verify_cover",
                           wraps=verify_cover) as verify:
        got, label = ladder._first_verified(chi, d, [("rule", tuple(pieces))])
    (_, m1), (_, m2) = pieces
    if not (m1 and m2 and m1 | m2 == chi.shape.full_mask):
        # an empty piece or a gap is dropped before verify_cover
        assert (got, label) == (None, "none")
        assert not verify.called
        return
    assert verify.call_count == 1
    cover = make_cover(*((c, bits_of(mask)) for c, mask in pieces))
    if got is None:
        assert label == "none"
        assert verify_cover(chi, cover, d, 2) is not None
    else:
        assert label == "rule"
        assert got == tuple(pieces)
        assert verify_cover(chi, cover, d, 2) is None


@pytest.mark.parametrize("sizes", ([2, 2, 2, 2], [3, 2, 2], [5, 2, 2]))
def test_red_and_blue_stars_of_a_clone_pair_cover_iff_its_sector_is_empty(
        sizes, rng):
    # why the far-clone rule need not try y's red star with its clone's
    # blue star: those pieces cover exactly when clone-star yields them
    for _ in range(200):
        chi = random_coloring(rng, sizes)
        candidates = list(ladder._prune_candidates(chi, 2))
        for x, xp in chi.shape.clone_pairs:
            for y, yp in ((x, xp), (xp, x)):
                pieces = ((RED, ladder._star_mask(chi, RED, y)),
                          (BLUE, ladder._star_mask(chi, BLUE, yp)))
                covers = pieces[0][1] | pieces[1][1] == chi.shape.full_mask
                empty = not chi.adj[BLUE][y] & chi.adj[RED][yp]
                assert covers == empty
                assert (("clone-star", pieces) in candidates) == empty


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("sizes", ([5, 2, 2], [3, 2, 2], [2, 2, 2, 2],
                                   [4, 3, 2]))
def test_construction_candidates_cover_and_their_rings_pass(sizes, d, rng):
    # the generator builds no candidate with a coverage gap, and yields a
    # ring (the red piece of a near-clone candidate that is no red star)
    # only when it passes at d
    full = build_shape(sizes).full_mask
    rings = 0
    for _ in range(300):
        chi = random_coloring(rng, sizes)
        red_stars = {ladder._star_mask(chi, RED, v) for v in range(chi.n)}
        for label, ((_, m1), (c2, m2)) in ladder._prune_candidates(chi, d):
            assert m1 | m2 == full
            if label == "near-clone" and m2 not in red_stars:
                assert c2 == RED and diameter_at_most(chi, RED, m2, d)
                rings += 1
    assert rings


def test_prune_finds_the_empty_sector_rule():
    # all-red: every blue sector of every clone pair is empty
    allred = EdgeColoring.all_same(build_shape([2] * 4), RED)
    cover = prune_with_constructions(allred, 2)
    assert cover is not None
    assert verify_cover(allred, cover, 2, 2) is None


def test_prune_never_lies_about_refutations(rng):
    # prune returning None is only a "don't know": the exhaustive answer at
    # d=2 may be either way, but a certificate must never exist when the
    # exhaustive search says no
    for _ in range(150):
        chi = random_coloring(rng, [2] * 4)
        cover = prune_with_constructions(chi, 2)
        if cover is not None:
            assert cover_exists(chi, 2, 2)


def test_survivor_facts_empty_on_clean_colorings(rng):
    # violations can only come from pruning bugs; random spot check
    for _ in range(50):
        chi = random_coloring(rng, [2] * 4)
        if prune_with_constructions(chi, 2) is None:
            has = cover_exists(chi, 2, 2)
            assert survivor_property_violations(chi, has) == []


def reference_survivor_violations(chi, has_cover):
    """Frozenset re-derivation of the survivor facts from ``color_distance``."""
    shape, n = chi.shape, chi.n

    def clone(v):
        others = [u for u in shape.part_vertices(shape.part_id[v]) if u != v]
        return others[0] if len(others) == 1 else None

    pairs = [(s, s + 1) for s, a in zip(shape.part_start, shape.part_sizes)
             if a == 2]
    out = []
    for v, vp in pairs:
        for i, j in ((RED, RED), (RED, BLUE), (BLUE, RED), (BLUE, BLUE)):
            if not any(color_distance(chi, i, v, w) == 1
                       and color_distance(chi, j, vp, w) == 1
                       for w in range(n)):
                out.append(f"empty-sector v={v} pair=({i},{j})")
    for x, xp in pairs:
        cells = {(i, j): set() for i in (1, 2, 3) for j in (1, 2, 3)}
        for v in range(n):
            if v not in (x, xp):
                cells[(min(color_distance(chi, BLUE, x, v), 3),
                       min(color_distance(chi, BLUE, xp, v), 3))].add(v)
        cells = {ij: frozenset(vs) for ij, vs in cells.items()}
        for ij in ((3, 2), (2, 3), (3, 3)):
            if cells[ij]:
                out.append(f"far-cell x={x} cell=({ij[0]},{ij[1]})")
        if not has_cover:
            for y in sorted(cells[(1, 3)]):
                if clone(y) not in cells[(2, 1)]:
                    out.append(f"clone-location x={x} y={y}")
            for z in sorted(cells[(3, 1)]):
                if clone(z) not in cells[(1, 2)]:
                    out.append(f"clone-location x={x} z={z}")
    return out


@pytest.mark.parametrize("k", [4, 5])
def test_survivor_facts_match_a_frozenset_rederivation(rng, k):
    # on arbitrary colorings, not only prune survivors, so violations show up
    seen = 0
    for _ in range(60):
        chi = random_coloring(rng, [2] * k)
        for has in (True, False):
            got = survivor_property_violations(chi, has)
            assert got == reference_survivor_violations(chi, has)
            seen += len(got)
    assert seen


# ---------------------------------------------------------------------------
# compute_D
# ---------------------------------------------------------------------------

SMALL_D_TABLE = {
    (1, 1, 1): 1,
    (2, 1, 1): 1,
    (3, 1, 1): 2,
    (2, 2, 1): 2,
    (2, 2, 2): 2,
    (3, 2, 2): 2,
}


@pytest.mark.parametrize("sizes,want", sorted(SMALL_D_TABLE.items()))
def test_small_shape_table(sizes, want):
    result = compute_D(list(sizes))
    assert result.d == want and not result.exceeded


def test_witness_attains_the_maximum():
    result = compute_D([2, 2, 1])
    w = result.witness()
    assert cover_exists(w, 2, result.d)
    assert not cover_exists(w, 2, result.d - 1)


def test_class_counts_cross_validate():
    # frozen counts, re-derived via distinct canonical keys over raw space
    from mpcover.symmetry import bits_to_key, canonical_key
    for sizes, want_classes in (([1, 1, 1], 2), ([2, 1, 1], 7),
                                ([3, 2, 1], 134)):
        result = compute_D(sizes)
        assert result.classes == want_classes
        shape = build_shape(sizes)
        keys = {bits_to_key(canonical_key(EdgeColoring(shape, b)), shape.m)
                for b in range(1 << shape.m)}
        assert len(keys) == want_classes


def test_raw_and_symmetric_runs_agree():
    for sizes in ([2, 1], [1, 1, 1], [2, 2], [2, 1, 1]):
        sym = compute_D(sizes)
        raw = compute_D(sizes, use_symmetry=False)
        assert sym.d == raw.d and sym.exceeded == raw.exceeded
        assert sym.classes <= raw.classes
        assert raw.classes == 1 << build_shape(sizes).m


def test_d_max_exhaustion_reports_exceeded():
    result = compute_D([1, 1, 1], d_max=0)
    assert result.exceeded and result.d == 1 and result.d_text() == ">0"
    assert not cover_exists(result.witness(), 2, 0)


def test_edge_cap(monkeypatch):
    monkeypatch.setenv("MPCOVER_CAP_EDGES", "20")
    with pytest.raises(CapExceeded) as e:
        compute_D([3, 3, 3])
    assert e.value.estimate and e.value.estimate > 0
    monkeypatch.setenv("MPCOVER_CAP_EDGES", "5")
    with pytest.raises(CapExceeded):
        compute_D([2, 2, 2])
    monkeypatch.setenv("MPCOVER_CAP_EDGES", "12")
    assert compute_D([2, 2, 2]).d == 2


def test_prune_on_and_off_agree():
    on = compute_D([2, 2, 1], prune=True)
    off = compute_D([2, 2, 1], prune=False)
    assert (on.d, on.classes) == (off.d, off.classes)
    assert on.witness_bits == off.witness_bits


def test_results_are_thread_count_independent():
    base = compute_D([2, 2, 2]).to_json()
    assert compute_D([2, 2, 2], threads=2).to_json() == base


def test_checkpoint_resume_matches_straight_run(tmp_path):
    straight = compute_D([2, 2, 2]).to_json()
    for budget in (1, 13):
        cp = tmp_path / f"cp{budget}.json"
        result = None
        rounds = 0
        while result is None:
            result = compute_D([2, 2, 2], checkpoint_path=str(cp),
                               checkpoint_every=budget,
                               stop_after_classes=budget)
            rounds += 1
            assert rounds < 500
        assert rounds > 1  # the budget actually interrupted the run
        assert result.to_json() == straight


def test_checkpoint_rejects_mismatched_settings(tmp_path):
    cp = tmp_path / "cp.json"
    compute_D([2, 2, 1], checkpoint_path=str(cp))
    with pytest.raises(InvalidParameter):
        compute_D([2, 2, 1], d_max=3, checkpoint_path=str(cp))
    state = load_checkpoint(str(cp))
    state["version"] = 99
    save_checkpoint(str(cp), state)
    with pytest.raises(InvalidParameter):
        compute_D([2, 2, 1], checkpoint_path=str(cp))


def _equal_ranges(sizes, pos):
    """The 64 equal key ranges that surveys once started from, enumerated up
    to key ``pos``: the layout of every checkpoint written back then."""
    span = 1 << (build_shape(sizes).m - 1)
    bounds = [span * i // 64 for i in range(65)]
    return [[lo, hi, min(max(pos, lo), hi)]
            for lo, hi in zip(bounds, bounds[1:])]


def _rewound_and_doubled(good):
    # every range rewound to lo and the list given twice, so a resume would
    # enumerate each key twice
    ranges = [[lo, hi, lo] for lo, hi, _ in good["cursor_ranges"]]
    return dict(good, cursor_ranges=ranges + ranges)


def _swap_first_two(good):
    ranges = good["cursor_ranges"]
    return dict(good, cursor_ranges=[ranges[1], ranges[0]] + ranges[2:])


def _with_range(i, change):
    def corrupt(good):
        ranges = [list(r) for r in good["cursor_ranges"]]
        ranges[i] = change(ranges[i])
        return dict(good, cursor_ranges=ranges)
    return corrupt


@pytest.mark.parametrize("corrupt", [
    lambda good: {"version": 1},
    lambda good: [1],
    lambda good: dict(good, cursor_ranges=[[0, "x", 0]]),
    lambda good: dict(good, counts={"classes_enumerated": 0}),
    _rewound_and_doubled,
    _swap_first_two,
    lambda good: dict(good, cursor_ranges=good["cursor_ranges"][:1]
                      + good["cursor_ranges"]),
    _with_range(0, lambda r: [r[0], r[1] + 1, r[2]]),
    lambda good: dict(good, cursor_ranges=good["cursor_ranges"][1:]),
    lambda good: dict(good, cursor_ranges=good["cursor_ranges"][:-1]),
    _with_range(-1, lambda r: [r[0], r[1] + 1, r[2]]),
    _with_range(0, lambda r: [r[0], r[1], r[1] + 1]),
    _with_range(1, lambda r: [r[0], r[1], r[0] - 1]),
    lambda good: dict(good, cursor_ranges=[]),
    lambda good: dict(good, cursor_ranges=[5]),
    lambda good: dict(good, best=dict(good["best"], witness_bits="-1")),
], ids=["no-config", "not-an-object", "bad-range", "missing-counts",
        "rewound-and-doubled", "unsorted", "repeated", "overlapping",
        "missing-start", "missing-end", "past-the-key-space", "pos-above-hi",
        "pos-below-lo", "no-ranges", "not-a-range", "negative-witness"])
def test_checkpoint_rejects_malformed_files(tmp_path, corrupt):
    cp = tmp_path / "cp.json"
    compute_D([2, 2, 1], checkpoint_path=str(cp))
    good = json.loads(cp.read_text())
    good["cursor_ranges"] = _equal_ranges([2, 2, 1], 1 << 7)
    cp.write_text(json.dumps(corrupt(good)))
    with pytest.raises(InvalidParameter):
        compute_D([2, 2, 1], checkpoint_path=str(cp))


def test_a_lost_class_fails_the_burnside_check(monkeypatch):
    # key 0 (all red) is always a leader; a scan that loses it must not pass
    real = search.canonical_classes

    def lossy(*args, **kwargs):
        return ((key, bits) for key, bits in real(*args, **kwargs) if key)

    assert compute_D([2, 2, 1]).classes == 27
    monkeypatch.setattr(search, "canonical_classes", lossy)
    with pytest.raises(RuntimeError, match="26 classes, but the group has 27"):
        compute_D([2, 2, 1])


@pytest.mark.parametrize("threads", [
    0, -1, search.MAX_THREADS + 1, 100000, True, 2.0, "2", None])
def test_threads_must_be_a_bounded_integer(monkeypatch, threads):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(search, "_fork_pool", no_pool)
    with pytest.raises(InvalidParameter, match="threads"):
        compute_D([2, 2, 1], threads=threads)
    with pytest.raises(InvalidParameter, match="threads"):
        gk_survey(3, threads=threads, checkpoint_path=os.devnull)
    with pytest.raises(AssertionError, match="pool"):
        compute_D([2, 2, 1], threads=2)  # the guard above is the only stop


# Every serial entry point at threads 1, then the pooled survey it must match.
POOL_FREE_RUN = """
import sys
from mpcover import cli
from mpcover.construct import multipartite_cover
from mpcover.graphs import EdgeColoring, build_shape
from mpcover import compute_D, find_cover, gk_survey, prune_with_constructions

serial = compute_D([3, 2, 2]).to_json()
gk_survey(3, checkpoint_path="gk3.json")
chi = EdgeColoring(build_shape([2, 2, 2, 2, 2]), 0x2c5a3)
find_cover(chi, 2, 2)
multipartite_cover(chi)
prune_with_constructions(chi, 2)
assert cli.main(["fuzz", "--mode", "prune", "--seed", "1", "--n", "5"]) == 0
loaded = sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules))
assert not loaded, f"a threads=1 run loaded {loaded}"
assert compute_D([3, 2, 2], threads=2).to_json() == serial
assert "multiprocessing" in sys.modules  # the pooled survey did pool
"""


def test_only_a_pooled_survey_imports_the_process_pool(tmp_path):
    # a fresh interpreter, since this one has long loaded the pool modules
    src = os.path.dirname(os.path.dirname(os.path.abspath(search.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", POOL_FREE_RUN], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_stopping_early_needs_a_checkpoint():
    with pytest.raises(InvalidParameter):
        compute_D([2, 2, 1], stop_after_classes=3)


def test_keep_notes_keeps_the_smallest_keys_in_any_arrival_order(rng):
    # keys of one to four hex digits, so string order and key order differ
    notes = [f"key={11 * i * i:x} far-cell x=0 cell=(3,3)" for i in range(30)]
    notes.append("key=2c far-cell x=0 cell=(2,3)")
    want = sorted(notes, key=lambda s: (int(s.split()[0][4:], 16), s))[:MAX_NOTES]
    assert want.index("key=2c far-cell x=0 cell=(2,3)") == 2
    assert len(notes) > MAX_NOTES

    forward = []
    for i in range(0, len(notes), 7):
        forward = keep_notes(forward, notes[i:i + 7])
    shuffled = notes[::-1]
    rng.shuffle(shuffled)
    chunks = [keep_notes(shuffled[i:i + 4]) for i in range(0, len(shuffled), 4)]
    backward = keep_notes(*chunks[::-1])
    assert forward == backward == want
    assert keep_notes(want, want) == want


def _class_stream(rng):
    """(key, min_d, label, survivor violations) of every [3,2,2] class, with
    made-up violations on some survivors so that notes overflow MAX_NOTES."""
    shape = build_shape([3, 2, 2])
    stream = []
    for key, bits in canonical_classes(shape, symmetry_group(shape)):
        min_d, label, surv = search._min_cover_d(EdgeColoring(shape, bits),
                                                 2, 4, True, 2)
        if surv is not None and rng.random() < 0.2:
            surv = tuple(f"far-cell x={x} cell=(3,3)" for x in range(rng.randint(1, 3)))
        stream.append((key, min_d, label, surv))
    return stream


def test_tally_is_a_monoid(rng):
    stream = _class_stream(rng)
    whole = search._Tally()
    for entry in stream:
        whole.add(*entry)
    assert whole.survivors and whole.violations > MAX_NOTES == len(whole.notes)
    top = max(min_d for _, min_d, _, _ in stream)
    assert whole.best == (top, min(k for k, min_d, _, _ in stream if min_d == top))

    for _ in range(5):
        cuts = sorted(rng.sample(range(1, len(stream)), rng.randint(1, 40)))
        parts = []
        for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
            parts.append(search._Tally())
            for entry in stream[lo:hi]:
                parts[-1].add(*entry)
        parts.append(search._Tally())  # the empty tally is the identity
        rng.shuffle(parts)
        while len(parts) > 1:
            into = parts.pop(rng.randrange(len(parts)))
            into.merge(parts.pop(rng.randrange(len(parts))))
            parts.append(into)
        assert parts[0] == whole


def test_tally_survives_a_checkpoint(rng):
    m = build_shape([3, 2, 2]).m
    tallies = [search._Tally()]
    for entries in (_class_stream(rng)[:70], _class_stream(rng)):
        tallies.append(search._Tally())
        for entry in entries:
            tallies[-1].add(*entry)
    for tally in tallies:
        state = json.loads(json.dumps(tally.to_checkpoint(1.25)))
        assert state["counts"]["seconds"] == 1.25
        assert search._Tally.from_checkpoint(state, 4, m) == tally


def test_checkpoint_file_shape(tmp_path):
    cp = tmp_path / "cp.json"
    compute_D([2, 2, 1], checkpoint_path=str(cp))
    state = json.loads(cp.read_text())
    assert state["version"] == 1
    assert state["shape"] == [2, 2, 1]
    assert all(len(r) == 3 for r in state["cursor_ranges"])
    assert all(pos == hi for _, hi, pos in state["cursor_ranges"])
    assert set(state["counts"]) >= {"classes_enumerated", "pruned_by_rule",
                                    "seconds"}


# A shape whose classes sit mostly in a narrow band of keys (60.7% of its
# 24 607 classes in the third 64th of the key space).  With t = 1 only the
# spanning rung runs, so a survey takes seconds, and the report still has two
# rules and a witness that is not the smallest key.
SKEWED = dict(part_sizes=[2, 2, 2, 2], t=1, d_max=2)


@pytest.fixture(scope="module")
def skewed_straight():
    return compute_D(**SKEWED).to_json()


@pytest.fixture(scope="module")
def skewed_two_threads(tmp_path_factory):
    cp = tmp_path_factory.mktemp("skewed") / "cp.json"
    result = compute_D(**SKEWED, threads=2, checkpoint_path=str(cp))
    return result.to_json(), json.loads(cp.read_text())


def test_skewed_reports_are_thread_count_independent(skewed_straight,
                                                     skewed_two_threads):
    assert skewed_straight["witness_bits"] != "0"
    assert skewed_two_threads[0] == skewed_straight
    assert compute_D(**SKEWED, threads=4).to_json() == skewed_straight


def test_idle_workers_split_pending_ranges(skewed_two_threads):
    state = skewed_two_threads[1]
    ranges = state["cursor_ranges"]
    # the survey starts from the one range [0, end, 0], which its first
    # claim splits into one range per free slot
    end = 1 << (build_shape([2, 2, 2, 2]).m - 1)
    assert len(ranges) > 1
    assert all(pos == hi for _, hi, pos in ranges)
    # the split ranges still tile the key space
    assert ranges[0][0] == 0 and ranges[-1][1] == end
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))


class _QueueingPool:
    """An inline stand-in for the fork pool.

    A chunk runs only when the survey waits for one, newest first, so chunks
    finish out of submission order.  Each submit records how many chunks
    were outstanding before it and the chunk's class limit.
    """

    def __init__(self):
        self.outstanding = []
        self.submits = []

    def submit(self, fn, args):
        self.submits.append((len(self.outstanding), args[-1]))
        self.outstanding.append((Future(), fn, args))
        return self.outstanding[-1][0]

    def first_done(self, futures):
        assert len(futures) == len(self.outstanding)
        fut, fn, args = self.outstanding.pop()
        fut.set_result(fn(args))
        return [fut]

    def shutdown(self, cancel_futures):
        self.outstanding.clear()


@pytest.fixture(scope="module")
def straight_332():
    return compute_D([3, 3, 2]).to_json()


@pytest.mark.parametrize("threads", [2, 3])
def test_a_pooled_survey_queues_one_chunk_per_worker(tmp_path, monkeypatch,
                                                     straight_332, threads):
    pools = []

    def fork_pool(workers):
        assert workers == threads
        pools.append(_QueueingPool())
        return pools[-1], pools[-1].first_done

    monkeypatch.setattr(search, "_fork_pool", fork_pool)
    assert compute_D([3, 3, 2], threads=threads).to_json() == straight_332
    assert max(before for before, _ in pools[-1].submits) + 1 == 2 * threads
    # a budget that ends inside the last chunk of the first claim, which is
    # queued behind one running chunk per worker
    budget = (2 * threads - 1) * search.CHUNK_CLASSES + 200
    cp = str(tmp_path / "cp.json")
    assert compute_D([3, 3, 2], threads=threads, checkpoint_path=cp,
                     stop_after_classes=budget) is None
    first_claim = pools[-1].submits[:2 * threads]
    assert [before for before, _ in first_claim] == list(range(2 * threads))
    assert first_claim[-1][1] == 200
    assert load_checkpoint(cp)["counts"]["classes_enumerated"] == budget
    resumed = compute_D([3, 3, 2], threads=threads, checkpoint_path=cp)
    assert resumed.to_json() == straight_332
    assert len(pools) == 3


@pytest.mark.parametrize("first,second", [(2, 1), (1, 2)])
def test_stop_and_resume_across_thread_counts(tmp_path, first, second):
    straight = compute_D([3, 2, 2]).to_json()
    cp = str(tmp_path / "cp.json")
    assert compute_D([3, 2, 2], threads=first, checkpoint_path=cp,
                     checkpoint_every=40, stop_after_classes=300) is None
    state = load_checkpoint(cp)
    assert 0 < state["counts"]["classes_enumerated"] < straight["classes_enumerated"]
    result = compute_D([3, 2, 2], threads=second, checkpoint_path=cp)
    assert result.to_json() == straight


@pytest.mark.parametrize("budget", [27, 26])
def test_a_budget_spent_on_the_last_class_finishes(tmp_path, budget):
    straight = compute_D([2, 2, 1]).to_json()
    assert straight["classes_enumerated"] == 27
    cp = str(tmp_path / "cp.json")
    result = compute_D([2, 2, 1], checkpoint_path=cp, stop_after_classes=budget)
    if budget < 27:
        assert result is None
        result = compute_D([2, 2, 1], checkpoint_path=cp)
    assert result.to_json() == straight


def test_a_forged_count_fails_when_the_last_keys_are_scanned(tmp_path):
    # 25 classes merged but 26 claimed: the 26th merged leader brings the
    # claim to the orbit count, and the scan of the keys left finds the 27th
    cp = str(tmp_path / "cp.json")
    assert compute_D([2, 2, 1], checkpoint_path=cp,
                     stop_after_classes=25) is None
    state = load_checkpoint(cp)
    counts = state["counts"]
    counts["classes_enumerated"] += 1
    rule = next(iter(counts["pruned_by_rule"]))
    counts["pruned_by_rule"][rule] += 1
    save_checkpoint(cp, state)
    with pytest.raises(InvalidParameter, match="counted 28 classes"):
        compute_D([2, 2, 1], checkpoint_path=cp, stop_after_classes=1)


def test_min_cover_d_stops_at_n_minus_one(monkeypatch):
    # a piece of finite diameter has diameter <= n - 1, so no cover of [2, 2]
    # appears past d = 3 and d_max = 50 asks no more than d_max = 3
    calls = Counter()
    decide = search._decide

    def counted(chi, t, d, prune, hints=None):
        calls[chi.bits] += 1
        return decide(chi, t, d, prune)

    monkeypatch.setattr(search, "_decide", counted)
    result = compute_D([2, 2], t=1, d_max=50)
    assert result.exceeded and result.d == 51
    assert result.rules["uncovered"] > 0
    assert len(calls) == result.classes
    assert max(calls.values()) <= 4


def _stub_min_d_and_label(bits):
    """A made-up minimal d (0..5, 5 meaning none up to d_max 4) and label."""
    mix = bits * 0x9E3779B1 >> 5
    return mix % 6, ("stub-a", "stub-b", "stub-c")[mix // 6 % 3]


def _stub_decide(chi, t, d, prune, hints=None):
    min_d, label = _stub_min_d_and_label(chi.bits)
    return (object(), label) if d >= min_d else (None, "none")


def test_survey_engine_folds_a_stub_ladder(tmp_path, monkeypatch):
    # the engine sees the ladder only through _decide: with a stub whose
    # answer depends on the coloring alone, the report is a plain fold of the
    # stub over the orbit leaders, at any thread count and across a resume
    shape = build_shape([3, 3, 2])
    rules, best = Counter(), None
    for key, bits in canonical_classes(shape, symmetry_group(shape)):
        min_d, label = _stub_min_d_and_label(bits)
        if min_d > 4:
            label = "uncovered"
        rules[label] += 1
        if best is None or min_d > best[0]:
            best = (min_d, bits)
    monkeypatch.setattr(search, "_decide", _stub_decide)
    straight = compute_D([3, 3, 2])
    assert straight.rules == dict(rules) and len(rules) == 4
    assert (straight.d, straight.witness_bits) == best
    assert straight.exceeded == (best[0] > 4)
    cp = str(tmp_path / "cp.json")
    assert compute_D([3, 3, 2], checkpoint_path=cp,
                     stop_after_classes=1000) is None
    resumed = compute_D([3, 3, 2], checkpoint_path=cp)
    for other in (compute_D([3, 3, 2], threads=2), resumed):
        assert other.to_json() == straight.to_json()


def test_ladder_imports_no_survey_machinery():
    # the ladder decides one coloring; ranges, checkpoints and pools are
    # the survey engine's
    tree = ast.parse(open(ladder.__file__).read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", ".construct", ".covers", ".errors",
                        ".graphs"}


def test_checkpoint_with_the_initial_layout_resumes(tmp_path):
    # 64 equal-width ranges, one of them part-way through: what a stopped
    # run that started from 64 ranges and never split one leaves behind
    straight = compute_D([3, 2, 2]).to_json()
    cp = str(tmp_path / "cp.json")
    assert compute_D([3, 2, 2], checkpoint_path=cp, checkpoint_every=100,
                     stop_after_classes=100) is None
    state = load_checkpoint(cp)
    [[lo, hi, pos]] = state["cursor_ranges"]  # one range, stopped at pos
    assert lo < pos < hi
    state["cursor_ranges"] = _equal_ranges([3, 2, 2], pos)
    assert any(lo < pos < hi for lo, hi, pos in state["cursor_ranges"])
    save_checkpoint(cp, state)
    result = compute_D([3, 2, 2], threads=2, checkpoint_path=cp)
    assert result.to_json() == straight


@pytest.mark.parametrize("kwargs", [
    dict(checkpoint_every=0), dict(checkpoint_every=-5),
    dict(checkpoint_every=2.5), dict(stop_after_classes=0),
    dict(stop_after_classes=-3), dict(stop_after_classes=True),
    dict(d_max=-1), dict(d_max=True), dict(d_max=2.5), dict(survey_d=-1),
    dict(survey_d=True), dict(survey_d=1.5), dict(t=True),
    dict(survey_d=0), dict(survey_d=1), dict(survey_d=5),
    dict(survey_d=2, prune=False),
], ids=["every-0", "every-negative", "every-float", "stop-0", "stop-negative",
        "stop-bool", "dmax-negative", "dmax-bool", "dmax-float",
        "survey-negative", "survey-bool", "survey-float", "t-bool",
        "survey-0", "survey-1", "survey-past-dmax", "survey-no-prune"])
def test_budgets_must_be_positive_integers(tmp_path, kwargs):
    with pytest.raises(InvalidParameter):
        compute_D([2, 2, 1], checkpoint_path=str(tmp_path / "cp.json"),
                  **kwargs)
    assert not (tmp_path / "cp.json").exists()


def test_gk_survey_refuses_a_diameter_without_survivor_checks(tmp_path):
    # at d = 1 no prune rule runs, so every class would "survive"; past
    # d_max the walk stops first, so none would
    cp = tmp_path / "gk3.json"
    for d in (0, 1, 5):
        with pytest.raises(InvalidParameter, match="survey_d"):
            gk_survey(3, d=d, checkpoint_path=str(cp))
    assert not cp.exists()



@pytest.mark.parametrize("threads", [1, 2])
def test_an_unwritable_checkpoint_fails_before_any_class(tmp_path, monkeypatch,
                                                         threads):
    # the directory is probed up front, not at the first checkpoint write
    # (5 000 classes into [4,3,2]), and before a pool is forked
    calls = []

    def decide(*args):
        calls.append(args)
        return None, "none"

    def no_pool(threads):
        raise AssertionError("a pool was forked before the probe")

    monkeypatch.setattr(search, "_decide", decide)
    monkeypatch.setattr(search, "_fork_pool", no_pool)
    cp = str(tmp_path / "missing" / "cp.json")
    with pytest.raises(Unwritable) as err:
        compute_D([4, 3, 2], threads=threads, checkpoint_path=cp)
    assert err.value.filename == cp
    with pytest.raises(Unwritable) as err:
        gk_survey(4, threads=threads, checkpoint_path=cp)
    assert err.value.filename == cp
    assert calls == []


def test_the_checkpoint_probe_leaves_nothing_and_writes_nothing(tmp_path,
                                                                monkeypatch):
    writes = []
    save = search.save_checkpoint

    def counted(path, state):
        writes.append(path)
        save(path, state)

    monkeypatch.setattr(search, "save_checkpoint", counted)
    cp = str(tmp_path / "cp.json")
    compute_D([3, 2, 2], checkpoint_path=cp)
    assert writes == [cp]  # the write at the finish only
    assert os.listdir(tmp_path) == ["cp.json"]

def test_spanning_diameter_is_computed_once_per_class_and_color(monkeypatch):
    calls = []
    original = ladder._spanning_diameter

    def counted(chi, c, d):
        calls.append((chi.bits, c, d))
        return original(chi, c, d)

    monkeypatch.setattr(ladder, "_spanning_diameter", counted)
    result = compute_D([2, 2, 2], d_max=4)
    assert calls  # the patch sits where the ladder looks the name up
    assert len(calls) == len(set(calls)) <= 2 * result.classes



# ---------------------------------------------------------------------------
# Counting bound and two-bag hints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sizes, t, want", [
    ((1, 1), 2, 0), ((2,), 2, 0), ((1, 1, 1), 2, 1), ((2, 2, 2), 2, 1),
    ((3, 1), 2, 2), ((5, 2, 2), 2, 2), ((1, 1), 1, 1), ((2, 1), 1, 2)])
def test_lowest_d_is_the_counting_bound(sizes, t, want):
    assert ladder.lowest_d(build_shape(sizes), t) == want


def test_no_cover_below_the_counting_bound(rng):
    # the bound is sound: the oracle finds no cover below it either
    for sizes in ([3, 1], [2, 2, 1], [3, 2, 1], [2, 1, 1], [1, 1, 1, 1]):
        shape = build_shape(sizes)
        for t in (1, 2):
            low = ladder.lowest_d(shape, t)
            for _ in range(6):
                chi = random_coloring(rng, sizes)
                for d in range(low):
                    assert not oracle_cover_exists(chi, t, d), (sizes, t, d)
                    assert find_cover(chi, t, d) is None


def test_the_walk_starts_at_the_counting_bound(monkeypatch):
    asked = Counter()
    decide = search._decide

    def counted(chi, t, d, prune, hints=None):
        asked[d] += 1
        return decide(chi, t, d, prune, hints)

    monkeypatch.setattr(search, "_decide", counted)
    result = compute_D([3, 2, 2])  # a part of 3 > t vertices: no d below 2
    assert min(asked) == 2 and asked[2] == result.classes
    asked.clear()
    assert compute_D([1, 1]).rules == {"tiny": 1}  # n <= t: d = 0 still asked
    assert asked == {0: 1}


def _walks(shape, survey_d, recent):
    """``_min_cover_d`` of each leader, prune rules on, d_max 4, sharing one
    hint dict as a single chunk would, or none when ``recent`` is None."""
    out = []
    for _, bits in canonical_classes(shape, symmetry_group(shape)):
        chi = EdgeColoring(shape, bits)
        out.append(search._min_cover_d(chi, 2, 4, True, survey_d, recent))
        if recent is not None:
            assert all(len(hints) <= ladder.HINTS for hints in recent.values())
    return out


@pytest.mark.parametrize("sizes, survey_d", [
    ((3, 3, 2), None), ((4, 2, 2), None), ((2, 2, 2), 2)],
    ids=["3-3-2", "4-2-2", "gk3"])
def test_hints_leave_every_class_unchanged(sizes, survey_d, monkeypatch):
    # (min d, label, survivor violations) of each leader, as in compute_D or
    # gk_survey(3), is the same with hints as without (recent=None)
    calls = []
    original = ladder.two_bag_cover

    def counted(chi, d):
        calls.append(d)
        return original(chi, d)

    monkeypatch.setattr(ladder, "two_bag_cover", counted)
    shape = build_shape(sizes)
    hinted = _walks(shape, survey_d, defaultdict(list))
    searched = len(calls)
    assert hinted == _walks(shape, survey_d, None)
    # both walks reach the rung, and the hints save some of its searches
    assert 0 < searched < len(calls) - searched


def _two_bag_pieces(sizes, d):
    """(coloring, two-bag winner at d) of each leader the ladder takes there."""
    shape = build_shape(sizes)
    out = []
    for _, bits in canonical_classes(shape, symmetry_group(shape)):
        chi = EdgeColoring(shape, bits)
        if ladder._decide(chi, 2, d, True)[1] == "trichotomy":
            out.append((chi, ladder._late_rungs(chi, d)[0]))
    return out


def _other_winners(chi, own, winners, certify):
    """The other leaders' winners that do (or do not) certify on chi."""
    return (p for _, p in winners
            if p != own and certifies_masks(chi, p, 2, 2) == certify)


def test_a_hint_that_does_not_certify_is_never_returned():
    # stale hints: other leaders' winners that fail on this coloring.  The
    # ladder returns its own two-bag winner and puts it first
    winners = _two_bag_pieces((3, 3, 2), 2)
    checked = 0
    for chi, pieces in winners[:100]:
        stale = list(islice(_other_winners(chi, pieces, winners, False),
                            ladder.HINTS))
        hints = list(stale)
        got, label = ladder._late_rungs(chi, 2, hints)
        assert (got, label) == (pieces, "trichotomy")
        assert hints == [pieces] + stale[:ladder.HINTS - 1]
        checked += len(stale) == ladder.HINTS
    assert checked > 50


def test_a_hint_hit_moves_to_the_front():
    winners = _two_bag_pieces((3, 3, 2), 2)
    checked = 0
    for chi, pieces in winners[:100]:
        stale = list(islice(_other_winners(chi, pieces, winners, False),
                            ladder.HINTS - 1))
        good = next(_other_winners(chi, pieces, winners, True), None)
        if len(stale) < ladder.HINTS - 1 or good is None:
            continue
        hints = stale[:2] + [good] + stale[2:]
        got, label = ladder._late_rungs(chi, 2, hints)
        assert (got, label) == (good, "trichotomy")  # not the search's own
        assert hints == [good] + stale  # moved, and no longer than before
        checked += 1
    assert checked > 20


def test_find_cover_reads_no_hint(rng, monkeypatch):
    seen = []
    original = ladder._late_rungs

    def recorded(chi, d, hints=None):
        seen.append(hints)
        return original(chi, d, hints)

    monkeypatch.setattr(ladder, "_late_rungs", recorded)
    for sizes in ([3, 3, 2], [4, 2, 2], [2, 2, 2, 2]):
        for _ in range(10):
            chi = random_coloring(rng, sizes)
            for d in (1, 2, 3):
                find_cover(chi, 2, d)
                cover_exists(chi, 2, d)
    assert seen and all(hints is None for hints in seen)


def test_report_formats():
    result = compute_D([2, 2, 1])
    obj = result.to_json()
    assert obj["seconds"] == 0  # byte-stable by default
    assert obj["witness_bits"] == f"{result.witness_bits:x}"
    row = result.tsv_row()
    fields = row.split("\t")
    assert fields[0] == "2,2,1" and fields[2] == "2"
    assert SearchResult.TSV_HEADER.split("\t")[2] == "D"
    timed = result.to_json(timing=True)
    assert timed["seconds"] >= 0


# ---------------------------------------------------------------------------
# gk survey / classification / extension
# ---------------------------------------------------------------------------

def test_gk_survey_smallest(tmp_path):
    result = gk_survey(3, checkpoint_path=str(tmp_path / "gk3.json"))
    assert result.d == 2 and result.violations == 0
    with pytest.raises(InvalidParameter):
        gk_survey(2)


@pytest.mark.parametrize("sizes,want", [
    ([5, 2, 2], 3), ([4, 3, 2], 3), ([7, 3, 2], 3), ([5, 5, 5], 3),
    ([4, 4, 2], 3),
    ([1, 1, 1], 1), ([2, 1, 1], 1),
    ([4, 2, 2], 2), ([3, 3, 3], 2), ([2, 2, 2], 2), ([9, 1, 1], 2),
    ([10, 2, 1], 2),
])
def test_classification_closed_form(sizes, want):
    assert classify_tripartite(sizes) == want


def test_classification_needs_three_parts():
    for sizes in ([2, 2], [2, 2, 2, 2]):
        with pytest.raises(Unsupported):
            classify_tripartite(sizes)


def test_extension_copies_the_cloned_vertex(rng):
    for _ in range(20):
        chi = random_coloring(rng, [3, 2, 2])
        x = rng.randrange(chi.n)
        ext = check_monotone_extension(chi, x)
        assert ext.n == chi.n + 1
        # find the new vertex: the one with no preimage; x's part grew
        p = chi.shape.part_id[x]
        assert sorted(ext.shape.part_sizes) == sorted(
            s + (1 if i == p else 0) for i, s in enumerate(chi.shape.part_sizes))


def test_extension_of_allred_is_allred():
    chi = EdgeColoring.all_same(build_shape([2, 2, 1]), RED)
    ext = check_monotone_extension(chi, 0)
    assert ext.bits == 0 and ext.shape.part_sizes == (3, 2, 1)


def test_extension_preserves_colors_toward_the_clone(rng):
    chi = random_coloring(rng, [2, 2, 2])
    x = 2
    ext = check_monotone_extension(chi, x)
    # x's part is first in the new shape ordering (size 3 beats size 2);
    # locate x and its copy by matching neighborhoods
    news = ext.shape
    grown = [p for p in range(news.k) if news.part_sizes[p] == 3][0]
    members = list(news.part_vertices(grown))
    rows = [ext.adj[BLUE][v] & ~sum(1 << u for u in members) for v in members]
    assert len({rows[i] for i in range(3)}) <= 3
    twins = [(i, j) for i in range(3) for j in range(i + 1, 3)
             if rows[i] == rows[j]]
    assert twins, "the clone must mirror its source exactly"
