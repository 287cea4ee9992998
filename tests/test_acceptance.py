"""Acceptance gate: one test per headline claim, at its stated budget.

Each test prints a single ``PASS criterion N`` line with the measured wall
time, so a verbose run reads as a checklist.  Budgets are generous upper
bounds for a single modern core; the real times are documented in the
README.  Seeds are fixed so reruns are reproducible.
"""

import random
import time

import pytest

from conftest import all_shapes_with_few_edges
from mpcover.cli import run_fuzz
from mpcover.covers import verify_cover
from mpcover.families import (check_monotone_extension, classify_tripartite,
                              gen_fig4, gen_thm31)
from mpcover.graphs import EdgeColoring, build_shape
from mpcover.ryser import (ColoredGraph, Hypergraph, verify_equivalence_chain)
from mpcover.ladder import cover_exists
from mpcover.search import compute_D


def _report(n, elapsed, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"PASS criterion {n}: {elapsed:.1f}s{tail}")


def tripartite_shapes(max_edges):
    """All sorted 3-part shapes whose graph has at most max_edges edges."""
    shapes = []
    for a in range(1, max_edges):
        for b in range(1, a + 1):
            for c in range(1, b + 1):
                n = a + b + c
                m = n * (n - 1) // 2 - sum(s * (s - 1) // 2 for s in (a, b, c))
                if m <= max_edges:
                    shapes.append((a, b, c))
    return shapes


def test_criterion_01_key_tripartite_values():
    t0 = time.perf_counter()
    r422 = compute_D([4, 2, 2])
    mid = time.perf_counter()
    assert r422.d == 2 and not r422.exceeded
    assert mid - t0 < 600
    r432 = compute_D([4, 3, 2])
    done = time.perf_counter()
    assert r432.d == 3 and not r432.exceeded
    assert done - mid < 7200
    # the reported maximizer really needs diameter 3
    w = r432.witness()
    assert not cover_exists(w, 2, 2) and cover_exists(w, 2, 3)
    _report(1, done - t0,
            f"[4,2,2]={mid-t0:.1f}s/{r422.classes} classes, "
            f"[4,3,2]={done-mid:.1f}s/{r432.classes} classes")


def test_criterion_02_balanced_three_parts():
    t0 = time.perf_counter()
    result = compute_D([3, 3, 3])
    elapsed = time.perf_counter() - t0
    assert result.d == 2 and not result.exceeded
    _report(2, elapsed, f"{result.classes} classes")


def test_criterion_03_doubled_parts_and_g5_soundness(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    t0 = time.perf_counter()
    assert compute_D([2, 2, 2]).d == 2
    small = time.perf_counter() - t0
    assert small < 60
    t1 = time.perf_counter()
    assert compute_D([2, 2, 2, 2]).d == 2
    four = time.perf_counter() - t1
    assert four < 3600
    # five doubled parts is out of exhaustive reach; the claim under test is
    # that the pruning rules never emit a certificate that fails verification
    t2 = time.perf_counter()
    counters, violations, _ = run_fuzz("prune", seed=5050, iterations=100_000)
    assert counters["unverified-certificate"] == 0
    assert violations == 0
    _report(3, time.perf_counter() - t0,
            f"[2,2,2]={small:.1f}s, [2,2,2,2]={four:.1f}s, "
            f"1e5 prunes={time.perf_counter()-t2:.1f}s "
            f"certified={counters['certified']}")


def test_criterion_04_lower_bound_family():
    t0 = time.perf_counter()
    for k in (2, 3, 4):
        chi = gen_thm31(k)
        t = time.perf_counter()
        assert cover_exists(chi, 2, 2) is False
        assert cover_exists(chi, 2, 3) is True
        assert time.perf_counter() - t < 10
    _report(4, time.perf_counter() - t0, "k=2,3,4")


def test_criterion_05_constructive_cover_never_exhausts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    t0 = time.perf_counter()
    counters, violations, _ = run_fuzz("construct", seed=31337,
                                       iterations=10_000)
    assert counters["exhausted"] == 0 and counters["bad-cover"] == 0
    assert violations == 0 and counters["covered"] == 10_000
    _report(5, time.perf_counter() - t0, "1e4 colorings, 3-6 parts, n<=30")


def test_criterion_06_two_piece_connected_cover(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    t0 = time.perf_counter()
    counters, violations, _ = run_fuzz("tc2", seed=62626, iterations=10_000)
    assert violations == 0 and counters["covered"] == 10_000
    _report(6, time.perf_counter() - t0, "1e4 colorings, 2-6 parts")


def test_criterion_07_extensions_keep_the_lower_bound():
    t0 = time.perf_counter()
    tried = 0
    for base in (gen_fig4(), gen_thm31(2)):
        assert not cover_exists(base, 2, 2)
        for x in range(base.n):
            ext = check_monotone_extension(base, x)
            assert cover_exists(ext, 2, 2) is False, (base.shape, x)
            tried += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(7, elapsed, f"{tried} single-vertex extensions")


def test_criterion_08_closed_form_matches_search():
    shapes = tripartite_shapes(22)
    assert len(shapes) == 21
    assert (3, 2, 2) in shapes and (4, 2, 2) in shapes
    assert (2, 2, 2) in shapes and (3, 3, 2) in shapes
    assert (1, 1, 1) in shapes and (2, 1, 1) in shapes
    t0 = time.perf_counter()
    for sizes in shapes:
        predicted = classify_tripartite(list(sizes))
        result = compute_D(list(sizes))
        assert not result.exceeded
        assert result.d == predicted, (sizes, result.d, predicted)
    _report(8, time.perf_counter() - t0, f"{len(shapes)} shapes")


def test_criterion_09_cover_matching_equivalence():
    t0 = time.perf_counter()
    for part_sizes in ([1, 1, 1], [2, 2]):
        shape = build_shape(part_sizes)
        for bits in range(1 << shape.m):
            g = ColoredGraph.from_coloring(EdgeColoring(shape, bits))
            report = verify_equivalence_chain(g)
            assert all(step["ok"] for step in report)
    rng = random.Random(424242)
    for _ in range(1000):
        sizes = [rng.randint(1, 3), rng.randint(1, 3)]
        classes, start = [], 0
        for s in sizes:
            classes.append(tuple(range(start, start + s)))
            start += s
        edges = []
        for _ in range(rng.randint(1, 6)):
            e = {rng.choice(cl) for cl in classes if rng.random() < 0.7}
            if e:
                edges.append(frozenset(e))
        h = Hypergraph(classes, edges or [frozenset({0})])
        report = verify_equivalence_chain(h)
        assert all(step["ok"] for step in report)
    _report(9, time.perf_counter() - t0, "24 classes + 1e3 hypergraphs")


def test_criterion_10_engine_self_consistency(tmp_path):
    t0 = time.perf_counter()
    shapes = all_shapes_with_few_edges(8)
    assert len(shapes) == 16
    for sizes in shapes:
        sym = compute_D(list(sizes))
        raw = compute_D(list(sizes), use_symmetry=False)
        assert (sym.d, sym.exceeded) == (raw.d, raw.exceeded), sizes

    straight = compute_D([2, 2, 2]).to_json()
    for budget in (1, 7, 30):
        cp = tmp_path / f"cp{budget}.json"
        result, rounds = None, 0
        while result is None:
            result = compute_D([2, 2, 2], checkpoint_path=str(cp),
                               checkpoint_every=budget,
                               stop_after_classes=budget)
            rounds += 1
            assert rounds < 1000
        assert rounds > 1
        assert result.to_json() == straight

    for threads in (4, 8):
        assert compute_D([2, 2, 2], threads=threads).to_json() == straight
    _report(10, time.perf_counter() - t0,
            f"{len(shapes)} raw-vs-reduced shapes, resume x3, threads 1/4/8")
