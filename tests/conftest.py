import hashlib
import itertools
import json
import os
import random
from collections import Counter

import pytest

from mpcover import ladder, search
from mpcover.cli import _random_sizes
from mpcover.construct import multipartite_cover
from mpcover.covers import cover_to_json, verify_cover
from mpcover.graphs import (BLUE, RED, EdgeColoring, _balls, _far_vertex,
                            build_shape)
from mpcover.families import check_monotone_extension
from mpcover.ladder import two_bag_cover
from mpcover.symmetry import canonical_classes, symmetry_group


def random_coloring(rng, sizes):
    shape = build_shape(sizes)
    return EdgeColoring(shape, rng.getrandbits(shape.m) if shape.m else 0)


def two_star_pieces(chi, u):
    """The red and the blue star centered at u, as (color, mask) pieces."""
    return [(c, chi.adj[c][u] | 1 << u) for c in (RED, BLUE)]


def far_vertex_of(rows, allowed, d):
    """The vertex ``_far_vertex`` names, read from the first ball of the
    list it returns, or None; the list must be that vertex's ``_balls``."""
    balls = _far_vertex(rows, allowed, d)
    if balls is None:
        return None
    u = balls[0].bit_length() - 1
    assert balls == _balls(rows, u, allowed, d)
    return u


def final_case_tally(sizes):
    """How often each case ends the pipeline over a shape's orbit leaders.

    Every cover is checked with ``verify_cover`` on the way.
    """
    shape = build_shape(sizes)
    tally = Counter()
    for _, bits in canonical_classes(shape, symmetry_group(shape)):
        chi = EdgeColoring(shape, bits)
        cover, trace = multipartite_cover(chi)
        assert verify_cover(chi, cover, 3, 2) is None, chi
        tally[trace.cases[-1][0]] += 1
    return dict(tally)


def grown_rare_colorings(seed, count):
    """Seeded colorings grown from tests/golden/construct-rare-cases.json.

    Each starts from one of the file's colorings that the pipeline splits
    itself (the one with its own groups is skipped), clones 0 to 12 random
    vertices with ``check_monotone_extension`` while n < 30, then flips 0
    to 2 random edges.  Most end in the pipeline's far-root cases (4 to 7),
    which seeded colorings of random shapes almost never reach.
    """
    with open(os.path.join(os.path.dirname(__file__), "golden",
                           "construct-rare-cases.json")) as fh:
        bases = [(case["parts"], int(case["bits"], 16))
                 for case in json.load(fh) if "groups" not in case]
    rng = random.Random(seed)
    for _ in range(count):
        parts, bits = rng.choice(bases)
        chi = EdgeColoring(build_shape(parts), bits)
        for _ in range(rng.randint(0, 12)):
            if chi.n >= 30:
                break
            chi = check_monotone_extension(chi, rng.randrange(chi.n))
        for _ in range(rng.randint(0, 2)):
            chi = EdgeColoring(chi.shape,
                               chi.bits ^ 1 << rng.randrange(chi.shape.m))
        yield chi


def grown_case_tally(seed, count):
    """How often each case ends the pipeline over ``grown_rare_colorings``.

    Every cover is checked with ``verify_cover``; a coloring that defeats
    every case raises ``ConstructionExhausted`` and fails the caller.
    """
    tally = Counter()
    for chi in grown_rare_colorings(seed, count):
        cover, trace = multipartite_cover(chi)
        assert verify_cover(chi, cover, 3, 2) is None, chi
        tally[trace.cases[-1][0]] += 1
    return dict(tally)


def scan_digest(shape, group, lo=0, hi=None):
    """Leader count and sha256 of the key sequence of one scan.

    The hash runs over each key in decimal with a newline after it, in the
    order the scan yields them.
    """
    h = hashlib.sha256()
    leaders = 0
    for key, _ in canonical_classes(shape, group, lo=lo, hi=hi):
        h.update(b"%d\n" % key)
        leaders += 1
    return {"leaders": leaders, "sha256": h.hexdigest()}


def two_bag_digest(sizes, d):
    """sha256 of the two-bag search's output over a shape's orbit leaders.

    The hash runs over ``repr(two_bag_cover(chi, d))`` of each leader with a
    newline after it, in scan order, so it pins every returned piece.
    """
    shape = build_shape(sizes)
    h = hashlib.sha256()
    for _, bits in canonical_classes(shape, symmetry_group(shape)):
        h.update(repr(two_bag_cover(EdgeColoring(shape, bits), d)).encode())
        h.update(b"\n")
    return h.hexdigest()


def prune_digest(sizes, d, samples, seed):
    """sha256 of the prune rules' output over a shape's colorings.

    The colorings are the shape's orbit leaders in scan order when
    ``samples`` is None, else that many random colorings drawn at ``seed``.
    The hash runs over ``repr((label, pieces))`` of
    ``ladder._prune_labeled(chi, d)`` for each, with a newline after it;
    ``pieces`` is the returned (color, mask) pairs with a non-empty mask, or
    None.  So it pins the deciding rule and every piece.
    """
    shape = build_shape(sizes)
    if samples is None:
        bits_seq = (bits for _, bits in
                    canonical_classes(shape, symmetry_group(shape)))
    else:
        rng = random.Random(seed)
        bits_seq = (rng.getrandbits(shape.m) for _ in range(samples))
    h = hashlib.sha256()
    for bits in bits_seq:
        pieces, label = ladder._prune_labeled(EdgeColoring(shape, bits), d)
        h.update(repr((label, _nonempty(pieces))).encode())
        h.update(b"\n")
    return h.hexdigest()


def _nonempty(pieces):
    """The (color, mask) pairs with a non-empty mask, or None: what a cover
    built from the pieces holds."""
    return None if pieces is None else tuple(p for p in pieces if p[1])


def decide_digest(sizes, d, prune):
    """sha256 of the ladder's decisions over a shape's orbit leaders.

    The hash runs over ``repr((label, pieces))`` of ``ladder._decide(chi, 2,
    d, prune)`` for each leader in scan order, with a newline after it;
    ``pieces`` is the returned (color, mask) pairs with a non-empty mask, or
    None.  So it pins the deciding rule and every piece, whichever rung
    produced them.
    """
    shape = build_shape(sizes)
    h = hashlib.sha256()
    for _, bits in canonical_classes(shape, symmetry_group(shape)):
        pieces, label = ladder._decide(EdgeColoring(shape, bits), 2, d, prune)
        h.update(repr((label, _nonempty(pieces))).encode())
        h.update(b"\n")
    return h.hexdigest()


def construct_digest(seed, count):
    """sha256 of the diameter-3 pipeline's output on the construct fuzz
    colorings.

    The colorings are drawn as ``mpcover fuzz --mode construct`` draws them
    (3 to 6 parts, n <= 30).  The hash runs over the cover JSON and the
    trace JSON of ``multipartite_cover`` for each, with sorted keys and a
    newline after each, so it pins every case label, witness and piece.
    """
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(count):
        chi = random_coloring(rng, _random_sizes(rng, 3, 6, 30))
        cover, trace = multipartite_cover(chi)
        for obj in (cover_to_json(cover), trace.to_json()):
            h.update(json.dumps(obj, sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()


NO_PATH = 1 << 30  # the oracle's diameter of a disconnected set


def oracle_diameters(chi):
    """Per color, the diameter of the color's graph induced on each vertex set.

    ``diam[c][S]`` for every mask S (0 for the empty set, ``NO_PATH`` when
    disconnected).  An oracle that shares no code with the engine: it reads
    only ``chi.color_of`` and ``shape.part_of``, builds neighbor lists, and
    runs a plain BFS over vertex lists from every vertex of every set.
    """
    shape = chi.shape
    n = shape.n
    diam = []
    for c in (RED, BLUE):
        nbrs = [[v for v in range(n) if shape.part_of(v) != shape.part_of(u)
                 and chi.color_of(u, v) == c] for u in range(n)]
        table = [0] * (1 << n)
        for s in range(1, 1 << n):
            members = [v for v in range(n) if s >> v & 1]
            worst = 0
            for root in members:
                dist = {root: 0}
                queue = [root]
                for u in queue:
                    for v in nbrs[u]:
                        if s >> v & 1 and v not in dist:
                            dist[v] = dist[u] + 1
                            queue.append(v)
                if len(dist) < len(members):
                    worst = NO_PATH
                    break
                worst = max(worst, dist[queue[-1]])
            table[s] = worst
        diam.append(table)
    return diam


def oracle_min_cover_d(chi, diam=None):
    """The least d at which two monochromatic pieces of diameter <= d cover V.

    Decided from ``oracle_diameters`` alone: piece S1 in its better color,
    and for the rest of V the best set of either color that contains it (a
    superset-minimum table, filled one vertex at a time).
    """
    n = chi.shape.n
    red, blue = diam or oracle_diameters(chi)
    best = [min(r, b) for r, b in zip(red, blue)]
    best[0] = NO_PATH  # a piece is not empty; a one-piece cover is S1 = V
    above = best[:]  # above[T]: the least best[S] over the sets S >= T
    for i in range(n):
        for t in range(1 << n):
            if not t >> i & 1:
                above[t] = min(above[t], above[t | 1 << i])
    full = (1 << n) - 1
    return min(max(best[s], above[full & ~s]) for s in range(1, 1 << n))


def check_against_oracle(shape, bits):
    """Assert that the survey's answer for one class matches the oracle's.

    The survey's minimal d (``search._min_cover_d`` with the survey defaults:
    prune rules on, d_max = 4) must equal the oracle's, capped at 5, and the
    engine's witness cover at that d must pass the oracle's own diameter and
    coverage checks.
    """
    chi = EdgeColoring(shape, bits)
    diam = oracle_diameters(chi)
    d, label, _ = search._min_cover_d(chi, 2, 4, True, None)
    assert d == min(oracle_min_cover_d(chi, diam), 5), \
        (shape, hex(bits), d, label)
    if d <= 4:
        pieces = _nonempty(ladder._decide(chi, 2, d, True)[0])
        covered = 0
        for c, mask in pieces:
            assert diam[c][mask] <= d, (shape, hex(bits), label)
            covered |= mask
        assert len(pieces) <= 2 and covered == shape.full_mask


def sampled_leaders(sizes, count, seed):
    """(shape, bits of ``count`` distinct orbit leaders), so no full scan is
    needed.

    Each is the first leader at or after a seeded random key.  Leaders crowd
    the low keys, so the key's bit length is drawn first, uniformly below
    m (a leader's top edge is red): uniform keys would mostly land in the
    sparse top and draw the few leaders there again and again.
    """
    shape = build_shape(sizes)
    group = symmetry_group(shape)
    rng = random.Random(seed)
    leaders = {}
    while len(leaders) < count:
        lo = rng.randrange(1 << rng.randrange(1, shape.m))
        for key, bits in canonical_classes(shape, group, lo=lo):
            leaders[key] = bits
            break
    return shape, [leaders[key] for key in sorted(leaders)]


def all_shapes_with_few_edges(max_edges):
    """Every multipartite shape (any part count >= 2) within the edge cap."""
    shapes = []
    for k in range(2, 5):
        for sizes in itertools.combinations_with_replacement(
                range(8, 0, -1), k):
            n = sum(sizes)
            m = n * (n - 1) // 2 - sum(s * (s - 1) // 2 for s in sizes)
            if m <= max_edges:
                shapes.append(sizes)
    return shapes


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
