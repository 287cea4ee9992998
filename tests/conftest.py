import hashlib
import itertools
import json
import os
import random
from collections import Counter

import pytest

from mpcover.construct import multipartite_cover
from mpcover.covers import verify_cover
from mpcover.graphs import BLUE, RED, EdgeColoring, build_shape
from mpcover.search import check_monotone_extension, two_bag_cover
from mpcover.symmetry import canonical_classes, symmetry_group


def random_coloring(rng, sizes):
    shape = build_shape(sizes)
    return EdgeColoring(shape, rng.getrandbits(shape.m) if shape.m else 0)


def two_star_pieces(chi, u):
    """The red and the blue star centered at u, as (color, mask) pieces."""
    return [(c, chi.adj[c][u] | 1 << u) for c in (RED, BLUE)]


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
