import hashlib
import itertools
import random
from collections import Counter

import pytest

from mpcover.construct import multipartite_cover
from mpcover.covers import verify_cover
from mpcover.graphs import BLUE, RED, EdgeColoring, build_shape
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
