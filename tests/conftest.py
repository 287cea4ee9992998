import itertools
import random

import pytest

from mpcover.graphs import EdgeColoring, build_shape


def random_coloring(rng, sizes):
    shape = build_shape(sizes)
    return EdgeColoring(shape, rng.getrandbits(shape.m) if shape.m else 0)


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
