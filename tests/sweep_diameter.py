"""``diameter_at_most`` against a plain BFS, and the row builder against a
pair enumeration, on colorings of up to 30 vertices.

Kept out of the tier-1 suite (about twenty-five seconds), so it is named to
stay out of test discovery; run it with
``python -m pytest tests/sweep_diameter.py``.
The colorings are seeded, with the part sizes of the ``tc2`` fuzz driver
(2 to 6 parts, n <= 30).  On each, for both colors, it takes random masks
and masks on which it plants an induced path or cycle (long diameters, which
random masks almost never have), and checks the verdict at every d in
0..n + 1 and at INF.  The reference shares no code with the kernels: it
reads only ``chi.color_of`` and ``shape.part_of``, builds neighbor lists,
and runs a BFS over vertex lists from every vertex of the mask.

The same colorings check the rows that ``EdgeColoring`` builds from each
vertex's bit slice, and ``color_of``, against rows filled one edge at a time
while the vertex pairs are enumerated in bit order.
"""

import math
import random

import pytest

from mpcover.cli import _random_sizes
from mpcover.graphs import (BLUE, INF, RED, EdgeColoring, build_shape,
                            diameter_at_most)


def _bfs_diameter(chi, c, members):
    """Largest color-c distance inside ``members``; ``math.inf`` when
    disconnected, which exceeds every d, INF included."""
    shape = chi.shape
    nbrs = {u: [v for v in members if shape.part_of(v) != shape.part_of(u)
                and chi.color_of(u, v) == c] for u in members}
    worst = 0
    for root in members:
        dist = {root: 0}
        queue = [root]
        for u in queue:
            for v in nbrs[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if len(dist) < len(members):
            return math.inf
        worst = max(worst, dist[queue[-1]])
    return worst


def _walk(rng, shape, length):
    """Up to ``length`` distinct vertices, consecutive ones in different
    parts."""
    order = [rng.randrange(shape.n)]
    while len(order) < length:
        free = [v for v in range(shape.n) if v not in order
                and shape.part_of(v) != shape.part_of(order[-1])]
        if not free:
            break
        order.append(rng.choice(free))
    return order


def _plant(chi, c, order, closed):
    """chi with the color-c graph induced on ``order`` made its path (or,
    when ``closed``, its cycle): color c on consecutive pairs, the other
    color on every other pair inside the walk."""
    pairs = list(zip(order, order[1:] + order[:1] if closed else order[1:]))
    walk = {frozenset(p) for p in pairs}
    bits = chi.bits
    for i, (u, v) in enumerate(chi.shape.edges):
        if u in order and v in order:
            bits &= ~(1 << i)
            if (frozenset((u, v)) in walk) == (c == BLUE):
                bits |= 1 << i
    return EdgeColoring(chi.shape, bits)


def _cases(seed, count):
    """(chi, c, member list) triples: random masks, paths and cycles."""
    rng = random.Random(seed)
    for _ in range(count):
        shape = build_shape(_random_sizes(rng, 2, 6, 30))
        chi = EdgeColoring(shape, rng.getrandbits(shape.m))
        for c in (RED, BLUE):
            for _ in range(3):
                p = rng.choice((0.2, 0.5, 0.8))
                yield chi, c, [v for v in range(shape.n) if rng.random() < p]
            order = _walk(rng, shape, rng.randint(1, shape.n))
            yield _plant(chi, c, order, False), c, sorted(order)
            if shape.n < 3:
                continue
            order = _walk(rng, shape, rng.randint(3, shape.n))
            while len(order) > 3 and \
                    shape.part_of(order[0]) == shape.part_of(order[-1]):
                order.pop()
            if len(order) >= 3 and \
                    shape.part_of(order[0]) != shape.part_of(order[-1]):
                yield _plant(chi, c, order, True), c, sorted(order)


@pytest.mark.parametrize("seed", range(8))
def test_diameter_at_most_agrees_with_a_plain_bfs(seed):
    seen = {"long": 0, "cut": 0}
    for chi, c, members in _cases(seed, 400):
        want = _bfs_diameter(chi, c, members)
        seen["long"] += 3 < want < math.inf
        seen["cut"] += want == math.inf
        mask = sum(1 << v for v in members)
        for d in list(range(chi.n + 2)) + [INF]:
            assert diameter_at_most(chi, c, mask, d) == (want <= d), \
                (chi.shape.part_sizes, hex(chi.bits), c, members, d, want)
    # the planted walks reach the diameters a random mask does not
    assert seen["long"] >= 100 and seen["cut"] >= 100


def _pair_rows(shape, bits):
    """(red, blue) rows, one vertex pair at a time, edges counted in order."""
    rows = ([0] * shape.n, [0] * shape.n)
    i = 0
    for u in range(shape.n):
        for v in range(u + 1, shape.n):
            if shape.part_of(u) != shape.part_of(v):
                side = rows[(bits >> i) & 1]
                side[u] |= 1 << v
                side[v] |= 1 << u
                i += 1
    assert i == shape.m
    return tuple(rows[RED]), tuple(rows[BLUE])


@pytest.mark.parametrize("seed", range(8))
def test_rows_agree_with_a_pair_enumeration(seed):
    seen = set()
    for chi, _, _ in _cases(seed, 400):
        if (chi.shape, chi.bits) in seen:
            continue
        seen.add((chi.shape, chi.bits))
        shape = chi.shape
        assert chi.adj == _pair_rows(shape, chi.bits), \
            (shape.part_sizes, hex(chi.bits))
        red, blue = chi.adj
        assert all(chi.color_of(u, v) == (blue[u] >> v) & 1
                   for u in range(shape.n) for v in range(shape.n)
                   if (red[u] | blue[u]) >> v & 1)
        ones = (1 << shape.m) - 1
        for bits in (0, ones, chi.bits ^ ones):
            assert EdgeColoring(shape, bits).adj == _pair_rows(shape, bits)
        assert chi.swap_colors().adj == (blue, red)
