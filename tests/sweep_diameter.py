"""The graph kernels against a plain BFS, and the row builder against a
pair enumeration, on colorings of up to 30 vertices: ``diameter_at_most``,
``diameter_in_mask``, the eccentricity-skip sweep ``_far_vertex`` and the
ball walk ``_balls`` inside masks, and ``far_masks``, ``component_of`` and
``bilayer_partition`` in the full color graph.

Kept out of the tier-1 suite (about fifty seconds), so it is named to
stay out of test discovery; run it with
``python -m pytest tests/sweep_diameter.py``.
The colorings are seeded, with the part sizes of the ``tc2`` fuzz driver
(2 to 6 parts, n <= 30).  On each, for both colors, it takes random masks
and masks on which it plants an induced path or cycle (long diameters, which
random masks almost never have), or a broom or lollipop whose hub is the
mask's lowest vertex (where the sweep clears vertices next to far ones).  It
checks the verdict and the lowest far vertex at every d in 0..n + 1 and at
INF, the exact diameter, and each member's balls, one by one.  The first
150 colorings of each seed, planted ones included, also check the full-graph
kernels: ``far_masks`` at every d in 0..n + 1 and at INF, each vertex's
``component_of``, and, in blue, the layers of every clone pair.  The
reference shares no code with the kernels: it reads only ``chi.color_of``
and ``shape.part_of``, builds neighbor lists, and runs a BFS over vertex
lists from every vertex of the mask.

The same colorings check the rows that ``EdgeColoring`` builds from each
vertex's bit slice, and ``color_of``, against rows filled one edge at a time
while the vertex pairs are enumerated in bit order.
"""

import math
import random

import pytest

from conftest import far_vertex_of
from mpcover.cli import _random_sizes
from mpcover.graphs import (BLUE, INF, RED, EdgeColoring, _balls,
                            bilayer_partition, build_shape, component_of,
                            diameter_at_most, diameter_in_mask, far_masks)


def _bfs_distances(chi, c, members):
    """Each member's color-c distances inside ``members``, as
    {root: {vertex it reaches: distance}}."""
    shape = chi.shape
    nbrs = {u: [v for v in members if shape.part_of(v) != shape.part_of(u)
                and chi.color_of(u, v) == c] for u in members}
    dists = {}
    for root in members:
        dist = {root: 0}
        queue = [root]
        for u in queue:
            for v in nbrs[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        dists[root] = dist
    return dists


def _eccentricities(dists):
    """Each member's largest distance, all ``math.inf`` when the members
    are disconnected (it exceeds every d, INF included)."""
    if any(len(dist) < len(dists) for dist in dists.values()):
        return dict.fromkeys(dists, math.inf)
    return {root: max(dist.values()) for root, dist in dists.items()}


def _ball_list(dist):
    """The masks of the vertices within distance 0, 1, ... of a root, up to
    the farthest vertex it reaches."""
    balls = [0] * (max(dist.values()) + 1)
    for v, e in dist.items():
        balls[e] |= 1 << v
    for r in range(1, len(balls)):
        balls[r] |= balls[r - 1]
    return balls


def _walk(rng, shape, length, order=None, avoid=()):
    """``order`` (a random vertex when None) extended to up to ``length``
    distinct vertices outside ``avoid``, consecutive ones in different
    parts."""
    order = order or [rng.randrange(shape.n)]
    while len(order) < length:
        free = [v for v in range(shape.n) if v not in order and v not in avoid
                and shape.part_of(v) != shape.part_of(order[-1])]
        if not free:
            break
        order.append(rng.choice(free))
    return order


def _plant(chi, c, members, pairs):
    """chi with the color-c graph induced on ``members`` made the graph of
    ``pairs``: color c on those pairs, the other color on every other pair
    inside ``members``."""
    pairs = {frozenset(p) for p in pairs}
    bits = chi.bits
    for i, (u, v) in enumerate(chi.shape.edges):
        if u in members and v in members:
            bits &= ~(1 << i)
            if (frozenset((u, v)) in pairs) == (c == BLUE):
                bits |= 1 << i
    return EdgeColoring(chi.shape, bits)


def _broom(rng, shape, candy):
    """(members, pairs): two arms from a hub, the lowest member, and at the
    end of the second up to three bristles or, with ``candy``, up to three
    pairwise joined vertices (a lollipop)."""
    hub = rng.randrange(shape.n // 2)
    below = set(range(hub + 1))
    arm = _walk(rng, shape, rng.randint(1, 7), [hub], below)
    handle = _walk(rng, shape, rng.randint(2, 8), [hub], below | set(arm))
    end = handle[-1]
    tip = []
    for v in rng.sample(range(hub + 1, shape.n), shape.n - hub - 1):
        if len(tip) < 3 and v not in arm + handle \
                and shape.part_of(v) != shape.part_of(end) \
                and not (candy and any(shape.part_of(v) == shape.part_of(w)
                                       for w in tip)):
            tip.append(v)
    pairs = [*zip(arm, arm[1:]), *zip(handle, handle[1:])]
    pairs += [(end, v) for v in tip]
    if candy:
        pairs += [(v, w) for i, v in enumerate(tip) for w in tip[i + 1:]]
    return sorted(set(arm + handle + tip)), pairs


def _cases(seed, count):
    """(chi, c, member list) triples: random masks, paths, cycles, brooms
    and lollipops."""
    rng = random.Random(seed)
    for _ in range(count):
        shape = build_shape(_random_sizes(rng, 2, 6, 30))
        chi = EdgeColoring(shape, rng.getrandbits(shape.m))
        for c in (RED, BLUE):
            for _ in range(3):
                p = rng.choice((0.2, 0.5, 0.8))
                yield chi, c, [v for v in range(shape.n) if rng.random() < p]
            order = _walk(rng, shape, rng.randint(1, shape.n))
            yield _plant(chi, c, order, list(zip(order, order[1:]))), c, \
                sorted(order)
            if shape.n < 3:
                continue
            for candy in (False, True):
                members, pairs = _broom(rng, shape, candy)
                yield _plant(chi, c, members, pairs), c, members
            order = _walk(rng, shape, rng.randint(3, shape.n))
            while len(order) > 3 and \
                    shape.part_of(order[0]) == shape.part_of(order[-1]):
                order.pop()
            if len(order) >= 3 and \
                    shape.part_of(order[0]) != shape.part_of(order[-1]):
                yield _plant(chi, c, order,
                             list(zip(order, order[1:] + order[:1]))), c, \
                    sorted(order)


@pytest.mark.parametrize("seed", range(8))
def test_diameter_kernels_agree_with_a_plain_bfs(seed):
    seen = {"long": 0, "cut": 0, "far-past-skip": 0}
    for chi, c, members in _cases(seed, 400):
        dists = _bfs_distances(chi, c, members)
        ecc = _eccentricities(dists)
        want = max(ecc.values(), default=0)
        seen["long"] += 3 < want < math.inf
        seen["cut"] += want == math.inf
        mask = sum(1 << v for v in members)
        at = (chi.shape.part_sizes, hex(chi.bits), c, members)
        rows = chi.adj[c]
        for u in members:
            # ball by ball to u's eccentricity in its component, and cut at d
            balls = _balls(rows, u, mask, INF)
            assert balls == _ball_list(dists[u]), (*at, u)
            for d in range(4):
                assert _balls(rows, u, mask, d) == balls[:d + 1], (*at, u, d)
        assert diameter_in_mask(chi, c, mask) == min(want, INF), at
        skipped = False
        for d in list(range(chi.n + 2)) + [INF]:
            assert diameter_at_most(chi, c, mask, d) == (want <= d), (*at, d)
            far = min((u for u in members if ecc[u] > d), default=None)
            assert far_vertex_of(chi.adj[c], mask, d) == far, (*at, d)
            # the lowest vertex's ball fills the mask, so the sweep clears
            # a ball around it, yet some vertex is far
            skipped |= far is not None and ecc[members[0]] <= d
        seen["far-past-skip"] += skipped
    # the planted walks reach the diameters a random mask does not
    assert seen["long"] >= 100 and seen["cut"] >= 100
    assert seen["far-past-skip"] >= 1000


@pytest.mark.parametrize("seed", range(8))
def test_full_graph_kernels_agree_with_a_plain_bfs(seed):
    seen = {"cut": 0, "long": 0, "bilayer": 0}
    done = set()
    for chi, c, _ in _cases(seed, 150):
        if (chi, c) in done:
            continue
        done.add((chi, c))
        shape, n = chi.shape, chi.n
        at = (shape.part_sizes, hex(chi.bits), c)
        dists = _bfs_distances(chi, c, range(n))
        seen["cut"] += len(dists[0]) < n
        seen["long"] += max(max(dist.values()) for dist in dists.values()) > 3
        for v in range(n):
            assert component_of(chi.adj[c], v) == \
                sum(1 << w for w in dists[v]), (*at, v)
        balls = [_ball_list(dists[u]) for u in range(n)]
        for d in [*range(n + 2), INF]:
            assert far_masks(chi, c, d) == tuple(
                shape.full_mask & ~ball[min(d, len(ball) - 1)]
                for ball in balls), (*at, d)
        if c == BLUE:
            for x, xp in shape.clone_pairs:
                seen["bilayer"] += 1
                for end, layers in zip((x, xp), bilayer_partition(chi, x)):
                    want = [None, 0, 0, 0]
                    for v in range(n):
                        if v not in (x, xp):
                            want[min(dists[end].get(v, 3), 3)] |= 1 << v
                    assert list(layers) == want, (*at, x, end)
    # disconnected color graphs, distances past 3 (planted walks) and
    # clone pairs all occur
    assert seen["cut"] >= 50 and seen["long"] >= 300
    assert seen["bilayer"] >= 300


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
