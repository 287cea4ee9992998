"""Complete multipartite graphs with 2-edge-colorings.

A shape K_{a1,...,ak} is stored as its part-size vector sorted descending;
vertices 0..n-1 are numbered so that each part occupies a contiguous block.
Edges (u < v, u and v in different parts) are ordered lexicographically and a
2-coloring is a dense bitstring over that order: bit i = 1 means edge i is
blue, 0 means red.  All distance work runs on per-color bitmask adjacency
rows, so a BFS step is one OR-fold over the frontier (``_grow``).  A survey
steps those rows from one orbit leader to the next (``recolored``), which
touches only the edges whose bit differs, rather than rebuilding them.

The kernels walk a color graph in three ways.  ``_balls`` is the one
bounded walk: a vertex's balls of radius 0, 1, ..., d in the graph induced
on a mask, grown one OR-fold at a time and cut short once a ball fills the
mask or stops growing.  Its last ball is the radius-d ball: ``far_masks``
(d != 2) is the complement of each vertex's, ``component_of`` is one of
radius n, ``diameter_at_most`` grows one from the mask's lowest vertex when
d >= |mask| - 1, and the diameter-3 pipeline takes its root's balls of
radius 0 to 3 from one list.  The eccentricity-skip sweeps of
``_far_vertex`` and ``diameter_in_mask`` read every ball of the list.  A
radius-2 ball needs none of that: the row is the first fold, so u | row |
``_grow(rows, row)`` is the ball, with no frontier, list or stop test.  The
two sites that need the ball itself take it inline: ``far_masks`` at d = 2
and each end's layer 2 in ``bilayer_partition``.  The third walk,
``_bfs_dists``, is the reference BFS, one vertex's distance list, behind
``EdgeColoring.distances`` and ``color_distance``.

A mask has diameter <= d exactly when each vertex's radius-d ball fills it.
``diameter_at_most`` tests a clique with one AND per vertex at d = 1, grows
a single ball, a connectivity test, when d >= |mask| - 1, since a connected
mask of k vertices has diameter at most k - 1, and otherwise first bounds a
dominated mask, one vertex adjacent to all the others, at diameter 2 when
d >= 2; stars and the covers built from them are dominated.  Past that, at
d = 2, it grows no ball: the diameter is at most 2 exactly when every two
non-adjacent vertices share a neighbor in the mask, which ``_pairs_meet``
tests with one AND per such pair, each pair once.  The surveys decide
nearly every piece at d = 2, and the spanning rung
``ladder._spanning_diameter`` runs the same test on the full mask.  At
d >= 3 it asks ``_far_vertex`` for the lowest vertex whose radius-d ball
misses part of the mask.  That sweep rests on ecc(w) <= dist(u, w) + ecc(u)
(Takes and Kosters, CIKM 2011): once the balls of a center u fill the mask
at radius r, every vertex within d - r of u has eccentricity at most d and
grows no ball.  At d = 2 no vertex left by the dominator scan has
eccentricity below 2, so the sweep would clear only each center and grow a
ball per vertex, where the pair test grows none.  The diameter-3 pipeline
finds its far root with the sweep too, and the exact ``diameter_in_mask``
runs it against its running maximum.  ``remap_edges`` carries edges through
a vertex map onto a shape's edge indices (relabelings, file vertex orders,
symmetries and clone extensions).

The prune rules AND the blue distance layers of a clone pair (the two
vertices of a size-2 part), masks from ``bilayer_partition``, into cells.

In edge order, the edges from a vertex u to the vertices past its part are
one run of consecutive bits, u's slice, and their ends are consecutive
vertices too.  So a shape keeps per vertex the slice's offset, a mask of its
width and its first end, and no edge list.  A coloring builds its blue rows
from the slices: u's row past its part is its slice shifted into place, and
peeling the slice's set bits fills the rows below u.  Red is what blue
leaves of each vertex's cross-part mask.  The edge list and its index, which
``recolored``, the relabelings, the file format and ``color_of`` read, are
built on a shape's first read of them.
"""

from __future__ import annotations

from .errors import EmptySet, InvalidShape, InvalidVertex, NoUniqueClone

# Colors.  Blue is color 1 and is the bit value 1 in stored bitstrings.
RED = 0
BLUE = 1
COLORS = (RED, BLUE)
COLOR_NAMES = {RED: "red", BLUE: "blue"}

# Largest vertex count a shape may have.  Far above every real use (the
# fuzz drivers stay at n <= 30).  Building a shape enumerates no vertex
# pairs; the cap bounds ``1 << m``, which every bits check builds, and the
# O(n^2) edge list built on its first read.
MAX_VERTICES = 1024

# Distance sentinel for "unreachable"; larger than any real distance and
# stable under the +1 arithmetic done by bounded scans.
INF = 1 << 30


def other_color(c: int) -> int:
    return 1 - c


def color_from_name(name: str) -> int:
    try:
        return {"red": RED, "blue": BLUE}[name]
    except KeyError:
        raise InvalidShape(f"unknown color name {name!r}")


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int):
    """Yield the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ============================================================================
# SHAPES
# ============================================================================

class MultipartiteShape:
    """Canonical complete multipartite shape.

    Immutable; equality and hashing go by the part-size vector.
    ``slices[u]`` is u's bit slice (offset, width mask, first vertex past
    u's part), and ``cross[u]`` the mask of the vertices outside u's part.
    ``edges`` and ``edge_index`` are built on first read.
    """

    __slots__ = ("part_sizes", "n", "k", "part_id", "part_start", "clone",
                 "clone_pairs", "slices", "cross", "m", "full_mask",
                 "_edges", "_edge_index")

    def __init__(self, part_sizes):
        # checked before sorting; a bool is no part size, though it is an int
        if not part_sizes or any(type(a) is not int or a < 1 for a in part_sizes):
            raise InvalidShape(f"part sizes must be a nonempty list of "
                               f"positive integers, got {list(part_sizes)!r}")
        sizes = tuple(sorted(part_sizes, reverse=True))
        n = sum(sizes)
        if n > MAX_VERTICES:
            raise InvalidShape(f"shape has {n} vertices; at most "
                               f"{MAX_VERTICES} are supported")
        self.part_sizes = sizes
        self.k = len(sizes)
        self.n = n
        self.full_mask = full = (1 << n) - 1
        part_id = []
        starts = []
        clone = []  # the co-part vertex in a size-2 part, else None
        slices = []
        cross = []
        m = 0
        at = 0
        for p, a in enumerate(sizes):
            starts.append(at)
            part_id.extend([p] * a)
            clone.extend((at + 1, at) if a == 2 else [None] * a)
            end = at + a
            width = n - end
            cross.extend([full ^ ((1 << end) - (1 << at))] * a)
            for _ in range(a):
                slices.append((m, (1 << width) - 1, end))
                m += width
            at = end
        self.part_id = tuple(part_id)
        self.part_start = tuple(starts)
        self.clone = tuple(clone)
        self.clone_pairs = tuple((s, s + 1) for s, a in zip(starts, sizes)
                                 if a == 2)  # (x, x') per size-2 part
        self.slices = tuple(slices)
        self.cross = tuple(cross)
        self.m = m
        self._edges = self._edge_index = None

    @property
    def edges(self) -> tuple:
        """The edges (u, v), u < v, in bit order; built on first read."""
        if self._edges is None:
            n = self.n
            self._edges = tuple((u, v)
                                for u, (_, _, end) in enumerate(self.slices)
                                for v in range(end, n))
        return self._edges

    @property
    def edge_index(self) -> dict:
        """Each edge's bit position; built on first read."""
        if self._edge_index is None:
            self._edge_index = {e: i for i, e in enumerate(self.edges)}
        return self._edge_index

    def part_of(self, u: int) -> int:
        self.check_vertex(u)
        return self.part_id[u]

    def part_vertices(self, p: int) -> range:
        return range(self.part_start[p], self.part_start[p] + self.part_sizes[p])

    def clone_of(self, u: int) -> int:
        """The co-part vertex of u; defined only in a part of size 2."""
        self.check_vertex(u)
        if self.clone[u] is None:
            raise NoUniqueClone(f"vertex {u} lies in a part of size "
                                f"{self.part_sizes[self.part_id[u]]}, not 2")
        return self.clone[u]

    def check_vertex(self, u: int) -> None:
        if (not isinstance(u, int) or isinstance(u, bool)
                or not 0 <= u < self.n):
            raise InvalidVertex(f"vertex {u!r} outside 0..{self.n - 1}")

    def __eq__(self, other):
        return (isinstance(other, MultipartiteShape)
                and self.part_sizes == other.part_sizes)

    def __hash__(self):
        return hash(self.part_sizes)

    def __repr__(self):
        return f"MultipartiteShape({list(self.part_sizes)})"


def build_shape(part_sizes) -> MultipartiteShape:
    """Canonicalize a part-size list into a shape (sizes sorted descending)."""
    return MultipartiteShape(part_sizes)


# ============================================================================
# COLORINGS
# ============================================================================

class EdgeColoring:
    """A 2-coloring of a shape's edges, stored as a bitstring (1 = blue).

    Immutable; per-color adjacency rows are precomputed at construction.
    """

    __slots__ = ("shape", "bits", "adj")

    def __init__(self, shape: MultipartiteShape, bits: int):
        if type(bits) is not int or not 0 <= bits < (1 << shape.m):  # no bool
            raise InvalidShape(f"bits {bits!r} out of range for {shape.m} edges")
        self.shape = shape
        self.bits = bits
        # u's blue row past its part is its bit slice, shifted into place;
        # peeling that row's bits fills the blue rows of the vertices below
        blue = [0] * shape.n
        for u, (off, width, end) in enumerate(shape.slices):
            row = ((bits >> off) & width) << end
            blue[u] |= row
            bu = 1 << u
            while row:
                low = row & -row
                blue[low.bit_length() - 1] |= bu
                row ^= low
        self.adj = (tuple([c & ~b for c, b in zip(shape.cross, blue)]),
                    tuple(blue))

    @classmethod
    def _of_rows(cls, shape, bits, red, blue) -> "EdgeColoring":
        """The coloring ``bits`` with its rows given, trusted as they are."""
        chi = object.__new__(cls)
        chi.shape = shape
        chi.bits = bits
        chi.adj = (red, blue)
        return chi

    def recolored(self, bits: int) -> "EdgeColoring":
        """The coloring ``bits`` of the same shape, stepped from this one.

        Equal to ``EdgeColoring(self.shape, bits)``: the rows are copied and
        only the edges whose bit differs are moved between the two colors,
        so a coloring a few edges away costs a few row updates.
        """
        shape = self.shape
        if type(bits) is not int or not 0 <= bits < (1 << shape.m):
            raise InvalidShape(f"bits {bits!r} out of range for {shape.m} edges")
        red, blue = list(self.adj[RED]), list(self.adj[BLUE])
        edges = shape.edges
        flip = self.bits ^ bits
        while flip:
            low = flip & -flip
            u, v = edges[low.bit_length() - 1]
            bu, bv = 1 << u, 1 << v
            red[u] ^= bv
            red[v] ^= bu
            blue[u] ^= bv
            blue[v] ^= bu
            flip ^= low
        return EdgeColoring._of_rows(shape, bits, tuple(red), tuple(blue))

    @classmethod
    def from_edges(cls, shape: MultipartiteShape, colored_edges) -> "EdgeColoring":
        """Build from [(u, v, color)] covering every edge exactly once."""
        seen = set()
        bits = 0
        for u, v, c in colored_edges:
            if isinstance(c, str):
                c = color_from_name(c)
            e = (u, v) if u < v else (v, u)
            i = shape.edge_index.get(e)
            if i is None:
                raise InvalidShape(f"{e} is not an edge of {shape!r}")
            if i in seen:
                raise InvalidShape(f"edge {e} colored twice")
            seen.add(i)
            if c == BLUE:
                bits |= 1 << i
        if len(seen) != shape.m:
            raise InvalidShape(f"{shape.m - len(seen)} edges left uncolored")
        return cls(shape, bits)

    @classmethod
    def all_same(cls, shape: MultipartiteShape, c: int) -> "EdgeColoring":
        return cls(shape, (1 << shape.m) - 1 if c == BLUE else 0)

    @property
    def n(self) -> int:
        return self.shape.n

    def color_of(self, u: int, v: int) -> int:
        """The color of the edge uv.

        ``InvalidVertex`` unless u and v are vertices in different parts; a
        bool is no vertex id, though it is an int.
        """
        shape = self.shape
        i = shape.edge_index.get((u, v) if u < v else (v, u)) \
            if type(u) is int and type(v) is int else None
        if i is None:
            shape.check_vertex(u)
            shape.check_vertex(v)
            if shape.part_id[u] != shape.part_id[v]:  # an int subclass
                return self.color_of(int(u), int(v))
            raise InvalidVertex(f"vertices {u} and {v} lie in one part; "
                                f"no edge joins them")
        return (self.bits >> i) & 1

    def swap_colors(self) -> "EdgeColoring":
        """The other color on every edge: the two colors' rows trade places."""
        return EdgeColoring._of_rows(self.shape,
                                     self.bits ^ ((1 << self.shape.m) - 1),
                                     self.adj[BLUE], self.adj[RED])

    def permute(self, perm) -> "EdgeColoring":
        """Coloring with vertex u relabeled perm[u] (must respect parts).

        ``InvalidVertex`` unless perm is a permutation of the vertex ids; a
        bool is no vertex id, though it is an int.
        """
        shape = self.shape
        if any(type(v) is not int for v in perm) or \
                sorted(perm) != list(range(shape.n)):
            raise InvalidVertex(f"{perm!r} is not a permutation of 0..{shape.n - 1}")
        for p in range(shape.k):
            images = {shape.part_id[perm[u]] for u in shape.part_vertices(p)}
            if len(images) != 1:
                raise InvalidVertex(f"permutation splits part {p} across "
                                    f"parts {sorted(images)}")
        return EdgeColoring(shape, mask_of(
            remap_edges(shape.edges, perm, shape, self.bits)))

    def distances(self, c: int):
        """All-pairs color-c distance matrix (tuple of tuples, INF-padded)."""
        return tuple(tuple(_bfs_dists(self.adj[c], v, self.shape.n))
                     for v in range(self.shape.n))

    def __eq__(self, other):
        return (isinstance(other, EdgeColoring)
                and self.shape == other.shape and self.bits == other.bits)

    def __hash__(self):
        return hash((self.shape.part_sizes, self.bits))

    def __repr__(self):
        return (f"EdgeColoring({list(self.shape.part_sizes)}, "
                f"bits=0x{self.bits:x})")


def _grow(rows, frontier: int) -> int:
    """One BFS step: the OR of the adjacency rows of the frontier's vertices.

    Peels the frontier's low bits inline; a ``bits_of`` generator here costs
    a frame switch per vertex on the hottest loop of every kernel.
    """
    grow = 0
    while frontier:
        low = frontier & -frontier
        grow |= rows[low.bit_length() - 1]
        frontier ^= low
    return grow


def _balls(rows, u: int, allowed: int, d: int) -> list:
    """u's balls of radius 0, 1, ... in the graph induced on ``allowed``.

    The list ends at radius d, or at the first ball that fills the mask or
    stops growing.  So the last ball is u's radius-d ball (u's component in
    the mask when d >= |mask| - 1), and u's eccentricity in the mask is its
    last index when that ball is ``allowed``.
    """
    ball = 1 << u
    balls = [ball]
    frontier = rows[u] & allowed if d else 0
    while frontier:
        ball |= frontier
        balls.append(ball)
        if len(balls) > d or ball == allowed:
            break
        frontier = _grow(rows, frontier) & allowed & ~ball
    return balls


def _far_vertex(rows, allowed: int, d: int):
    """The ``_balls`` list of the lowest vertex of ``allowed`` whose radius-d
    ball misses part of it, in the graph induced on the mask; None when
    there is none.  The list's first ball is the far vertex alone.

    Takes & Kosters' eccentricity skip: ecc(w) <= dist(u, w) + ecc(u).  The
    sweep grows the balls of the lowest vertex u it has not yet cleared.  If
    they fill the mask at radius r <= d, every vertex within d - r of u has
    eccentricity at most d and is cleared with u, and grows no ball of its
    own.  Otherwise u is far, and the lowest such vertex, since each vertex
    below it was grown or cleared.
    """
    todo = allowed
    while todo:
        u = (todo & -todo).bit_length() - 1
        balls = _balls(rows, u, allowed, d)
        if balls[-1] != allowed:
            return balls
        r = len(balls) - 1
        todo &= ~balls[min(d - r, r)]
    return None


def _pairs_meet(rows, allowed: int) -> bool:
    """Whether every two non-adjacent vertices of ``allowed`` share a
    neighbor in it: the graph induced on the mask has diameter <= 2.

    Each vertex w takes its row cut to the mask and peels the vertices below
    it that the row misses; the first such u whose row meets none of w's
    neighbors in the mask decides False.  So each pair costs one AND, and is
    tested once, from its upper end.  The peeling runs from the highest
    vertex down, with one ``bit_length`` per vertex: on the d = 2 calls of a
    [5,2,2] survey it took 0.066 s against 0.090 s lowest-first.

    ``ladder._supported`` is the same pair test for one vertex against a bag
    that grows in the two-bag search; this loop inlines it rather than call
    it per vertex (with ``exb = ~allowed``), because the call cost the
    survey: on the [5,2,2] calls the kernel took about a third longer, and
    ``survey-522``'s ``colorings_per_s`` fell from 32 950 to 31 360
    (medians of 10 alternated runs on a 2-vCPU VM, slower in 8).
    """
    rest = allowed
    while rest:
        w = rest.bit_length() - 1
        rest ^= 1 << w
        row = rows[w] & allowed
        far = rest & ~row
        while far:
            u = far.bit_length() - 1
            if not rows[u] & row:
                return False
            far ^= 1 << u
    return True


def component_of(rows, v: int) -> int:
    """Mask of v's component in the graph with these adjacency rows."""
    return _balls(rows, v, (1 << len(rows)) - 1, len(rows))[-1]


def _bfs_dists(adj_rows, root: int, n: int):
    """Distance list from root (INF for the vertices it cannot reach)."""
    dist = [INF] * n
    dist[root] = 0
    seen = 1 << root
    frontier = seen
    d = 0
    while frontier:
        nxt = _grow(adj_rows, frontier) & ~seen
        d += 1
        for v in bits_of(nxt):
            dist[v] = d
        seen |= nxt
        frontier = nxt
    return dist


def canonical_vertex_map(part_of, sizes) -> list:
    """Canonical number of each vertex u, u lying in part ``part_of[u]``.

    Parts go in order of ``sizes[p]`` descending, ties by part index, and a
    part's vertices keep their relative order.
    """
    order = sorted(range(len(part_of)),
                   key=lambda u: (-sizes[part_of[u]], part_of[u]))
    vmap = [0] * len(order)
    for new, old in enumerate(order):
        vmap[old] = new
    return vmap


def remap_edges(edges, vmap, shape: MultipartiteShape, bits: int = -1) -> list:
    """Edge indices in ``shape`` of the images of the edges set in ``bits``.

    Edge i = (u, v) of ``edges`` maps to the edge (vmap[u], vmap[v]) of
    ``shape``; the default ``bits`` takes every edge, in order.
    """
    idx = shape.edge_index
    out = []
    for i, (u, v) in enumerate(edges):
        if (bits >> i) & 1:
            a, b = vmap[u], vmap[v]
            out.append(idx[(a, b) if a < b else (b, a)])
    return out


# ============================================================================
# DISTANCES AND DIAMETERS
# ============================================================================

def color_distance(chi: EdgeColoring, c: int, u: int, v: int) -> int:
    """Shortest color-c path length between u and v (INF if none)."""
    chi.shape.check_vertex(u)
    chi.shape.check_vertex(v)
    return _bfs_dists(chi.adj[c], u, chi.n)[v]


def color_diameter(chi: EdgeColoring, c: int, S=None) -> int:
    """Diameter of the color-c graph induced on S (INF if disconnected).

    S defaults to the whole vertex set; a singleton has diameter 0.
    """
    if S is None:
        vs = range(chi.n)
        allowed = chi.shape.full_mask
    else:
        vs = sorted(set(S))
        if not vs:
            raise EmptySet("diameter of an empty vertex set")
        for v in vs:
            chi.shape.check_vertex(v)
        allowed = mask_of(vs)
    return diameter_in_mask(chi, c, allowed)


def far_masks(chi: EdgeColoring, c: int, d: int) -> tuple:
    """Per vertex u, the mask of vertices v != u at color-c distance > d.

    Distances are taken in the full color-c graph, and unreachable vertices
    count as far: each mask is the complement of u's radius-d ball.  Entry u
    is in v's mask exactly when v is in u's.  At d = 2 that ball is u, its
    row and one fold of the row, with none of the stop tests of ``_balls``;
    ``diameter_at_most`` needs no ball there (``_pairs_meet``).
    """
    rows = chi.adj[c]
    full = chi.shape.full_mask
    if d == 2:
        return tuple(full & ~(1 << u | row | _grow(rows, row))
                     for u, row in enumerate(rows))
    return tuple(full & ~_balls(rows, u, full, d)[-1] for u in range(chi.n))


def diameter_in_mask(chi: EdgeColoring, c: int, allowed: int) -> int:
    """Diameter of the color-c graph induced on a vertex bitmask.

    A sweep as in ``_far_vertex``: the lowest vertex not yet cleared grows
    its ``_balls`` until one fills the mask, at radius r, its eccentricity,
    and ``best`` keeps the largest r.  Every vertex within best - r of that
    vertex is then cleared, since none of them can raise ``best``, which
    only grows.  INF when the first vertex's full ball misses part of the
    mask.  An empty mask has diameter 0.
    """
    rows = chi.adj[c]
    best = 0
    todo = allowed
    while todo:
        balls = _balls(rows, (todo & -todo).bit_length() - 1, allowed, INF)
        if balls[-1] != allowed:
            return INF
        r = len(balls) - 1
        best = max(best, r)
        todo &= ~balls[min(best - r, r)]
    return best


def diameter_at_most(chi: EdgeColoring, c: int, allowed: int, d: int) -> bool:
    """``diameter_in_mask(chi, c, allowed) <= d``, with early exit.

    At d = 1 the mask must be a clique: one AND per vertex, no ball.  At
    d >= |mask| - 1 the bound cannot bind, since a connected mask of k
    vertices has diameter at most k - 1: one ball from the mask's lowest
    vertex decides it (the unbounded covers, verified at d = n or INF, take
    this path).  Otherwise, at d >= 2 a vertex adjacent in color c to every
    other vertex of the mask dominates it, which bounds the diameter by 2: a
    scan of one AND per vertex looks for one before any ball is grown.  Then,
    at d = 2, the pair test ``_pairs_meet``: each non-adjacent pair of the
    mask must share a neighbor in it, one AND per pair, stopping with False
    at the first pair that shares none; the sweep below could clear no
    vertex there but its center.  At d >= 3, True when ``_far_vertex``
    finds no far vertex, which grows balls only from the vertices its
    eccentricity bound cannot clear.  At d = 0 only a mask of at most one
    vertex passes.  An empty mask is vacuously True.
    """
    if d < 0:
        return False
    rows = chi.adj[c]
    rest = allowed
    if d == 1:
        while rest:
            low = rest & -rest
            if allowed & ~rows[low.bit_length() - 1] != low:
                return False
            rest ^= low
        return True
    if d >= allowed.bit_count() - 1:
        low = allowed & -allowed
        return not low or \
            _balls(rows, low.bit_length() - 1, allowed, d)[-1] == allowed
    if d == 0:
        return False  # two or more vertices
    while rest:
        low = rest & -rest
        if allowed & ~rows[low.bit_length() - 1] == low:
            return True
        rest ^= low
    if d >= 3:
        return _far_vertex(rows, allowed, d) is None
    return _pairs_meet(rows, allowed)


def bilayer_partition(chi: EdgeColoring, x: int):
    """Blue distance layers of a size-2-part vertex x and of its clone x'.

    ``(lx, lxp)``, each ``(None, L1, L2, L3)``: the masks of V minus the pair
    at blue distance 1, 2 and at least 3 (unreachable included).  Layer 2 is
    one fold past the end's row, as in ``far_masks`` at d = 2.  Cell (i, j)
    is ``lx[i] & lxp[j]``; the nine cells tile V minus the pair.
    """
    xp = chi.shape.clone_of(x)
    rows, full = chi.adj[BLUE], chi.shape.full_mask
    rest = full & ~(1 << x | 1 << xp)

    def layers(v):
        near = rows[v] & rest
        mid = _grow(rows, rows[v]) & rest & ~near
        return None, near, mid, rest & ~(near | mid)

    return layers(x), layers(xp)


# ============================================================================
# FILE FORMAT
# ============================================================================

def coloring_to_json(chi: EdgeColoring, compact: bool = False, labels=None) -> dict:
    """Standard coloring JSON; ``compact`` emits the hex bitstring form."""
    obj = {"parts": list(chi.shape.part_sizes)}
    if compact:
        obj["bits"] = f"{chi.bits:x}"
    else:
        obj["edges"] = [[u, v, COLOR_NAMES[(chi.bits >> i) & 1]]
                        for i, (u, v) in enumerate(chi.shape.edges)]
    if labels:
        obj["labels"] = dict(labels)
    return obj


def coloring_from_json(obj: dict) -> EdgeColoring:
    """Read either the edge-list or the hex-bits coloring form.

    Part sizes may appear in any order; vertices are renumbered to the
    canonical layout (sizes descending, stable for ties, blocks contiguous).
    """
    raw_sizes = obj.get("parts") if isinstance(obj, dict) else None
    if not (isinstance(raw_sizes, list)
            and all(type(a) is int for a in raw_sizes)):
        raise InvalidShape("coloring JSON needs a 'parts' list of integers")
    shape = build_shape(raw_sizes)
    file_part = [p for p, a in enumerate(raw_sizes) for _ in range(a)]
    vmap = canonical_vertex_map(file_part, raw_sizes)

    if "edges" in obj:
        entries = obj["edges"]
        if not isinstance(entries, list):
            raise InvalidShape("coloring JSON 'edges' must be a list")
        colored = []
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 3
                    and all(type(u) is int and 0 <= u < shape.n
                            for u in entry[:2])
                    and (isinstance(entry[2], str)
                         or (type(entry[2]) is int and entry[2] in COLORS))):
                raise InvalidShape(f"edge entry {entry!r} is not [u, v, color] "
                                   f"with u, v in 0..{shape.n - 1}")
            u, v, c = entry
            colored.append((vmap[u], vmap[v], c))
        return EdgeColoring.from_edges(shape, colored)
    if "bits" in obj:
        hex_bits = obj["bits"]
        # int(x, 16) alone would take a sign, a 0x prefix, "_" and spaces
        if not (isinstance(hex_bits, str) and hex_bits
                and set(hex_bits) <= set("0123456789abcdefABCDEF")):
            raise InvalidShape(f"coloring JSON 'bits' must be a hex string, "
                               f"got {hex_bits!r}")
        file_bits = int(hex_bits, 16)
        if file_bits >> shape.m:
            raise InvalidShape("bitstring longer than the edge count")
        file_edges = [(u, v) for u in range(shape.n) for v in range(u + 1, shape.n)
                      if file_part[u] != file_part[v]]
        return EdgeColoring(shape, mask_of(
            remap_edges(file_edges, vmap, shape, file_bits)))
    raise InvalidShape("coloring JSON needs 'edges' or 'bits'")
