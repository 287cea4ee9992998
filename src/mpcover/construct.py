"""Constructive covers: two subgraphs of diameter <= 3 for three groups,
and two connected subgraphs with no diameter bound for any multipartite
2-coloring.

The diameter-3 pipeline is an executable case analysis driven by color-BFS
layers from a far-eccentric root.  The root is the first vertex whose ball
needs more than 3 steps to fill the graph (the bounded ``_ball_radius``
test), and only that root's distance list is computed.  The unbounded
connected cover (``tc2_cover``) grows its pieces from color components
(``graphs.component_of``).  Each case emits candidate covers that are
*always* re-checked by ``verify_cover`` before being returned, so the
pipeline doubles as a machine check of the underlying case analysis: a
coloring that defeats every case raises ``ConstructionExhausted`` with a full
trace, which would mean either a bug here or a counterexample to the
diameter-3 guarantee.

Shapes with more than three parts are handled by grouping the parts into
three groups and ignoring within-group edges during construction; the final
verification always runs against the full coloring (extra edges can only
shrink distances, never grow them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .covers import Cover, MonoSubgraph, make_cover, verify_cover
from .errors import ConstructionExhausted, InvalidShape
from .graphs import (BLUE, INF, RED, EdgeColoring, MultipartiteShape,
                     _ball_radius, _bfs_dists, bits_of, color_diameter,
                     component_of, mask_of, other_color)


@dataclass
class CaseTrace:
    """Audit trail of the pipeline: which cases ran, with witness vertices."""

    cases: list = field(default_factory=list)

    def add(self, label: str, *witnesses: int):
        self.cases.append((label, tuple(witnesses)))

    def to_json(self) -> dict:
        return {"cases": [{"label": label, "witnesses": list(w)}
                          for label, w in self.cases]}


# ============================================================================
# STARS AND DOUBLE STARS
# ============================================================================

def two_stars_at(chi: EdgeColoring, u: int) -> Cover:
    """The red star and the blue star centered at u (returned unverified).

    Covers the whole graph at diameter <= 2 exactly when u is adjacent to
    every other vertex, i.e. u's part has size 1.
    """
    chi.shape.check_vertex(u)
    return make_cover((RED, {u} | set(bits_of(chi.adj[RED][u]))),
                      (BLUE, {u} | set(bits_of(chi.adj[BLUE][u]))))


def star_doublestar_search(chi: EdgeColoring, d: int = 3):
    """First verified cover by one star plus one double star, else None.

    Exhausts all O(n^3) candidates: star centers in vertex order with the
    star color blue first, double stars in edge order (the center edge's
    color fixes the double star's color).
    """
    return _star_doublestar(chi, chi.adj, d)


def _star_doublestar(chi, rows, d):
    full = chi.shape.full_mask
    stars = []
    for c in (BLUE, RED):
        for u in range(chi.n):
            stars.append((c, u, (1 << u) | rows[c][u]))
    doubles = []
    for (u, v) in chi.shape.edges:
        if (rows[RED][u] >> v) & 1:
            c = RED
        elif (rows[BLUE][u] >> v) & 1:
            c = BLUE
        else:
            continue  # edge absent in the restricted view
        doubles.append((c, u, v, (1 << u) | (1 << v) | rows[c][u] | rows[c][v]))
    for c1, u, s1 in stars:
        if s1 == full:
            cover = make_cover((c1, bits_of(s1)), (c1, {u}))
            if verify_cover(chi, cover, d, 2) is None:
                return cover
        for c2, w1, w2, s2 in doubles:
            if s1 | s2 != full:
                continue
            cover = make_cover((c1, bits_of(s1)), (c2, bits_of(s2)))
            if verify_cover(chi, cover, d, 2) is None:
                return cover
    return None


# ============================================================================
# GROUPINGS
# ============================================================================

def balanced_grouping(shape: MultipartiteShape):
    """Greedy: each part (largest first) joins the currently-smallest group."""
    if shape.k < 3:
        raise InvalidShape("three groups need at least three parts")
    groups = [[], [], []]
    totals = [0, 0, 0]
    for p, a in enumerate(shape.part_sizes):
        g = totals.index(min(totals))
        groups[g].append(p)
        totals[g] += a
    return groups


def first_fit_grouping(shape: MultipartiteShape):
    """First part alone, second part alone, everything else in the third group."""
    if shape.k < 3:
        raise InvalidShape("three groups need at least three parts")
    return [[0], [1], list(range(2, shape.k))]


GROUPINGS = {"balanced": balanced_grouping, "first-fit": first_fit_grouping}


# ============================================================================
# THE DIAMETER-3 PIPELINE
# ============================================================================

def multipartite_cover(chi: EdgeColoring, grouping: str = "balanced"):
    """Verified cover with <= 2 monochromatic subgraphs of diameter <= 3."""
    if chi.shape.k < 3:
        raise InvalidShape("the diameter-3 cover needs at least three parts")
    groups = GROUPINGS[grouping](chi.shape)
    return tripartite_cover(chi, groups)


def tripartite_cover(chi: EdgeColoring, groups=None):
    """Run the case pipeline over a 3-group split of the parts.

    Returns (cover, trace) with the cover verified at (d=3, t=2) against the
    full coloring.  Raises ConstructionExhausted when every candidate of
    every case fails verification.
    """
    shape = chi.shape
    if groups is None:
        if shape.k != 3:
            raise InvalidShape("a shape with more than 3 parts needs an "
                               "explicit 3-group split")
        groups = [[0], [1], [2]]
    groups = [list(g) for g in groups]
    if (len(groups) != 3 or any(not g for g in groups)
            or sorted(p for g in groups for p in g) != list(range(shape.k))):
        raise InvalidShape(f"{groups!r} is not a 3-group split of the parts")

    trace = CaseTrace()
    group_of = [0] * shape.n
    gmask = [0, 0, 0]
    for gi, g in enumerate(groups):
        for p in g:
            for v in shape.part_vertices(p):
                group_of[v] = gi
                gmask[gi] |= 1 << v
    # Between-group adjacency only: the construction treats the three groups
    # as the sides of a complete tripartite graph.
    rows = tuple(tuple(chi.adj[c][v] & ~gmask[group_of[v]]
                       for v in range(shape.n)) for c in (RED, BLUE))
    full = shape.full_mask

    def emit(label, witnesses, cover, d=3):
        if verify_cover(chi, cover, d, 2) is None:
            trace.add(label, *witnesses)
            return cover
        return None

    # Case 1: a group that is a single vertex sees everything; two stars.
    for gi in range(3):
        if gmask[gi].bit_count() == 1:
            u = gmask[gi].bit_length() - 1
            got = emit("size-one-group", (u,), two_stars_at(chi, u), d=2)
            if got:
                return got, trace
            trace.add("size-one-group-failed", u)

    # Case 2: a spanning color class of diameter <= 3 finishes alone.
    for c in (RED, BLUE):
        diam = color_diameter(chi, c)
        if diam <= 3:
            got = emit("spanning", (c,),
                       make_cover((c, range(shape.n)), (other_color(c), {0})),
                       d=diam)
            if got:
                return got, trace
            trace.add("spanning-failed", c)

    # Case 3: a vertex joined to an entire group in a single color forces a
    # star + double-star cover.
    dominator = None
    for u in range(shape.n):
        for gi in range(3):
            if gi == group_of[u]:
                continue
            for c in (RED, BLUE):
                if rows[c][u] & gmask[gi] == gmask[gi]:
                    dominator = (u, gi, c)
                    break
            if dominator:
                break
        if dominator:
            break
    if dominator:
        got = _star_doublestar(chi, rows, 3)
        if got is not None:
            trace.add("dominating-vertex", *dominator[:2])
            return got, trace
        trace.add("dominating-vertex-failed", *dominator[:2])

    # Case 4+: layer the graph from a far-eccentric root.  A root exists in
    # both colors once case 2 has failed; the tie-break is red, then the
    # smallest vertex id.
    root = None
    for red in (RED, BLUE):
        for v in range(shape.n):
            if _ball_radius(rows[red], v, full, 3) > 3:
                root = (v, red)
                break
        if root:
            break
    if root is None:
        trace.add("no-far-root")
        raise ConstructionExhausted(
            "no case produced a verified cover", chi, trace)
    v, red = root
    blue = other_color(red)
    ga = group_of[v]
    gb, gc = [gi for gi in range(3) if gi != ga]
    dist = _bfs_dists(rows[red], v, shape.n)

    def layer(gi, lo, hi=None):
        hi = lo if hi is None else hi
        return [u for u in bits_of(gmask[gi])
                if lo <= min(dist[u], 4) <= hi]

    B1, C1 = layer(gb, 1), layer(gc, 1)
    B2, C2 = layer(gb, 2), layer(gc, 2)
    A2 = layer(ga, 2)
    A3 = layer(ga, 3)
    A4 = layer(ga, 4)

    def star(c, u):
        return {u} | set(bits_of(rows[c][u]))

    # Case 4: someone in the far groups is at red distance >= 4; cover with
    # two blue double stars.
    far = sorted(layer(gb, 4) + layer(gc, 4))
    if far:
        trace.add("far-group-layer", *far[:1])
        for u4 in far:
            s1 = star(blue, v) | star(blue, u4)
            for u1 in sorted(B1 + C1):
                u3_pool = (layer(ga, 3, 4) + layer(gc, 3, 4) if u1 in B1
                           else layer(ga, 3, 4) + layer(gb, 3, 4))
                u3_pool.sort(key=lambda u: (min(dist[u], 4), u))
                for u3 in u3_pool:
                    if not (rows[blue][u1] >> u3) & 1:
                        continue
                    s2 = star(blue, u1) | star(blue, u3)
                    if mask_of(s1 | s2) != full:
                        continue
                    got = emit("double-stars", (v, u4, u1, u3),
                               make_cover((blue, s1), (blue, s2)))
                    if got:
                        return got, trace
        trace.add("double-stars-failed")

    # Case 5: someone in the far groups at red distance exactly 2; peel the
    # root group's middle layers against the blue bulk.
    if B2 or C2:
        trace.add("middle-layer", *(sorted(B2 + C2)[:1]))
        for x in sorted(B2 + C2):
            bulk = (full & ~mask_of(A2 + A3)) | rows[blue][x] | (1 << x)
            got = emit("layer2-peel", (x,),
                       make_cover((blue, bits_of(bulk)), (red, star(red, x))))
            if got:
                return got, trace
        trace.add("layer2-peel-failed")

    if A3:
        # Provably empty at this point; record the oddity and keep going.
        trace.add("layer3-nonempty", *A3[:2])

    B3, C3 = layer(gb, 3, 4), layer(gc, 3, 4)
    cycle = {v} | set(B3) | set(C1) | set(A4) | set(B1) | set(C3)

    # Case 6: a blue edge between the two distance-1 layers pulls the rest of
    # the graph into the blue cycle blow-up.
    blue_bridge = [(b, cv) for b in B1 for cv in C1
                   if (rows[blue][b] >> cv) & 1]
    if blue_bridge:
        trace.add("blue-bridge", *blue_bridge[0])
        for b, cv in blue_bridge:
            for x in (b, cv):
                gstar = cycle | star(blue, x)
                got = emit("bridge-peel", (x,),
                           make_cover((blue, gstar), (red, star(red, x))))
                if got:
                    return got, trace
        trace.add("bridge-peel-failed")

    # Case 7: all cross edges between the distance-1 layers are red; split
    # the root group's distance-2 layer between a blue cycle blow-up and the
    # red cross-block.
    b1mask, c1mask = mask_of(B1), mask_of(C1)
    if any((rows[blue][b] & c1mask) for b in B1):
        trace.add("cross-edges-not-all-red")
    red_side, blue_side = a2_split(rows, A2, b1mask, c1mask)
    blue_piece = cycle | blue_side
    red_piece = set(B1) | set(C1) | red_side
    got = emit("cycle-blowup-split", (v,),
               make_cover((blue, blue_piece), (red, red_piece)))
    if got:
        return got, trace
    trace.add("cycle-blowup-split-failed")

    raise ConstructionExhausted(
        "no case produced a verified cover", chi, trace)


def a2_split(rows, A2, b1mask: int, c1mask: int):
    """(red side, blue side) of the distance-2 root-group layer.

    A vertex is red-side when its edges to one in-layer side are all red, or
    it has a red foothold in both; the rest are blue-side (each of which then
    has a blue foothold in both in-layers and an all-blue side).
    """
    red_side, blue_side = set(), set()
    for x in A2:
        blue, red = rows[BLUE][x], rows[RED][x]
        if not blue & b1mask or not blue & c1mask \
                or (red & b1mask and red & c1mask):
            red_side.add(x)
        else:
            blue_side.add(x)
    return red_side, blue_side


# ============================================================================
# CONNECTED COVERS WITHOUT A DIAMETER BOUND
# ============================================================================

def tc2_cover(chi: EdgeColoring) -> Cover:
    """Two monochromatic connected subgraphs covering any >= 2-part coloring.

    Splits the parts into the first part versus the rest, grows the red
    component of the first vertex and covers the leftovers with blue blocks.
    When the red component is a lone vertex and would strand its part-mates,
    the color roles are swapped (the swapped run lands in a clean case).
    """
    shape = chi.shape
    if shape.k < 2:
        raise InvalidShape("connected 2-covers need at least two parts")
    amask = mask_of(shape.part_vertices(0))
    bmask = shape.full_mask & ~amask
    v = 0
    for red in (RED, BLUE):
        blue = other_color(red)
        comp = component_of(chi.adj[red], v)
        a1, b1 = comp & amask, comp & bmask
        if a1 == amask:
            cover = make_cover((red, bits_of(comp)),
                               (blue, bits_of(component_of(chi.adj[blue], v))))
        elif b1 == bmask:
            cover = make_cover((red, bits_of(comp)),
                               (blue, bits_of((amask & ~a1) | bmask)))
        else:
            if b1 == 0 and (amask & ~a1).bit_count() >= 2:
                continue  # would strand the rest of the first part; swap colors
            cover = make_cover((blue, bits_of((amask & ~a1) | b1)),
                               (blue, bits_of(a1 | (bmask & ~b1))))
        if len(cover) < 2:
            cover = Cover(cover.subgraphs + (MonoSubgraph(blue, frozenset({v})),))
        if verify_cover(chi, cover, INF, 2) is None:
            return cover
    raise ConstructionExhausted("connected 2-cover construction failed", chi)
