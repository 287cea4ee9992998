"""Constructive covers: two subgraphs of diameter <= 3 for three groups,
and two connected subgraphs with no diameter bound for any multipartite
2-coloring.

The diameter-3 pipeline is an executable case analysis driven by red BFS
layers from a far-eccentric root.  The root is the first vertex whose red
ball of radius 3 misses part of the graph (``graphs._far_vertex``, which
skips the balls of vertices it can bound by a near one), and the cases
read that root's distance layers as masks: layer r is its ball of radius r
minus its ball of radius r - 1, and layer 4 is everything outside the ball
of radius 3.
The unbounded connected cover (``tc2_cover``) grows its pieces from color
components (``graphs.component_of``).  The cases are one generator
(``_cases``) of candidates as (color, mask) pieces, in the order tried; it
writes the case notes to the trace as it goes.  Both constructions are
producers in the sense of ``covers``: they test each candidate once with
``certifies_masks`` and build a ``Cover`` only for the winner, which their
callers verify.  So the pipeline doubles as a machine check of the
underlying case analysis: a coloring that defeats every case raises
``ConstructionExhausted`` with a full trace, which would mean either a bug
here or a counterexample to the diameter-3 guarantee.

Shapes with more than three parts are handled by grouping the parts into
three groups and ignoring within-group edges during construction; each
candidate is still certified against the full coloring (extra edges can only
shrink distances, never grow them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .covers import Cover, certifies_masks, cover_from_masks
from .errors import ConstructionExhausted, InvalidShape
from .graphs import (BLUE, INF, RED, EdgeColoring, MultipartiteShape,
                     _ball, _far_vertex, bits_of, component_of, mask_of,
                     other_color)


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

def star_doublestar_search(chi: EdgeColoring, d: int = 3):
    """(color, mask) pieces of the first star plus double star that
    certify, else None.

    Exhausts all O(n^3) candidates: star centers in vertex order with the
    star color blue first, double stars in edge order (the center edge's
    color fixes the double star's color).
    """
    for pieces in _star_doublestar(chi, chi.adj):
        if certifies_masks(chi, pieces, d, 2):
            return pieces
    return None


def _star_doublestar(chi, rows):
    """The star + double-star pieces of the rows that cover V, in the order
    ``star_doublestar_search`` tries them."""
    full = chi.shape.full_mask
    doubles = []  # one per edge uv of the rows, u < v, in edge order
    for u in range(chi.n):
        for v in bits_of((rows[RED][u] | rows[BLUE][u]) & -(2 << u)):  # v > u
            c = RED if (rows[RED][u] >> v) & 1 else BLUE
            doubles.append((c, (1 << u) | (1 << v) | rows[c][u] | rows[c][v]))
    for c1 in (BLUE, RED):
        for u in range(chi.n):
            s1 = (1 << u) | rows[c1][u]
            if s1 == full:
                yield (c1, s1), (c1, 1 << u)
            for c2, s2 in doubles:
                if s1 | s2 == full:
                    yield (c1, s1), (c2, s2)


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

    Returns (cover, trace): the cover is the first candidate that
    ``certifies_masks`` accepts at (d=3, t=2) against the full coloring.
    Raises ConstructionExhausted when it accepts none.
    """
    shape = chi.shape
    if groups is None:
        if shape.k != 3:
            raise InvalidShape("a shape with more than 3 parts needs an "
                               "explicit 3-group split")
        groups = [[0], [1], [2]]
    groups = [list(g) for g in groups]
    parts = [p for g in groups for p in g]
    if (len(groups) != 3 or any(not g for g in groups)
            or any(type(p) is not int for p in parts)  # no bool, no 2.0
            or sorted(parts) != list(range(shape.k))):
        raise InvalidShape(f"{groups!r} is not a 3-group split of the parts")

    trace = CaseTrace()
    for label, witnesses, pieces, d in _cases(chi, groups, trace):
        if certifies_masks(chi, pieces, d, 2):
            trace.add(label, *witnesses)
            return cover_from_masks(pieces), trace
    raise ConstructionExhausted(
        "no case produced a certified cover", chi, trace)


def _cases(chi, groups, trace):
    """(case label, witnesses, pieces, d) of the pipeline's candidates, in
    the order tried.

    The case notes (a case that starts, fails or meets an oddity) go to the
    trace as the candidates are drawn, so they land where the loop in
    ``tripartite_cover`` stands.
    """
    shape = chi.shape
    group_of = [0] * shape.n
    gmask = [0, 0, 0]
    for gi, g in enumerate(groups):
        for p in g:
            for v in shape.part_vertices(p):
                group_of[v] = gi
                gmask[gi] |= 1 << v
    full = shape.full_mask

    # Case 1: a group that is a single vertex sees everything; two stars.
    for gi in range(3):
        if gmask[gi].bit_count() == 1:
            u = gmask[gi].bit_length() - 1
            yield "size-one-group", (u,), (
                (RED, chi.adj[RED][u] | 1 << u),
                (BLUE, chi.adj[BLUE][u] | 1 << u)), 2
            trace.add("size-one-group-failed", u)

    # Case 2: a spanning color class of diameter <= 3 finishes alone.
    for c in (RED, BLUE):
        yield "spanning", (c,), ((c, full), (other_color(c), 1)), 3

    # Between-group adjacency only: from here on the construction treats the
    # three groups as the sides of a complete tripartite graph.
    rows = tuple(tuple(chi.adj[c][v] & ~gmask[group_of[v]]
                       for v in range(shape.n)) for c in (RED, BLUE))

    def star(c, u):
        return rows[c][u] | 1 << u

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
        for pieces in _star_doublestar(chi, rows):
            yield "dominating-vertex", dominator[:2], pieces, 3
        trace.add("dominating-vertex-failed", *dominator[:2])

    # Case 4+: layer the graph from a far-eccentric red root, the smallest
    # vertex id whose red ball needs more than 3 steps.  Case 2 ends every
    # coloring of red diameter <= 3, and between-group rows only lengthen
    # distances, so a red root exists past it; only a harness that rejects
    # every candidate gets here with none, and the loop then raises.
    v = _far_vertex(rows[RED], full, 3)
    if v is None:
        trace.add("no-far-root")
        return
    ga = group_of[v]
    gb, gc = [gi for gi in range(3) if gi != ga]
    # the root's red balls of radius 0 to 3, then the whole graph: layer
    # r >= 1 is ball[r] minus ball[r - 1], and layer 4 is farther or
    # unreachable
    ball = [_ball(rows[RED], v, r, full) for r in range(4)] + [full]

    def layer(gi, lo, hi=None):
        return ball[lo if hi is None else hi] & ~ball[lo - 1] & gmask[gi]

    B1, C1 = layer(gb, 1), layer(gc, 1)
    B2, C2 = layer(gb, 2), layer(gc, 2)
    A2 = layer(ga, 2)
    A3 = layer(ga, 3)
    A4 = layer(ga, 4)

    # Case 4: someone in the far groups is at red distance >= 4; cover with
    # two blue double stars.
    far = layer(gb, 4) | layer(gc, 4)
    if far:
        trace.add("far-group-layer", next(bits_of(far)))
        for u4 in bits_of(far):
            s1 = star(BLUE, v) | star(BLUE, u4)
            for u1 in bits_of(B1 | C1):
                # u1's blue neighbors in the root group and in the other far
                # group, layer 3 before layer 4
                other = gc if (B1 >> u1) & 1 else gb
                pool = rows[BLUE][u1] & (gmask[ga] | gmask[other])
                for lay in (ball[3] & ~ball[2], full & ~ball[3]):
                    for u3 in bits_of(pool & lay):
                        s2 = star(BLUE, u1) | star(BLUE, u3)
                        if s1 | s2 != full:
                            continue
                        yield ("double-stars", (v, u4, u1, u3),
                               ((BLUE, s1), (BLUE, s2)), 3)
        trace.add("double-stars-failed")

    # Case 5: someone in the far groups at red distance exactly 2; peel the
    # root group's middle layers against the blue bulk.
    if B2 | C2:
        trace.add("middle-layer", next(bits_of(B2 | C2)))
        for x in bits_of(B2 | C2):
            bulk = (full & ~(A2 | A3)) | star(BLUE, x)
            yield "layer2-peel", (x,), ((BLUE, bulk), (RED, star(RED, x))), 3
        trace.add("layer2-peel-failed")

    if A3:
        # Provably empty at this point; record the oddity and keep going.
        trace.add("layer3-nonempty", *list(bits_of(A3))[:2])

    cycle = (1 << v) | layer(gb, 3, 4) | C1 | A4 | B1 | layer(gc, 3, 4)

    # Case 6: a blue edge between the two distance-1 layers pulls the rest of
    # the graph into the blue cycle blow-up.
    blue_bridge = [(b, cv) for b in bits_of(B1)
                   for cv in bits_of(rows[BLUE][b] & C1)]
    if blue_bridge:
        trace.add("blue-bridge", *blue_bridge[0])
        for b, cv in blue_bridge:
            for x in (b, cv):
                gstar = cycle | star(BLUE, x)
                yield ("bridge-peel", (x,),
                       ((BLUE, gstar), (RED, star(RED, x))), 3)
        trace.add("bridge-peel-failed")

    # Case 7: all cross edges between the distance-1 layers are red; split
    # the root group's distance-2 layer between a blue cycle blow-up and the
    # red cross-block.  A vertex is red-side when its edges to one
    # distance-1 layer are all red, or it has a red foothold in both; the
    # rest (each with a blue foothold in both and an all-blue side) go blue.
    # The root is red for the reason case 4+ gives: case 2 ends every
    # coloring of red diameter <= 3, and between-group rows only lengthen
    # distances.
    if blue_bridge:
        trace.add("cross-edges-not-all-red")
    red_side = 0
    for x in bits_of(A2):
        xblue, xred = rows[BLUE][x], rows[RED][x]
        if not xblue & B1 or not xblue & C1 or (xred & B1 and xred & C1):
            red_side |= 1 << x
    yield ("cycle-blowup-split", (v,),
           ((BLUE, cycle | (A2 & ~red_side)), (RED, B1 | C1 | red_side)), 3)
    trace.add("cycle-blowup-split-failed")


# ============================================================================
# CONNECTED COVERS WITHOUT A DIAMETER BOUND
# ============================================================================

def tc2_cover(chi: EdgeColoring) -> Cover:
    """Two monochromatic connected subgraphs covering any >= 2-part coloring.

    Splits the parts into the first part versus the rest, grows the red
    component of the first vertex and covers the leftovers with blue blocks.
    When the red component is a lone vertex and would strand its part-mates,
    the color roles are swapped (the swapped run lands in a clean case).
    Each color role's candidate is tested once with ``certifies_masks``;
    raises ConstructionExhausted when neither passes.
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
            pieces = ((red, comp), (blue, component_of(chi.adj[blue], v)))
        elif b1 == bmask:
            pieces = ((red, comp), (blue, (amask & ~a1) | bmask))
        else:
            if b1 == 0 and (amask & ~a1).bit_count() >= 2:
                continue  # would strand the rest of the first part; swap colors
            pieces = ((blue, (amask & ~a1) | b1), (blue, a1 | (bmask & ~b1)))
        if certifies_masks(chi, pieces, INF, 2):
            return cover_from_masks(pieces)
    raise ConstructionExhausted("connected 2-cover construction failed", chi)
