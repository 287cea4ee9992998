"""The per-coloring decision: a cover by t monochromatic pieces of diameter <= d.

``find_cover`` decides whether a coloring admits a cover by t monochromatic
pieces of diameter <= d (t in {1, 2}).  The decision ladder (``_decide``)
runs its rungs from cheap to expensive: counting bounds, the spanning
diameter (at d = 2, on shapes with no size-1 part, the pair test
``_pairs_meet`` on the full mask: each non-adjacent pair must share a
neighbor, one AND per pair), two stars at a size-1 part's vertex, the
clone-pair prune rules, star + double-star pairs, and last the exhaustive
two-bag search, which takes its conflicts from radius-d balls in the full
color graph (``far_masks``) and so stays exact.  Every d = 2 diameter test
of a piece (``verify_cover``, the hints through ``certifies_masks``, the
near-clone rings, the two-bag leaves) goes through ``diameter_at_most``,
whose d = 2 test past its dominator scan is the same pair test.  At d = 1
a clique-pair filter rejects first but never supplies the cover; it tests
its cliques with ``diameter_at_most`` at d = 1, one AND per vertex.

One tester takes the construction candidates: the two stars and the prune
rules are generators of (label, pieces) candidates in the order tried
(``_two_star_candidates``, ``_prune_candidates``), and ``_first_verified``
checks each one's (color, mask) pieces once with ``verify_cover``.  The
prune generator builds only candidates that can win: it skips a coverage
gap before building the candidate, and pairs a star with a 5-cycle ring
only when the ring passes ``diameter_at_most`` at d, since a star always
passes.  On every shape surveyed, that leaves no construction candidate
that fails ``verify_cover``; the tester's one OR against an empty piece or
a gap stays as a guard.  The searched rungs (tiny, spanning,
``_late_rungs``) reject far too often for that path, so they test their own
candidates and hand ``_decide`` one winner's pieces, which it checks with
``verify_cover``.  So every positive answer is backed by pieces that passed
it, checked once, and ``_first_verified``, ``_prune_labeled`` and
``_decide`` return those very pieces.  No ``Cover`` is built on a survey's
path: ``find_cover`` and ``prune_with_constructions`` build one
(``cover_from_masks``) for their callers, and ``cover_exists`` builds none.
``_prune_labeled`` and ``prune_with_constructions`` run the prune rules
alone through the same tester.  The ladder sees one coloring at a time; key
ranges, checkpoints and pools belong to the survey engine (``search``).

Below the counting bound (``lowest_d``) every d is rejected before any
rung runs.  A survey may also hand the ladder a list of hints: the two-bag
winners of its chunk at the same d, most recent first, at most ``HINTS`` of
them.  Consecutive orbit leaders differ in about two edges, so their two-bag
covers often coincide.  The hints are tried last, after the clique-pair
filter and just before ``two_bag_cover``; a hint that certifies is returned
as "trichotomy" and moves to the front, and otherwise the fresh winner goes
to the front.  ``two_bag_cover`` is exhaustive over two-piece covers, so it
succeeds whenever a hint certifies: the label and the minimal d are those of
a run without hints.  ``find_cover`` passes no hints, so its witnesses do
not depend on what was decided before.
"""

from __future__ import annotations

from .construct import star_doublestar_search
from .covers import certifies_masks, cover_from_masks, verify_cover
from .errors import InvalidParameter, Unsupported
from .graphs import (BLUE, RED, EdgeColoring, MultipartiteShape, _pairs_meet,
                     bilayer_partition, bits_of, diameter_at_most, far_masks,
                     other_color)

# Bag color pairs for the exhaustive search, in the order tried.  Same-color
# pairs are required: two components of one color can form a cover.  For two
# colors the search ignores which bag is which (conflicts, the d = 2 support
# test, the suffix kill and ``certifies_masks`` all treat the bags alike), so
# (RED, BLUE) would fail exactly when (BLUE, RED) has.
_PAIR_ORDER = ((BLUE, RED), (BLUE, BLUE), (RED, RED))

_SECTOR_ORDER = ((RED, RED), (RED, BLUE), (BLUE, RED), (BLUE, BLUE))

# Most two-bag winners a hint list keeps.
HINTS = 4


def _star_mask(chi: EdgeColoring, c: int, v: int) -> int:
    return chi.adj[c][v] | (1 << v)


def _spanning_diameter(chi: EdgeColoring, c: int, d: int) -> bool:
    """Whether the whole color-c graph has diameter <= d (early exit).

    Only a size-1 part's vertex can dominate V.  So at d = 2 on a shape with
    no size-1 part the pair test ``_pairs_meet`` runs on the full mask at
    once, with no scan for a dominating vertex: every two non-adjacent
    vertices must share a color-c neighbor.  Every other case goes to
    ``diameter_at_most``.
    """
    full = chi.shape.full_mask
    if d != 2 or chi.shape.part_sizes[-1] == 1:
        return diameter_at_most(chi, c, full, d)
    return _pairs_meet(chi.adj[c], full)


def _two_star_candidates(chi: EdgeColoring):
    """("two-stars", pieces) for the red and the blue star of each size-1
    part's vertex.

    At any other vertex the pair misses the vertex's co-part vertices, so it
    can never cover.
    """
    shape = chi.shape
    for p, size in enumerate(shape.part_sizes):
        if size == 1:
            u = shape.part_start[p]
            yield "two-stars", ((RED, _star_mask(chi, RED, u)),
                                (BLUE, _star_mask(chi, BLUE, u)))


def _clique_pair_exists(chi: EdgeColoring) -> bool:
    """Whether two monochromatic cliques cover V: the two-bag question at d = 1.

    A piece of diameter <= 1 is a monochromatic clique, and so is any subset
    of one.  So a cover exists exactly when some monochromatic clique K
    through vertex 0 leaves V minus K empty or a monochromatic clique.  A
    stack DFS grows K one common neighbor at a time; the vertices that can no
    longer join K must all lie in V minus K, so a branch dies as soon as they
    are no clique of either color.
    """
    full = chi.shape.full_mask
    for rows in chi.adj:
        stack = [(1, rows[0])]  # (clique K, vertices adjacent to all of K)
        while stack:
            clique, cand = stack.pop()
            out = full & ~(clique | cand)
            if not (diameter_at_most(chi, RED, out, 1)
                    or diameter_at_most(chi, BLUE, out, 1)):
                continue
            if not cand:
                return True
            low = cand & -cand
            cand ^= low
            stack.append((clique, cand))
            stack.append((clique | low, cand & rows[low.bit_length() - 1]))
    return False


# ============================================================================
# EXHAUSTIVE TWO-BAG SEARCH
# ============================================================================

def two_bag_cover(chi: EdgeColoring, d: int):
    """(color, mask) pieces of a 2-bag cover at diameter d; None if impossible.

    Every vertex is assigned to bag 1, bag 2, or both; bags get colors from
    ``_PAIR_ORDER``.  Two vertices conflict in a bag of color c when their
    radius-d balls in the full color-c graph miss each other
    (``far_masks``).  Full-graph distances bound induced distances from
    below, so a conflicting pair can share no bag and no feasible assignment
    is cut.  At d = 2 a support test prunes further: v joins a bag only if
    each bag vertex u not adjacent to v shares with v a neighbor not yet
    excluded from the bag, one AND of whole rows per such u.  The bags of a
    leaf cover V by construction, so a leaf is decided by the two diameter
    checks alone.
    """
    far = (far_masks(chi, RED, d), far_masks(chi, BLUE, d))
    pop = [[m.bit_count() for m in masks] for masks in far]
    for c1, c2 in _PAIR_ORDER:
        pieces = _two_bag_pair(chi, d, c1, c2, far, pop)
        if pieces is not None:
            return pieces
    return None


def _supported(rows, v: int, inb: int, exb: int) -> bool:
    """The d = 2 support test of v against the vertices already in a bag.

    Each bag vertex u not adjacent to v needs a common neighbor outside the
    excluded mask; the low bits of those u are peeled inline.  It is the
    pair test of ``graphs._pairs_meet`` for one vertex, against the vertices
    not yet excluded rather than a fixed mask; ``_pairs_meet`` inlines the
    same loop, since a call per vertex there slowed the survey.
    """
    row = rows[v]
    keep = row & ~exb
    rest = inb & ~row
    while rest:
        low = rest & -rest
        if not rows[low.bit_length() - 1] & keep:
            return False
        rest ^= low
    return True


def _two_bag_pair(chi: EdgeColoring, d: int, c1: int, c2: int, far, pop):
    n = chi.n
    conf1, conf2 = far[c1], far[c2]
    adj1, adj2 = chi.adj[c1], chi.adj[c2]
    # most-constrained vertices first; the stable sort keeps ties ascending
    pop1, pop2 = pop[c1], pop[c2]
    order = sorted(range(n), key=lambda v: -(pop1[v] + pop2[v]))
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (1 << order[i])
    same = c1 == c2
    support = d == 2

    # bar1/bar2: the vertices in conflict with some vertex already in bag
    # 1/2 (the OR of their conflict masks), so no longer placeable there;
    # ex1/ex2: the vertices placed outside bag 1/2.  Each bag's test is
    # taken once per vertex and shared by the choices (both, 1 only, 2 only),
    # tried in that order.
    def dfs(i, in1, in2, ex1, ex2, bar1, bar2):
        if i == n:
            if (diameter_at_most(chi, c1, in1, d)
                    and diameter_at_most(chi, c2, in2, d)):
                return (c1, in1), (c2, in2)
            return None
        # a later vertex already barred from both bags kills the branch
        if suffix[i] & bar1 & bar2:
            return None
        v = order[i]
        bv = 1 << v
        ok1 = not bar1 & bv and (not support or _supported(adj1, v, in1, ex1))
        ok2 = not bar2 & bv and (not support or _supported(adj2, v, in2, ex2))
        if ok1:
            if ok2:
                got = dfs(i + 1, in1 | bv, in2 | bv, ex1, ex2,
                          bar1 | conf1[v], bar2 | conf2[v])
                if got is not None:
                    return got
            got = dfs(i + 1, in1 | bv, in2, ex1, ex2 | bv,
                      bar1 | conf1[v], bar2)
            if got is not None:
                return got
        if ok2 and not (same and i == 0):
            return dfs(i + 1, in1, in2 | bv, ex1 | bv, ex2, bar1,
                       bar2 | conf2[v])
        return None

    try:
        return dfs(0, 0, 0, 0, 0, 0, 0)
    finally:
        # dfs refers to itself through its closure cell; emptying the cell
        # breaks that cycle, so refcounting frees the closure on return
        del dfs


# ============================================================================
# CLONE-BASED PRUNING RULES
# ============================================================================

def _first_verified(chi: EdgeColoring, d: int, candidates):
    """(pieces, label) of the first (label, two pieces) candidate whose
    pieces pass ``verify_cover`` at t = 2, or (None, "none").

    A candidate with an empty piece or a coverage gap is dropped with one OR
    and never reaches ``verify_cover``.  The ladder's generators yield no
    such candidate, so the OR is only a guard.
    """
    full = chi.shape.full_mask
    for label, pieces in candidates:
        (_, m1), (_, m2) = pieces
        if (m1 and m2 and m1 | m2 == full
                and verify_cover(chi, pieces, d, 2) is None):
            return pieces, label
    return None, "none"


def _prune_labeled(chi: EdgeColoring, d: int):
    """(verified pieces, rule label) from the cheap constructions, or
    (None, "none")."""
    return _first_verified(chi, d, _prune_candidates(chi, d))


def _prune_candidates(chi: EdgeColoring, d: int):
    """(rule label, pieces) of the cheap constructions, in the order tried.

    Rules in order: two stars at one vertex; an empty sent-color sector of a
    clone pair (both opposite-color stars); a vertex far from both ends of a
    clone pair (red-star pairs and star surgeries); a vertex adjacent to one
    end and far from the other (star plus a 5-cycle blow-up, with red-star
    fallbacks).  Soundness is by verification, never by derivation.

    Only candidates that can win are built.  The red-star pairs and the
    pairs with a ring can leave a coverage gap, so each is tested against
    the vertices its first piece misses (``need``, one mask per base, or
    one OR with the ring) before its tuple is built.  A ring is yielded
    only when it passes ``diameter_at_most`` at d: its partner is a star,
    of diameter at most 2, so a covering candidate with a ring fails
    ``verify_cover`` exactly when its ring fails.  A dropped candidate
    would have failed ``_first_verified``, so no label or piece moves.

    A far vertex y with a clone y' adjacent to base alone gets no red star
    of y with the blue star of y'.  A vertex w that those two stars miss is
    blue to y and red to y', so they cover V exactly when the clone sector
    (blue at y, red at y') is empty.  Then clone-star has already yielded
    these very pieces, and stars have diameter <= 2 <= d, so that earlier
    candidate has won.
    """
    shape = chi.shape
    if shape.part_sizes[-1] == 1:  # sizes descend; no generator otherwise
        yield from _two_star_candidates(chi)

    pairs = shape.clone_pairs
    clone = shape.clone
    adj = chi.adj
    full = shape.full_mask

    for x, xp in pairs:
        for v, vp in ((x, xp), (xp, x)):
            for i, j in _SECTOR_ORDER:
                if not (adj[i][v] & adj[j][vp]):
                    ci, cj = other_color(i), other_color(j)
                    yield "clone-star", ((ci, _star_mask(chi, ci, v)),
                                         (cj, _star_mask(chi, cj, vp)))

    for x, xp in pairs:  # one pass per clone pair; orientations handle the swap
        lx, lxp = bilayer_partition(chi, x)
        # lb, lc: the layers of base and cob; cell (i, j) is lb[i] & lc[j]
        for base, cob, lb, lc in ((x, xp, lx, lxp), (xp, x, lxp, lx)):
            # far from both ends
            red_base = _star_mask(chi, RED, base)
            need = full & ~red_base  # what y's red star must hold
            for y in bits_of(lb[3] & ~lc[1]):
                red_y = _star_mask(chi, RED, y)
                if not need & ~red_y:
                    yield "far-clone", ((RED, red_base), (RED, red_y))
                yp = clone[y]
                if yp is None:
                    continue
                if ((lb[1] & lc[1]) >> yp) & 1:
                    yield "far-clone", (
                        (RED, _star_mask(chi, RED, cob) | 1 << base),
                        (BLUE, _star_mask(chi, BLUE, cob)))
                elif ((lb[1] & ~lc[1]) >> yp) & 1:
                    yield "far-clone", (
                        (RED, _star_mask(chi, RED, yp) | 1 << y | 1 << base),
                        (BLUE, _star_mask(chi, BLUE, yp)))

            # adjacent to base, far from its clone
            near_y = lb[1] & lc[3]
            if not near_y:
                continue
            near_cob = lc[1] & ~lb[1]
            ring_core = (1 << base) | (1 << cob) | (lb[2] & lc[2]) | near_cob
            blue_base = _star_mask(chi, BLUE, base)
            red_cob = _star_mask(chi, RED, cob)
            need_blue, need_cob = full & ~blue_base, full & ~red_cob
            for y in bits_of(near_y):
                yp = clone[y]
                ring = ring_core | 1 << y
                if yp is not None:
                    ring &= ~(1 << yp)
                if yp is None or not (near_cob >> yp) & 1:
                    if (not need_blue & ~ring
                            and diameter_at_most(chi, RED, ring, d)):
                        yield "near-clone", ((BLUE, blue_base), (RED, ring))
                elif ((lb[3] & lc[1]) >> yp) & 1:
                    red_yp = _star_mask(chi, RED, yp)
                    if (red_yp | ring == full
                            and diameter_at_most(chi, RED, ring, d)):
                        yield "near-clone", ((RED, red_yp), (RED, ring))
                    if not need_cob & ~red_yp:
                        yield "near-clone", ((RED, red_yp), (RED, red_cob))


def prune_with_constructions(chi: EdgeColoring, d: int = 2):
    """Verified cover from the cheap construction rules, or None."""
    pieces = _prune_labeled(chi, d)[0]
    return None if pieces is None else cover_from_masks(pieces)


def survivor_property_violations(chi: EdgeColoring, has_cover: bool):
    """Structural facts every prune survivor must satisfy; [] when clean.

    A coloring that reached the exhaustive stage with pruning on can have no
    empty sent-color sector and no vertex far from both ends of a clone pair
    (those patterns always yield certified covers).  When additionally no
    2-bag diameter-2 cover exists, vertices adjacent to exactly one end of a
    clone pair must have their own clones in the mirrored near-cell.  A
    violation signals a bug in the pruning rules, not a mathematical finding.
    """
    shape = chi.shape
    clone = shape.clone
    out = []
    pairs = shape.clone_pairs
    for v, vp in pairs:
        for i, j in _SECTOR_ORDER:
            if not (chi.adj[i][v] & chi.adj[j][vp]):
                out.append(f"empty-sector v={v} pair=({i},{j})")
    for x, _ in pairs:
        lx, lxp = bilayer_partition(chi, x)
        for i, j in ((3, 2), (2, 3), (3, 3)):
            if lx[i] & lxp[j]:
                out.append(f"far-cell x={x} cell=({i},{j})")
        if not has_cover:
            for y in bits_of(lx[1] & lxp[3]):
                yp = clone[y]
                if yp is None or not ((lx[2] & lxp[1]) >> yp) & 1:
                    out.append(f"clone-location x={x} y={y}")
            for z in bits_of(lx[3] & lxp[1]):
                zp = clone[z]
                if zp is None or not ((lx[1] & lxp[2]) >> zp) & 1:
                    out.append(f"clone-location x={x} z={z}")
    return out


# ============================================================================
# DECISION LADDER
# ============================================================================

def lowest_d(shape: MultipartiteShape, t: int) -> int:
    """The counting bound: no cover by t pieces has a smaller diameter.

    0 when t singletons cover V; otherwise 1, or 2 when a part has more than
    t vertices, since diameter-0 pieces are singletons and t cliques hold at
    most t vertices of a part.
    """
    if shape.n <= t:
        return 0
    return 2 if shape.part_sizes[0] > t else 1


def _decide(chi: EdgeColoring, t: int, d: int, prune: bool, hints=None):
    """(verified (color, mask) pieces | None, label of the deciding rule).

    The counting bound, tiny and spanning (with t = 1 nothing else can
    cover), at d >= 2 the construction candidates through
    ``_first_verified`` (only the two stars with the prune rules off), then
    ``_late_rungs``.  A searched rung's winner is checked once with
    ``verify_cover`` here, on the very tuple returned, and one that fails is
    an internal error.
    ``hints`` is a survey chunk's list of recent two-bag winners at d, or
    None.
    """
    shape = chi.shape
    if d < lowest_d(shape, t):
        return None, "none"
    pieces = None
    if chi.n <= t:
        pieces, label = tuple((BLUE, 1 << v) for v in range(chi.n)), "tiny"
    elif d >= 2 or shape.part_sizes[0] == 1:
        # at d = 1 two vertices of one part (not adjacent) rule out spanning
        for c in (RED, BLUE):
            if _spanning_diameter(chi, c, d):
                pieces, label = ((c, shape.full_mask),), "spanning"
                break
    if pieces is None:
        if t == 1:
            return None, "none"
        if d >= 2:
            pieces, label = (_prune_labeled(chi, d) if prune else
                             _first_verified(chi, d, _two_star_candidates(chi)))
            if pieces is not None:
                return pieces, label
        pieces, label = _late_rungs(chi, d, hints)
        if pieces is None:
            return None, label
    violation = verify_cover(chi, pieces, d, t)
    if violation is not None:
        raise RuntimeError(f"rule {label!r} returned a cover that fails "
                           f"verify_cover: {violation.describe()}")
    return pieces, label


def _late_rungs(chi: EdgeColoring, d: int, hints=None):
    """((color, mask) pieces | None, label) of the two-piece rungs after the
    constructions.

    Star + double-star pairs at d >= 3, the clique-pair filter at d = 1,
    then the hints and the exhaustive two-bag search.  Every candidate it
    returns was certified by its rung.  ``hints``, when given, is updated in
    place: a hint that certifies, or else a fresh two-bag winner, moves to
    its front.
    """
    if d >= 3:
        pieces = star_doublestar_search(chi, d)
        if pieces is not None:
            return pieces, "star-doublestar"
    if d == 1 and not _clique_pair_exists(chi):
        return None, "none"  # a reject filter: the pieces come from two_bag
    if hints is None:
        pieces = two_bag_cover(chi, d)
    else:
        for i, pieces in enumerate(hints):
            if certifies_masks(chi, pieces, d, 2):
                del hints[i]
                break
        else:
            pieces = two_bag_cover(chi, d)
        if pieces is not None:
            hints.insert(0, pieces)
            del hints[HINTS:]
    return pieces, ("trichotomy" if pieces is not None else "none")


def _check_td(t: int, d: int) -> None:
    if not isinstance(t, int) or isinstance(t, bool) or t < 1:
        raise InvalidParameter(f"subgraph count must be a positive integer, got {t!r}")
    if t > 2:
        raise Unsupported(f"covers by {t} subgraphs are not supported (max 2)")
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise InvalidParameter(f"diameter bound must be a non-negative integer, got {d!r}")


def cover_exists(chi: EdgeColoring, t: int, d: int) -> bool:
    """Does chi admit a cover by t monochromatic pieces of diameter <= d?"""
    _check_td(t, d)
    return _decide(chi, t, d, False)[0] is not None


def find_cover(chi: EdgeColoring, t: int, d: int):
    """Like cover_exists but returns the verified witness cover (or None)."""
    _check_td(t, d)
    pieces, _ = _decide(chi, t, d, False)
    return None if pieces is None else cover_from_masks(pieces)
