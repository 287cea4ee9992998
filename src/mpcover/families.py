"""The paper's hand-built colorings, its tripartite classification, and
monotone extension.

Two families live here: a parametric coloring of K_{2k+1,2,...,2} (k parts of
size 2) that admits no two-bag diameter-2 cover, and a fixed 9-vertex
coloring of K_{4,3,2} with the same property.  Both are entered as literal
edge lists/rules, so every generator re-derives a handful of independent
distance facts after building the coloring and refuses to return anything
that fails them.  That turns a silent transcription slip into a loud crash.

``classify_tripartite`` states the paper's closed-form D for three parts,
which the tests check against ``search.compute_D``.
``check_monotone_extension`` clones a vertex into its own part; a coloring
with no cover keeps none after the clone, which the tests check on both
families.
"""

from __future__ import annotations

from .errors import InvalidParameter, Unsupported
from .graphs import (BLUE, RED, EdgeColoring, bits_of, build_shape,
                     canonical_vertex_map, color_distance, mask_of,
                     remap_edges)


class TranscriptionError(AssertionError):
    """A generated coloring failed one of its built-in distance checks."""


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise TranscriptionError(f"family self-check failed: {what}")


# ============================================================================
# K_{2k+1, 2, ..., 2}
# ============================================================================

def thm31_labels(k: int) -> dict[str, int]:
    """Human labels -> canonical vertex ids for gen_thm31(k)."""
    lab = {f"a{i}": i - 1 for i in range(1, 2 * k + 1)}
    lab["c"] = 2 * k
    for i in range(1, 2 * k + 1):
        lab[f"b{i}"] = 2 * k + i
    return lab


def gen_thm31(k: int) -> EdgeColoring:
    """Coloring of K_{2k+1,2,...,2} with no two-bag diameter-2 cover.

    The big part holds a1..a_2k and an extra vertex c; the k small parts are
    {b1,b2}, {b3,b4}, ....  Blue edges: each a_i b_i, every c b_i, and every
    b_i b_j crossing two small parts.  Everything else is red.
    """
    if k < 2:
        raise InvalidParameter(f"need k >= 2, got {k}")
    shape = build_shape([2 * k + 1] + [2] * k)
    lab = thm31_labels(k)
    a = [lab[f"a{i}"] for i in range(1, 2 * k + 1)]
    b = [lab[f"b{i}"] for i in range(1, 2 * k + 1)]
    c = lab["c"]

    blue = set()
    for i in range(2 * k):
        blue.add((a[i], b[i]))
        blue.add((c, b[i]))
    for i in range(2 * k):
        for j in range(i + 1, 2 * k):
            if i // 2 != j // 2:  # different small parts
                blue.add((b[i], b[j]))
    chi = EdgeColoring.from_edges(
        shape, [(u, v, BLUE if (u, v) in blue else RED) for u, v in shape.edges])

    _check(all(chi.color_of(c, v) == BLUE for v in b), "c must be red-isolated")
    for i in range(2 * k):
        blue_at_ai = list(bits_of(chi.adj[BLUE][a[i]]))
        _check(blue_at_ai == [b[i]], "blue edges at the a_i must form a matching")
    _check(color_distance(chi, RED, a[0], b[0]) == 3, "d_red(a1,b1) = 3")
    _check(color_distance(chi, BLUE, a[0], b[1]) == 3, "d_blue(a1,b2) = 3")
    return chi


# ============================================================================
# K_{4,3,2}
# ============================================================================

# v-label -> canonical id; parts {v0..v3}, {v6,v7,v8}, {v4,v5} land at
# ids 0-3, 4-6, 7-8 (bigger parts first, label order inside each part).
FIG4_LABELS = {
    "v0": 0, "v1": 1, "v2": 2, "v3": 3,
    "v6": 4, "v7": 5, "v8": 6,
    "v4": 7, "v5": 8,
}

_FIG4_BLUE = (
    ("v0", "v4"), ("v0", "v5"), ("v0", "v7"), ("v0", "v8"),
    ("v1", "v4"), ("v1", "v6"), ("v1", "v7"),
    ("v2", "v4"), ("v2", "v8"),
    ("v3", "v5"),
    ("v5", "v7"), ("v5", "v8"),
)


def gen_fig4() -> EdgeColoring:
    """The 9-vertex coloring of K_{4,3,2} with no two-bag diameter-2 cover."""
    shape = build_shape([4, 3, 2])
    blue = set()
    for la, lb in _FIG4_BLUE:
        u, v = FIG4_LABELS[la], FIG4_LABELS[lb]
        blue.add((u, v) if u < v else (v, u))
    _check(len(blue) == 12, "12 blue edges")
    chi = EdgeColoring.from_edges(
        shape, [(u, v, BLUE if (u, v) in blue else RED) for u, v in shape.edges])

    lab = FIG4_LABELS
    trio_blue = [lab["v2"], lab["v3"], lab["v6"]]
    for i, u in enumerate(trio_blue):
        for v in trio_blue[i + 1:]:
            _check(color_distance(chi, BLUE, u, v) >= 3,
                   "v2,v3,v6 pairwise blue distance >= 3")
    trio_red = [lab["v0"], lab["v1"], lab["v7"]]
    for i, u in enumerate(trio_red):
        for v in trio_red[i + 1:]:
            _check(color_distance(chi, RED, u, v) == 3,
                   "v0,v1,v7 pairwise red distance 3")

    # Uniqueness facts the impossibility argument leans on.
    v1, v5, v7, v2 = lab["v1"], lab["v5"], lab["v7"], lab["v2"]
    blue_mids = list(bits_of(chi.adj[BLUE][v1] & chi.adj[BLUE][v5]))
    _check(blue_mids == [v7], "unique blue 2-path v1-v7-v5")
    red_mids = list(bits_of(chi.adj[RED][v7] & chi.adj[RED][v5]))
    _check(red_mids == [v2], "unique red 2-path v7-v2-v5")
    return chi


# ============================================================================
# THE TRIPARTITE CLASSIFICATION AND MONOTONE EXTENSION
# ============================================================================

def classify_tripartite(part_sizes) -> int:
    """Closed-form D for 3-part shapes (t = 2), no search.

    D = 3 exactly when the sorted sizes dominate [5,2,2] or [4,3,2]
    componentwise; D = 1 only for [1,1,1] and [2,1,1]; everything else is 2.
    Compare against compute_D for the brute-force cross-check.
    """
    shape = build_shape(part_sizes)
    if shape.k != 3:
        raise Unsupported(f"classification needs exactly 3 parts, "
                          f"got {list(shape.part_sizes)}")
    s = shape.part_sizes
    if s in ((1, 1, 1), (2, 1, 1)):
        return 1
    if (s[0] >= 5 and s[1] >= 2 and s[2] >= 2) or \
            (s[0] >= 4 and s[1] >= 3 and s[2] >= 2):
        return 3
    return 2


def check_monotone_extension(chi: EdgeColoring, x: int) -> EdgeColoring:
    """Clone x into its part: the new vertex copies x's edge colors.

    The new coloring lives on the shape with x's part one bigger; every edge
    between old vertices keeps its color, and the new vertex y gets
    color(v, y) = color(v, x) for every common neighbor v.  (y and x are in
    the same part, so they share all their neighbors and are non-adjacent.)
    """
    shape = chi.shape
    shape.check_vertex(x)
    p = shape.part_id[x]
    new_sizes = list(shape.part_sizes)
    new_sizes[p] += 1
    new_shape = build_shape(new_sizes)
    # y joins as old vertex n, last in x's part
    vmap = canonical_vertex_map(shape.part_id + (p,), new_sizes)
    # y's edges are the images of x's under the map that sends x to y; the
    # other edges map as under vmap, so the union adds exactly y's edges
    to_y = vmap[:shape.n]
    to_y[x] = vmap[shape.n]
    return EdgeColoring(new_shape, mask_of(
        remap_edges(shape.edges, vmap, new_shape, chi.bits)
        + remap_edges(shape.edges, to_y, new_shape, chi.bits)))


# ============================================================================
# NAMED DISPATCH (CLI surface)
# ============================================================================

def parse_family(name: str):
    """'thm31:k=K' | 'fig4' | 'fig3' -> (EdgeColoring, labels)."""
    if name == "fig4":
        return gen_fig4(), dict(FIG4_LABELS)
    if name == "fig3":
        return gen_thm31(2), thm31_labels(2)
    if name.startswith("thm31:k="):
        try:
            k = int(name[len("thm31:k="):])
        except ValueError:
            raise InvalidParameter(f"bad family spec {name!r}") from None
        return gen_thm31(k), thm31_labels(k)
    raise InvalidParameter(f"unknown family {name!r}")
