"""Cover/matching duality between colored graphs and partite hypergraphs.

A 2-colored graph G turns into a 2-partite hypergraph H whose vertices are
the monochromatic components of G (one class per color, single-vertex
components included) and whose hyperedges are the per-vertex pairs {red
component of v, blue component of v}, deduplicated.  Conversely a partite
hypergraph turns into a colored graph on its edge set, joining intersecting
hyperedges with the color of the smallest class witnessing the intersection.

The point of the round trip: tree cover number on the graph side and vertex
cover number on the hypergraph side sandwich each other, as do matchings and
independent sets.  ``verify_equivalence_chain`` recomputes both sides with
the exact brute-force oracles here and checks every inequality; a violation
is a bug, never a discovery.

Components are flooded with ``graphs.component_of``.  Everything else in
this module is exact and exponential, guarded by small-size caps; it exists
to validate constructions, not to scale.  Hypergraphs are written as JSON
(in the CLI's report of a violated chain) but never read back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CapExceeded, InequalityViolated, InvalidParameter, Unsupported
from .graphs import BLUE, RED, EdgeColoring, bits_of, component_of

DEFAULT_CAP_VERTICES = 16
DEFAULT_CAP_EDGES = 24


# ============================================================================
# TYPES
# ============================================================================

class Hypergraph:
    """An r-partite hypergraph on vertices 0..n-1.

    ``classes`` partitions the vertices; no edge may contain two vertices of
    one class.  Edges are deduplicated frozensets in sorted order.
    """

    __slots__ = ("classes", "edges", "class_of")

    def __init__(self, classes, edges):
        self.classes = tuple(tuple(sorted(cl)) for cl in classes)
        flat = sorted(v for cl in self.classes for v in cl)
        if flat != list(range(len(flat))):
            raise InvalidParameter(
                f"classes must partition 0..n-1, got {self.classes!r}")
        self.class_of = {}
        for ci, cl in enumerate(self.classes):
            for v in cl:
                self.class_of[v] = ci
        normalized = []
        seen = set()
        for e in edges:
            fe = frozenset(e)
            if not fe:
                raise InvalidParameter("empty hyperedge")
            if any(v not in self.class_of for v in fe):
                raise InvalidParameter(f"edge {sorted(fe)} uses unknown vertices")
            per_class = [self.class_of[v] for v in fe]
            if len(per_class) != len(set(per_class)):
                raise InvalidParameter(
                    f"edge {sorted(fe)} has two vertices in one class")
            if fe not in seen:
                seen.add(fe)
                normalized.append(fe)
        self.edges = tuple(sorted(normalized, key=sorted))

    @property
    def n(self) -> int:
        return len(self.class_of)

    @property
    def r(self) -> int:
        return len(self.classes)

    def __repr__(self):
        return (f"Hypergraph(r={self.r}, n={self.n}, "
                f"edges={[sorted(e) for e in self.edges]})")


class ColoredGraph:
    """A general 2-colored graph (not necessarily complete multipartite)."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, colored_edges):
        red = [0] * n
        blue = [0] * n
        for u, v, c in colored_edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvalidParameter(f"bad edge ({u}, {v})")
            rows = blue if c == BLUE else red
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = (tuple(red), tuple(blue))

    @classmethod
    def from_coloring(cls, chi: EdgeColoring) -> "ColoredGraph":
        g = cls.__new__(cls)
        g.n = chi.n
        g.adj = chi.adj
        return g


@dataclass
class CoverStats:
    """Exact invariants with verifying witnesses; unset halves are None.

    Hypergraph side: ``tau`` (minimum vertex cover) and ``nu`` (maximum
    matching).  Graph side: ``alpha`` (maximum independent set) and ``tc``
    (minimum cover by monochromatic components).
    """

    tau: int | None = None
    tau_witness: tuple | None = None
    nu: int | None = None
    nu_witness: tuple | None = None
    alpha: int | None = None
    alpha_witness: tuple | None = None
    tc: int | None = None
    tc_witness: tuple | None = None


# ============================================================================
# CONSTRUCTIONS
# ============================================================================

def color_components(n: int, rows):
    """Connected components of one color as masks, ordered by least vertex."""
    comps = []
    seen = 0
    for v in range(n):
        if not (seen >> v) & 1:
            mask = component_of(rows, v)
            comps.append(mask)
            seen |= mask
    return comps


def graph_to_hypergraph(g) -> Hypergraph:
    """Monochromatic components become vertices; each graph vertex an edge.

    Accepts an EdgeColoring or a ColoredGraph.  Hypergraph class 0 holds the
    red components, class 1 the blue ones; single-vertex components are kept
    so every graph vertex yields one component per color.
    """
    n = g.n
    red_comps = color_components(n, g.adj[RED])
    blue_comps = color_components(n, g.adj[BLUE])
    off = len(red_comps)
    classes = (tuple(range(off)), tuple(range(off, off + len(blue_comps))))
    comp_id = {}
    for i, mask in enumerate(red_comps):
        for v in bits_of(mask):
            comp_id[(RED, v)] = i
    for i, mask in enumerate(blue_comps):
        for v in bits_of(mask):
            comp_id[(BLUE, v)] = off + i
    vertex_edge = tuple(frozenset({comp_id[(RED, v)], comp_id[(BLUE, v)]})
                        for v in range(n))
    return Hypergraph(classes, vertex_edge)


def hypergraph_to_graph(h: Hypergraph) -> ColoredGraph:
    """Edges of H become vertices; intersection becomes colored adjacency.

    The joining color is the smallest class index containing a common
    vertex; class 0 maps to red, class 1 to blue.  Only 2-partite
    hypergraphs can be expressed in two colors.
    """
    if h.r > 2:
        raise Unsupported(f"need at most 2 classes, got {h.r}")
    colored = []
    for i, j in combinations(range(len(h.edges)), 2):
        common = h.edges[i] & h.edges[j]
        if common:
            ci = min(h.class_of[v] for v in common)
            colored.append((i, j, BLUE if ci == 1 else RED))
    return ColoredGraph(len(h.edges), colored)


# ============================================================================
# EXACT ORACLES
# ============================================================================

def _min_hitting_set(edges):
    """Branch over the vertices of a smallest uncovered edge."""
    best = [None, None]

    def rec(live, chosen):
        if best[0] is not None and len(chosen) >= best[0]:
            return
        if not live:
            best[0], best[1] = len(chosen), sorted(chosen)
            return
        e = min(live, key=lambda s: (len(s), sorted(s)))
        for v in sorted(e):
            nxt = [f for f in live if v not in f]
            rec(nxt, chosen | {v})

    rec(list(edges), frozenset())
    return (best[0] or 0), tuple(best[1] or ())


def _max_matching(edges):
    edges = list(edges)
    best = [0, ()]

    def rec(i, used, picked):
        if len(picked) > best[0]:
            best[0], best[1] = len(picked), tuple(picked)
        if i == len(edges) or len(picked) + (len(edges) - i) <= best[0]:
            return
        if not (edges[i] & used):
            picked.append(i)
            rec(i + 1, used | edges[i], picked)
            picked.pop()
        rec(i + 1, used, picked)

    rec(0, frozenset(), [])
    return best[0], best[1]


def _max_independent(n: int, union_rows):
    best = [-1, 0]

    def rec(avail, cur, size):
        if size + avail.bit_count() <= best[0]:
            return
        if not avail:
            if size > best[0]:
                best[0], best[1] = size, cur
            return
        v = max(bits_of(avail),
                key=lambda u: ((union_rows[u] & avail).bit_count(), -u))
        rec(avail & ~((1 << v) | union_rows[v]), cur | (1 << v), size + 1)
        rec(avail & ~(1 << v), cur, size)

    rec((1 << n) - 1, 0, 0)
    return best[0], tuple(bits_of(best[1]))


def _min_component_cover(n: int, g: ColoredGraph):
    """Fewest monochromatic components covering every vertex.

    Any connected monochromatic subgraph sits inside a component of its
    color, so minimizing over components loses nothing.
    """
    full = (1 << n) - 1
    if full == 0:
        return 0, ()
    pool = []
    seen_masks = set()
    for c in (RED, BLUE):
        for mask in color_components(n, g.adj[c]):
            if mask not in seen_masks:
                seen_masks.add(mask)
                pool.append((c, mask))
    pool.sort(key=lambda cm: (-cm[1].bit_count(), cm[1], cm[0]))
    for t in range(1, len(pool) + 1):
        for combo in combinations(pool, t):
            union = 0
            for _, mask in combo:
                union |= mask
            if union == full:
                return t, tuple((c, tuple(bits_of(mask))) for c, mask in combo)
    raise AssertionError("components of one color always cover V")


def exact_stats(obj, cap_vertices: int = DEFAULT_CAP_VERTICES,
                cap_edges: int = DEFAULT_CAP_EDGES) -> CoverStats:
    """Exhaustive tau/nu (hypergraphs) or alpha/tc (colored graphs)."""
    if isinstance(obj, Hypergraph):
        if obj.n > cap_vertices or len(obj.edges) > cap_edges:
            raise CapExceeded(
                f"hypergraph with {obj.n} vertices / {len(obj.edges)} edges "
                f"is over the exact-solver caps ({cap_vertices}/{cap_edges})")
        tau, tau_w = _min_hitting_set(obj.edges)
        nu, nu_w = _max_matching(obj.edges)
        return CoverStats(tau=tau, tau_witness=tau_w, nu=nu, nu_witness=nu_w)
    if isinstance(obj, EdgeColoring):
        obj = ColoredGraph.from_coloring(obj)
    if isinstance(obj, ColoredGraph):
        if obj.n > cap_vertices:
            raise CapExceeded(
                f"graph with {obj.n} vertices is over the exact-solver cap "
                f"({cap_vertices})")
        union = tuple(obj.adj[RED][v] | obj.adj[BLUE][v] for v in range(obj.n))
        alpha, alpha_w = _max_independent(obj.n, union)
        tc, tc_w = _min_component_cover(obj.n, obj)
        return CoverStats(alpha=alpha, alpha_witness=alpha_w,
                          tc=tc, tc_witness=tc_w)
    raise InvalidParameter(f"cannot compute stats for {type(obj).__name__}")


# ============================================================================
# THE INEQUALITY CHAIN
# ============================================================================

def _line(name, lhs, rhs, ok):
    return {"inequality": name, "lhs": lhs, "rhs": rhs, "ok": ok}


def verify_equivalence_chain(obj):
    """Check the cover/matching inequalities across the two constructions.

    For a colored-graph input G with H = graph_to_hypergraph(G):
    tc(G) <= tau(H) and nu(H) <= alpha(G).  For a hypergraph input H with
    G = hypergraph_to_graph(H): tau(H) <= tc(G) and alpha(G) <= nu(H).
    Size-2-edge hypergraphs additionally get the bipartite tau = nu check.
    Returns the report; raises InequalityViolated if any line fails.
    """
    report = []
    if isinstance(obj, Hypergraph):
        h = obj
        g = hypergraph_to_graph(h)
        hs = exact_stats(h)
        gs = exact_stats(g)
        report.append(_line("tau(H) <= tc(G_from_H)", hs.tau, gs.tc,
                            hs.tau <= gs.tc))
        report.append(_line("alpha(G_from_H) <= nu(H)", gs.alpha, hs.nu,
                            gs.alpha <= hs.nu))
    else:
        g = obj
        h = graph_to_hypergraph(g)
        gs = exact_stats(g)
        hs = exact_stats(h)
        report.append(_line("tc(G) <= tau(H_from_G)", gs.tc, hs.tau,
                            gs.tc <= hs.tau))
        report.append(_line("nu(H_from_G) <= alpha(G)", hs.nu, gs.alpha,
                            hs.nu <= gs.alpha))
    if h.r == 2 and all(len(e) == 2 for e in h.edges):
        report.append(_line("tau(H) == nu(H) (bipartite)", hs.tau, hs.nu,
                            hs.tau == hs.nu))
    bad = [line for line in report if not line["ok"]]
    if bad:
        raise InequalityViolated(
            f"{len(bad)} inequality check(s) failed: "
            + "; ".join(f"{b['inequality']} ({b['lhs']} vs {b['rhs']})"
                        for b in bad),
            report=report)
    return report


# ============================================================================
# FILE FORMAT
# ============================================================================

def hypergraph_to_json(h: Hypergraph) -> dict:
    return {"classes": [list(cl) for cl in h.classes],
            "edges": [sorted(e) for e in h.edges]}
