"""Covers by monochromatic subgraphs, and their independent verification.

A subgraph is normalized to a (color, vertex set) pair and always means ALL
edges of that color inside the set: among color-c subgraphs on a fixed vertex
set this one has pointwise-minimal distances, so a cover certificate exists in
normal form iff one exists at all.  Singletons are valid subgraphs of
diameter 0, which also lets a cover use fewer than t useful parts.  A
subgraph built from its vertex set (``make_cover``, ``cover_from_json``)
sets its vertex mask once, -1 for an id no shape has (a bool included).  One
built from a mask (``cover_from_masks``) keeps that mask and builds its
vertex set only when something reads it: equality, hashing, ``repr`` or the
JSON form.

Verification never trusts the producer: coverage, per-subgraph connectivity
and diameter are all recomputed from the coloring.  ``verify_cover`` reads
a ``Cover`` or (color, mask) pieces through one loop over (color, mask)
pairs, dropping empty masks as ``cover_from_masks`` does, so both forms
give the same verdict and the same witness, each read from the mask.
Vertex ids are checked by one mask test per piece.  Each piece is decided
with the early-exit ``diameter_at_most``, which decides a piece of k
vertices at d >= k - 1 with one ball (a connectivity test; an unbounded
cover checked at d = n takes this path), and bounds a dominated piece (one
vertex adjacent in the piece's color to all the others, as in a star) at
diameter 2 without growing a ball.  At d >= 3 it grows balls only from the
vertices an eccentricity bound cannot clear (``graphs._far_vertex``): a
center whose balls fill the piece at radius r clears every vertex within
d - r of it.  The exact diameter, by the same sweep, is computed only for a
piece that fails, to build its witness.  ``verify_cover`` reports the first
violation with an exact witness; ``certifies_masks`` gives the same verdict
as a bare boolean on (color, mask) pieces.  Each candidate is tested once.
The diameter-3 pipeline and ``tc2_cover`` test theirs with
``certifies_masks`` and build a ``Cover`` only for the winner
(``cover_from_masks``), which their callers check with ``verify_cover``.
The ladder hands ``verify_cover`` the pieces of each construction candidate
(``ladder._first_verified``) and of each searched rung's one winner, and
returns those pieces; a ``Cover`` is built only where the public API hands
one out (``find_cover``, ``prune_with_constructions``), so a survey builds
none.  Its candidate generator drops those with a coverage gap or a ring
that fails at d, so a rejected construction candidate no longer reaches
``verify_cover`` and pays for no failure witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidCover
from .graphs import (COLOR_NAMES, COLORS, INF, MAX_VERTICES, EdgeColoring,
                     bits_of, color_from_name, diameter_at_most,
                     diameter_in_mask)

# Violation kinds, in no particular order of severity.
COVERAGE_GAP = "CoverageGap"
DISCONNECTED = "Disconnected"
DIAMETER_EXCEEDED = "DiameterExceeded"
TOO_MANY_SUBGRAPHS = "TooManySubgraphs"


@dataclass(frozen=True)
class MonoSubgraph:
    """A single-color subgraph given by its vertex set."""

    color: int
    vertices: frozenset

    def __post_init__(self):
        if not self.vertices:
            raise InvalidCover("subgraph with an empty vertex set")
        # outside the fields, so equality, hashing and the JSON form see
        # only (color, vertices); -1 marks an id that no shape has, and a
        # bool is no vertex id even though it is an int
        mask = 0
        for v in self.vertices:
            if not (isinstance(v, int) and not isinstance(v, bool)
                    and 0 <= v < MAX_VERTICES):
                mask = -1
                break
            mask |= 1 << v
        object.__setattr__(self, "mask", mask)

    def __getattr__(self, name):
        # reached only when a subgraph from ``cover_from_masks`` is first
        # asked for its vertex set, which is then built from the mask
        if name != "vertices" or "mask" not in self.__dict__:
            raise AttributeError(f"'MonoSubgraph' object has no attribute "
                                 f"{name!r}")
        vertices = frozenset(bits_of(self.mask))
        object.__setattr__(self, "vertices", vertices)
        return vertices


@dataclass(frozen=True)
class Cover:
    """An ordered collection of monochromatic subgraphs."""

    subgraphs: tuple

    def __len__(self):
        return len(self.subgraphs)

    def __iter__(self):
        return iter(self.subgraphs)


def make_cover(*parts) -> Cover:
    """Build a cover from (color, vertex-iterable) pairs, dropping empties."""
    subs = []
    for color, vs in parts:
        vs = frozenset(vs)
        if vs:
            subs.append(MonoSubgraph(color, vs))
    return Cover(tuple(subs))


def cover_from_masks(pieces) -> Cover:
    """Build a cover from (color, vertex mask) pairs, dropping empties.

    Each subgraph keeps the mask it is given; its vertex set is built only
    when something reads it.
    """
    subs = []
    for color, mask in pieces:
        if mask:
            g = object.__new__(MonoSubgraph)
            object.__setattr__(g, "color", color)
            object.__setattr__(g, "mask", mask)
            subs.append(g)
    return Cover(tuple(subs))


@dataclass(frozen=True)
class Violation:
    """First verification failure, reproducible from (chi, cover, d, t) alone."""

    kind: str
    subgraph_index: int | None
    witness: tuple | None

    def describe(self) -> str:
        where = "" if self.subgraph_index is None else f" in subgraph {self.subgraph_index}"
        return f"{self.kind}{where}, witness {self.witness}"


def _checked_mask(chi: EdgeColoring, mask: int, g) -> int:
    """The mask; InvalidVertex names its lowest vertex at or past n, or,
    for a subgraph g (None for a bare piece) with an id no shape has
    (mask -1), that id."""
    past = mask >> chi.n
    if past:
        if mask < 0 and g is not None:
            for v in g.vertices:
                chi.shape.check_vertex(v)
        chi.shape.check_vertex(chi.n + (past & -past).bit_length() - 1)
    return mask


def subgraph_diameter(chi: EdgeColoring, g: MonoSubgraph) -> int:
    """Diameter of the color-induced subgraph; INF iff disconnected."""
    return diameter_in_mask(chi, g.color, _checked_mask(chi, g.mask, g))


def verify_cover(chi: EdgeColoring, cover, d: int, t: int):
    """None if the cover certifies (t, d); otherwise the first Violation.

    ``cover`` is a ``Cover`` or (color, mask) pieces; empty masks are
    dropped, as ``cover_from_masks`` drops them, so both forms give the same
    answer.  Scan order is deterministic: subgraph count, then each
    subgraph's vertex ids, connectivity and diameter by index, then coverage
    by vertex id.  A piece is decided by ``diameter_at_most``; only a
    failing one pays for its exact diameter, which tells a disconnected
    piece from a too-wide one.  Every witness is read from the mask.
    """
    if isinstance(cover, Cover):
        subs = cover.subgraphs
        pieces = [(g.color, g.mask) for g in subs]
    else:
        subs = None
        pieces = [p for p in cover if p[1]]
    if len(pieces) > t:
        return Violation(TOO_MANY_SUBGRAPHS, None, (len(pieces), t))
    full = chi.shape.full_mask
    covered = 0
    for i, (color, mask) in enumerate(pieces):
        if mask & ~full:
            _checked_mask(chi, mask, None if subs is None else subs[i])
        if not diameter_at_most(chi, color, mask, d):
            diam = diameter_in_mask(chi, color, mask)
            if diam >= INF:
                return Violation(DISCONNECTED, i, tuple(bits_of(mask))[:2])
            return Violation(DIAMETER_EXCEEDED, i, (diam, d))
        covered |= mask
    if covered != full:
        missing = next(v for v in range(chi.n) if not (covered >> v) & 1)
        return Violation(COVERAGE_GAP, None, (missing,))
    return None


def certifies_masks(chi: EdgeColoring, pieces, d: int, t: int) -> bool:
    """Whether (color, mask) pieces form a cover certifying (t, d).

    The search's reject test: the piece count first, then coverage as one OR
    of the masks, then an early-exit diameter check on each piece.  An empty
    mask counts toward t, covers nothing and passes the diameter check.
    """
    if len(pieces) > t:
        return False
    covered = 0
    for _, mask in pieces:
        covered |= mask
    if covered != chi.shape.full_mask:
        return False
    return all(diameter_at_most(chi, c, mask, d) for c, mask in pieces)


# ============================================================================
# FILE FORMAT
# ============================================================================

def cover_to_json(cover: Cover) -> dict:
    return {"subgraphs": [{"color": COLOR_NAMES[g.color],
                           "vertices": sorted(g.vertices)}
                          for g in cover]}


def cover_from_json(obj: dict) -> Cover:
    try:
        subs = obj["subgraphs"]
    except (KeyError, TypeError):
        raise InvalidCover("cover JSON needs a 'subgraphs' list")
    if not isinstance(subs, list):
        raise InvalidCover("cover JSON 'subgraphs' must be a list")
    out = []
    for entry in subs:
        if not (isinstance(entry, dict) and "color" in entry
                and isinstance(entry.get("vertices"), list)
                and all(type(v) is int for v in entry["vertices"])):
            raise InvalidCover(f"cover subgraph {entry!r} needs a 'color' and "
                               f"a 'vertices' list of integers")
        color = entry["color"]
        vertices = frozenset(entry["vertices"])
        if isinstance(color, str):
            color = color_from_name(color)
        elif type(color) is not int or color not in COLORS:
            raise InvalidCover(f"unknown color {color!r}")
        out.append(MonoSubgraph(color, vertices))
    return Cover(tuple(out))
