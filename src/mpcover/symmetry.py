"""Coloring symmetries, orbit-leader enumeration and the orbit count.

The symmetry group of a shape's colorings is the product of the symmetric
groups inside each part, the permutations of equal-size parts, and the global
color swap.  A coloring is *canonical* when its edge bitstring is
lexicographically minimal over its orbit (compared edge 0 first, red < blue).
Keys are the bitstring read most-significant-bit-first, so lexicographic
order on colorings is numeric order on keys.

Enumeration is an orderly depth-first scan of the binary prefix tree.  Each
group element keeps a pointer to the first position where its image of the
prefix may still differ from the prefix, and is event-driven: it waits in the
bucket of the depth at which that comparison can first be decided, and only
the bucket of a node's own depth is visited there.  A subtree is abandoned as
soon as some image is provably smaller, and an element drops out once its
image is provably larger.  Elements that agree on the first ``j + 1``
positions of their inverse edge permutation form one coset of the pointwise
stabilizer of those positions (the base ``0, 1, ..., m - 1`` is fixed by the
key order), and they decide comparisons ``0..j`` alike.  So the scan runs
over a coset chain (``SymmetryGroup.chain``): one entry stands for a whole
coset until its members part, and a larger image drops the coset at once.
The walk stops ``k`` edges short of the leaves, where ``k`` is the number
of edges in the rows of the vertices past part 0 (the last edges of the
key), capped at ``TAIL_CAP`` = 8: 4 on ``[5,2,2]``, 6 on ``[3,3,2]``, 8 on
``[2,2,2,2]`` (which has 12), 0 on two parts.  Each node there that
survives decides all ``2^k`` completions of its prefix in one pass over
its live entries, each making its comparisons once for every completion,
on ``2^k``-bit masks.  Which comparisons are made, and in what order,
cannot change whether some image is smaller, so the leaders are those of a
walk to the leaves.  The cap bounds the masks, whose width doubles with
each edge (``[2,2,2,2,2]`` has 24 edges past part 0), and the work a
restart repeats: a scan that stops inside a block re-walks to it and
re-decides it from the restart key on.  Visiting leaves in key order makes
the enumeration restartable from any key, which is what checkpoints and
work sharding rely on.  ``leader_count`` gives the number of leaders by
Burnside's lemma, which every finished survey is checked against.

``canonical_key`` finds one coloring's orbit minimum by a search over vertex
placements that fills the slots in the order their rows fix the key, cuts a
branch whose key prefix exceeds the best one, and tries one of each set of
twin vertices.  It builds no ``SymmetryGroup``, so it shares no code with the
group expansion the scan runs on, and the tests use it to check the scan.

For shapes whose full group is too large to expand, enumeration falls back
to a smaller subgroup (per-part cyclic shifts, cyclic rotation of equal-size
part families, and the color swap).  Subgroup leaders are a superset of the
full-group leaders covering every orbit, so max/min aggregates over classes
are unchanged; only the class count inflates.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import factorial

from .graphs import BLUE, EdgeColoring, MultipartiteShape, remap_edges

# Expanding the full group is worthwhile up to roughly this many vertex
# permutations; 7!*2*2 for a [7,1,1] shape is the largest acceptance-relevant
# full expansion.
FULL_EXPANSION_CAP = 20160


class SymmetryGroup:
    """Expanded coloring symmetries of a shape.

    ``elements`` holds (inverse-edge-permutation, flip) pairs, flip meaning
    the global color swap; ``order`` is the order of the *full* group even
    when only a subgroup was expanded (``is_full`` tells which).
    """

    __slots__ = ("shape", "order", "elements", "is_full", "_chain")

    def __init__(self, shape: MultipartiteShape, elements, is_full: bool, order: int):
        self.shape = shape
        self.elements = elements
        self.is_full = is_full
        self.order = order
        self._chain = None

    def chain(self) -> tuple:
        """The elements as a coset chain, one per flip, built on first use.

        Elements with the same flip that agree on ``inv[0..j]`` form one
        coset of the pointwise stabilizer of edge positions ``0..j``, and
        each level of the chain at least halves a coset, so it is shallow.
        An entry is ``(inv, row, j, kids)`` with pointer ``j``:
        - a lone element has ``kids = None``;
        - a *node* stands for two or more elements.  ``inv`` is one of them,
          valid before the position ``split`` where they part, and ``kids``
          holds an entry at pointer ``split`` for each value of
          ``inv[split]``, paired with the bucket it first waits in.

        ``row[j] = max(j, inv[j]) + 1`` is the first scan depth at which
        comparison ``j`` can be decided.  A lone row ends with ``m + 1``,
        which parks an element that matched a whole leaf, and is shared by
        the two flips of a vertex permutation; a node's row holds ``m + 2``
        at its split.  Built by sorting the distinct elements and grouping
        runs, so a repeated element is held once.

        Returns the entries a scan starts from, for flip 0 and for flip 1.
        Every entry a scan pushes at a split is built here too, and the chain
        is kept on the group, so every later scan over it (one per worker
        chunk) reuses it.
        """
        if self._chain is None:
            m = self.shape.m
            pack = bytes if m < 254 else tuple  # bytes hold depths <= 255
            rows = {}

            def row_of(inv):
                row = rows.get(inv)
                if row is None:
                    row = rows[inv] = pack([max(j, i) + 1 for j, i in enumerate(inv)]
                                           + [m + 1])
                return row

            def entry(invs, j):
                # invs: sorted, distinct, and sharing inv[0..j-1]
                first, last = invs[0], invs[-1]
                if len(invs) == 1:
                    return first, row_of(first), j, None
                split = j
                while first[split] == last[split]:
                    split += 1
                kids = []
                lo = 0
                for hi in range(1, len(invs) + 1):
                    if hi < len(invs) and invs[hi][split] == invs[lo][split]:
                        continue
                    kid = entry(invs[lo:hi], split)
                    kids.append((kid[1][split], kid))
                    lo = hi
                row = list(row_of(first))
                row[split] = m + 2
                return first, pack(row), j, tuple(kids)

            sides = []
            for flip in (0, 1):
                invs = sorted({inv for inv, f in self.elements if f == flip})
                if not invs:
                    sides.append(())
                    continue
                root = entry(invs, 0)
                if root[1][0] == m + 2:  # no comparison is shared: start at the parts
                    sides.append(tuple(kid for _, kid in root[3]))
                else:
                    sides.append((root,))
            self._chain = tuple(sides)
        return self._chain


def size_families(shape: MultipartiteShape):
    """Part indices grouped by part size, descending size order."""
    fams = {}
    for p, a in enumerate(shape.part_sizes):
        fams.setdefault(a, []).append(p)
    return [fams[a] for a in sorted(fams, reverse=True)]


def vertex_group_order(shape: MultipartiteShape) -> int:
    """Order of the vertex-permutation group (color swap not included)."""
    out = 1
    for a in shape.part_sizes:
        out *= factorial(a)
    for fam in size_families(shape):
        out *= factorial(len(fam))
    return out


def _perm_from_assignment(shape, part_map, offsets):
    """Vertex permutation sending part p to part_map[p] with given offsets."""
    perm = [0] * shape.n
    for p in range(shape.k):
        q = part_map[p]
        for o in range(shape.part_sizes[p]):
            perm[shape.part_start[p] + o] = shape.part_start[q] + offsets[p][o]
    return perm


def _vertex_perms(shape, fams, images, within):
    """Each family ``fams[i]`` sent to one of ``images[i]``, times each
    choice of per-part offsets ``within[p]``, in product order."""
    for fam_choice in product(*images):
        part_map = [0] * shape.k
        for fam, image in zip(fams, fam_choice):
            for p, q in zip(fam, image):
                part_map[p] = q
        for offsets in product(*within):
            yield _perm_from_assignment(shape, part_map, offsets)


def edge_perm(shape: MultipartiteShape, vperm) -> tuple:
    """Edge-index permutation induced by a vertex permutation."""
    return tuple(remap_edges(shape.edges, vperm, shape))


def symmetry_group(shape: MultipartiteShape,
                   cap: int = FULL_EXPANSION_CAP) -> SymmetryGroup:
    """Expand the coloring symmetries, tiering down to a subgroup when huge."""
    full_vorder = vertex_group_order(shape)
    use_full = full_vorder <= cap
    fams = size_families(shape)
    if use_full:
        images = [list(permutations(fam)) for fam in fams]
        within = [list(permutations(range(a))) for a in shape.part_sizes]
    else:  # rotations of each family, cyclic shifts inside each part
        images = [[fam[r:] + fam[:r] for r in range(len(fam))] for fam in fams]
        within = [[tuple((o + t) % a for o in range(a)) for t in range(a)]
                  for a in shape.part_sizes]
    elements = []
    for vperm in _vertex_perms(shape, fams, images, within):
        ep = edge_perm(shape, vperm)
        inv = [0] * shape.m
        for i, j in enumerate(ep):
            inv[j] = i
        inv = tuple(inv)
        identity = inv == tuple(range(shape.m))
        for flip in (0, 1):
            if identity and not flip:
                continue  # the identity never constrains anything
            elements.append((inv, flip))
    return SymmetryGroup(shape, elements, use_full, 2 * full_vorder)


# ============================================================================
# ORDERLY ENUMERATION
# ============================================================================

def bits_to_key(bits: int, m: int) -> int:
    """LSB-first stored bitstring -> MSB-first comparison key."""
    key = 0
    for j in range(m):
        key = (key << 1) | ((bits >> j) & 1)
    return key


def key_to_bits(key: int, m: int) -> int:
    return bits_to_key(key, m)  # bit reversal is an involution


# The widest tail block, in edges.  Its masks are 2^TAIL_CAP bits, and a
# survey, which restarts its scan every ``search.CHUNK_CLASSES`` leaders,
# re-decides the block it stopped in.  Not tuned: 12 on [2,2,2,2] and 9 on
# [3,3,3] scanned faster than 8 in 500-leader chunks.
TAIL_CAP = 8


def _tail_width(shape: MultipartiteShape) -> int:
    """How many last edges the scan decides at once: the edges in the rows of
    the vertices past part 0, at most ``TAIL_CAP``."""
    a0 = shape.part_sizes[0]
    return min(shape.m - a0 * (shape.n - a0), TAIL_CAP)


@lru_cache(maxsize=None)
def _tail_tables(k: int) -> tuple:
    """A k-edge tail's positions as masks over its completions, and the
    completions' stored bits.

    Completion x sets tail position i to bit ``k - 1 - i`` of x, so ascending
    x is ascending key.  Returns (the mask of the x that set position i, for
    each i; the stored bits of each x, from bit 0).
    """
    masks = [sum(1 << x for x in range(1 << k) if x >> (k - 1 - i) & 1)
             for i in range(k)]
    return masks, [key_to_bits(x, k) for x in range(1 << k)]


def canonical_classes(shape: MultipartiteShape, group: SymmetryGroup | None,
                      lo: int = 0, hi: int | None = None):
    """Yield (key, bits) of orbit leaders with key in [lo, hi).

    Keys come out strictly ascending, so a scan restarts at any key: a window
    ``[lo, hi)`` yields exactly the leaders of the full scan that fall in it.
    With ``group=None`` every coloring is its own class (raw enumeration).
    ``leader_count`` gives the number of leaders the full scan yields.

    The scan is an iterative depth-first walk of the prefix tree, choosing
    edge ``d`` at depth ``d``, over the group's coset chain
    (``SymmetryGroup.chain``), one set of buckets per flip.  Each entry
    carries a pointer ``j``: its image agrees with the prefix before
    position ``j``.  It waits in the bucket for depth ``max(j, inv[j]) + 1``,
    the first depth at which both sides of comparison ``j`` are chosen.  A
    node at depth ``nd`` visits bucket ``nd`` only.  A smaller image prunes
    the node, a larger one drops the entry, and equal images advance the
    pointer until the entry waits for a later bucket.  An entry that stands
    for a coset makes each comparison once for all its elements, so a larger
    image drops the whole coset.  When its pointer reaches the position
    where the elements part, its kids take over: each waits in its own
    bucket, or joins the current one to be compared at once when its wake is
    the current depth or earlier; such a kid whose image is already larger
    would drop on arrival, so it is not pushed.  Those pushes are popped when
    the node returns, so both children of a node read its buckets unchanged.

    The walk stops at depth ``m - k``, where ``k`` is ``_tail_width``: the
    edges in the rows past part 0, at most ``TAIL_CAP``.  A node there that
    survives decides all ``2^k`` completions of its prefix at once.  Its
    live entries all wait in buckets ``m - k + 1 .. m``, lowest first, and
    each makes its comparisons on masks over the completions: a chosen
    position reads as 0 or all-ones, position ``m - k + i`` as bit
    ``k - 1 - i`` of the completion, and a flip entry's image reads the
    complement.  An entry starts with ``alive``, the completions in the
    window that no image has yet beaten; at each comparison the completions
    where its image is smaller are pruned and those where the two differ
    leave ``alive``, until ``alive`` is empty or the pointer reaches ``m``.
    At a coset's split each kid carries ``alive`` on.  The completions left
    come out in ascending key order.  A leaf is a leader exactly when no
    image is smaller, whatever order the comparisons are made in, so the
    keys, their order and the windows are those of a walk to the leaves.
    """
    m = shape.m
    if hi is None:
        hi = 1 << m
    if lo >= hi:
        return
    if group is None:
        for key in range(lo, hi):
            yield key, key_to_bits(key, m)
        return

    k = _tail_width(shape)
    top = m - k
    full = (1 << (1 << k)) - 1
    masks, tail_bits = _tail_tables(k)
    # ``b[j]`` is position j as a mask over the completions of a depth-top
    # prefix; ``nb`` is the prefix with its colors swapped, read by flip
    # elements.  The walk sets the chosen positions to 0 or ``full``.
    b = [0] * top + masks
    nb = [0] * top + [full ^ mask for mask in masks]
    chosen = (0, full)
    sides = []
    for src, entries in zip((b, nb), group.chain()):
        buckets = [[] for _ in range(m + 2)]
        for entry in entries:
            buckets[entry[1][0]].append(entry)
        sides.append((src, buckets))
    # bucket m + 1 holds the lone elements that matched a whole leaf; never
    # read.  A coset always parts before position m.
    parts = m + 2  # the row value that marks a node's split

    def block(pref, bits):
        """The leaders among the completions of a surviving depth-top node."""
        xlo = max(lo - pref, 0)
        live = (1 << min(hi - pref, 1 << k)) - (1 << xlo)  # the window
        kids_left = []  # (kid, its completions still equal at the split)
        for src, buckets in sides:
            for bucket in buckets[top + 1:m + 1]:
                for entry in bucket:
                    alive = live
                    while True:
                        inv, wake, j, kids = entry
                        while alive:
                            img = src[inv[j]]
                            key = b[j]
                            if img != key:
                                cut = alive & key & ~img  # a smaller image
                                if cut:
                                    live &= ~cut
                                    if not live:
                                        return
                                alive &= ~(img ^ key)
                            j += 1
                            w = wake[j]
                            if w > m:
                                if w == parts:  # the coset parts here
                                    kids_left += [(kid, alive)
                                                  for _, kid in kids]
                                break
                        if not kids_left:
                            break
                        entry, alive = kids_left.pop()
                        alive &= live
        while live:
            low = live & -live
            x = low.bit_length() - 1
            yield pref | x, bits | tail_bits[x] << top
            live ^= low

    if not top:
        yield from block(0, 0)
        return
    nxt = [0] * top         # next bit to try at each depth; 2 = both done
    prefs = [0] * top       # key of the prefix at each depth
    bits_at = [0] * top     # stored bits of the prefix at each depth
    pushed = [[] for _ in range(top)]  # buckets pushed to under each depth's child
    d = 0
    while d >= 0:
        undo = pushed[d]
        while undo:
            undo.pop().pop()
        bit = nxt[d]
        if bit == 2:
            d -= 1
            continue
        nxt[d] = bit + 1
        shift = m - 1 - d
        pref = prefs[d] | (bit << shift)
        if pref >= hi:
            nxt[d] = 2  # the 1-child is past hi as well
            continue
        if pref + (1 << shift) <= lo:
            continue
        b[d] = chosen[bit]
        nb[d] = chosen[1 - bit]
        nd = d + 1
        for src, buckets in sides:
            for inv, wake, j, kids in buckets[nd]:
                img = src[inv[j]]
                while img == b[j]:
                    j += 1
                    w = wake[j]
                    if w > nd:
                        if w == parts:  # the coset parts here
                            for w, kid in kids:
                                if w > nd:
                                    target = buckets[w]
                                elif src[kid[0][j]] > b[j]:
                                    continue  # it would drop at once
                                else:
                                    target = buckets[nd]
                                target.append(kid)
                                undo.append(target)
                        else:
                            target = buckets[w]
                            target.append((inv, wake, j, kids))
                            undo.append(target)
                        break
                    img = src[inv[j]]
                else:
                    if img < b[j]:
                        break  # the image beats every extension: prune the child
            else:
                continue
            break  # pruned
        else:
            bits = bits_at[d] | (bit << d)
            if nd == top:
                yield from block(pref, bits)
            else:
                prefs[nd] = pref
                bits_at[nd] = bits
                nxt[nd] = 0
                d = nd


def leader_count(shape: MultipartiteShape, group: SymmetryGroup | None) -> int:
    """How many leaders ``canonical_classes(shape, group)`` yields in all.

    Burnside's lemma: the orbit count is the mean number of colorings a group
    element fixes.  A vertex permutation with c cycles on the edges fixes
    2^c colorings; with the color swap it fixes 2^c when every cycle has even
    length and none otherwise.  ``group.elements`` plus the identity form a
    group (the full one or the cyclic subgroup), and the elements come in
    flip pairs, so the sum runs over the distinct edge permutations.  With
    ``group=None`` every coloring is its own class.
    """
    m = shape.m
    if group is None:
        return 1 << m
    perms = {inv for inv, _ in group.elements}
    perms.add(tuple(range(m)))
    total = 0
    for inv in perms:
        seen = [False] * m
        cycles = 0
        all_even = True
        for j in range(m):
            if seen[j]:
                continue
            cycles += 1
            length = 0
            while not seen[j]:
                seen[j] = True
                j = inv[j]
                length += 1
            all_even = all_even and length % 2 == 0
        total += (2 if all_even else 1) << cycles
    return total // (2 * len(perms))


# ============================================================================
# CANONICAL KEYS
# ============================================================================

def canonical_key(chi: EdgeColoring) -> int:
    """Bits of the lexicographically minimal coloring in chi's full orbit.

    Equal keys characterize equal orbits.  No group is expanded: canonical
    slots are assigned one vertex at a time, for both colorings (as given
    and color-swapped).  The first slot of a canonical part takes any unused
    part of chi of the same size; its later slots take vertices of that
    part.  The key starts with the rows of part 0's slots, so slot 0 is
    filled first, then every slot past part 0 in order (each fixes one more
    bit of slot 0's row), then the rest of part 0 (each fixes a whole row).
    A branch is cut once that prefix exceeds the same prefix of the best
    key; the rows past part 0 are compared at the leaf.  Two unplaced
    vertices whose rows agree off the two of them, in one part or each alone
    in a part of size 1, are swapped by an automorphism that fixes every
    placed vertex, so only one of them is tried at each slot.  Reads only
    chi's blue rows.
    """
    shape = chi.shape
    m, n = shape.m, shape.n
    blue = chi.adj[BLUE]
    a0 = shape.part_sizes[0]
    order = [0, *range(a0, n), *range(1, a0)]
    family = {p: fam for fam in size_families(shape) for p in fam}
    placed = [0] * n            # the vertex of chi placed at each slot
    part_map = [None] * shape.k  # the part of chi placed at each canonical part
    best = None

    def search(i, used, prefix, length):
        nonlocal best
        if i == n:
            for s in range(a0, n):  # the rows past part 0
                row = blue[placed[s]]
                for t in range(shape.slices[s][2], n):
                    prefix = prefix << 1 | (row >> placed[t] & 1) ^ flip
            if best is None or prefix < best:
                best = prefix
            return
        s = order[i]
        p = shape.part_id[s]
        fresh = part_map[p] is None
        tried = []
        for q in ([q for q in family[p] if q not in part_map] if fresh
                  else [part_map[p]]):
            part_map[p] = q
            if shape.part_sizes[p] > 1:
                tried = []  # across parts, only size-1 parts hold twins
            for x in shape.part_vertices(q):
                row = blue[x]
                if used >> x & 1 or any(
                        not (row ^ blue[y]) & ~(1 << x | 1 << y) for y in tried):
                    continue  # placed, or the twin of a vertex tried here
                tried.append(x)
                if s >= a0:  # one bit of slot 0's row
                    new, grown = prefix << 1 | (blue[placed[0]] >> x & 1) ^ flip, 1
                elif s:  # the whole row of slot s
                    new, grown = prefix, n - a0
                    for t in range(a0, n):
                        new = new << 1 | (row >> placed[t] & 1) ^ flip
                else:
                    new, grown = prefix, 0
                if best is not None and new > best >> (m - length - grown):
                    continue
                placed[s] = x
                search(i + 1, used | 1 << x, new, length + grown)
        if fresh:
            part_map[p] = None

    for flip in (0, 1):
        search(0, 0, 0, 0)
    return key_to_bits(best, m)
