"""Exact pattern containment with submatrix selection semantics.

A host M contains a pattern P when we can pick a strictly increasing index
selection per dimension such that every 1-entry of P maps to a 1-entry of M
(extra host 1s are weakened to 0s for free).  The search below picks the
indices of the prefix dimensions 1..d-1 one rank at a time, in ascending
order, and keeps one candidate bitmask of last-dimension indices per pattern
column.  Each rank of dimension d-1 completes the pattern's prefixes (the
first d-1 coordinates of its 1-entries) of that rank, and their host lines
narrow the masks of their columns; from d = 3 on, the ranks of dimension
d-2 narrow them first, each by the OR of the host lines a prefix can still
reach once the rank fixes the prefix's earlier coordinates.  A
leftmost-greedy scan of the masks then decides whether the last dimension
can still be picked: if even these relaxed masks admit no ascending pick,
the branch is cut.  The last rank's scan closes the last dimension, and the
picks run in lexicographic order, so the first witness found is the
lexicographically least selection vector.  Each search reads its set-up
from one cached plan per (host extents, pattern), ``_plan``: a pinned
search only joins the ranges the plan holds per dimension and pin.
Anchored variants pin one host index per dimension at a prescribed rank,
which is what "the new copy must use the flipped cell" amounts to; every
anchored question (``anchored_contains``, ``potentially_matches``, the
per-flip saturation verdicts, the greedy construction) goes through the one
pinned search ``_pinned_hits``, one search per pinnable pattern 1-entry,
and the least anchored embedding is the least of their hits; a per-flip
verdict first moves the last flip's copy to the next 0-cell, and searches
only if the moved selection is no copy.  Questions
about every selection at once walk the selections in lexicographic
selection order (``image_offsets``): the exact search tables and
``enumerate_embeddings`` take each selection's image as it comes, and the
sweep verdicts read ``image_columns``, the images stored cell-major (per
host cell, one bit per selection).  That table is built either from the
same walk, one step per (selection, pattern 1-entry), or one big-int
product per (pattern prefix, host cell) from per-dimension Kronecker
products, whichever has fewer.  ``_search_rows`` holds the rows of the
latest exact search, which the verdicts on its (shape, pattern) read
instead of a table.

Pure functions over immutable values throughout; a plan only memoises
set-up, and its pieces are never written.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, count, product
from math import comb, prod
from operator import itemgetter, lt, mul, or_

from .core import Coord, Matrix01, Shape, _toggled

# Above this many candidate embeddings enumerate_embeddings refuses to run.
ENUMERATION_LIMIT = 1_000_000


@dataclass(frozen=True)
class Embedding:
    """Per-dimension strictly increasing 1-based host index selections."""

    selections: tuple[tuple[int, ...], ...]

    def host_cell(self, pattern_coord: Coord) -> Coord:
        return tuple(self.selections[i][q - 1] for i, q in enumerate(pattern_coord))


def embedding_is_valid(m: Matrix01, p: Matrix01, e: Embedding) -> bool:
    """Check the weakening-soundness of a witness cell by cell."""
    if len(e.selections) != m.shape.d or m.shape.d != p.shape.d:
        return False
    for sel, l, n in zip(e.selections, p.shape.extents, m.shape.extents):
        # a strictly ascending selection is in range iff its ends are
        if len(sel) != l or not all(map(lt, sel, sel[1:])):
            return False
        if not 1 <= sel[0] or not sel[-1] <= n:
            return False
    bits = m.bits
    offs = [[(x - 1) * s for x in sel] for sel, s in zip(e.selections, m.shape.strides)]
    return all(
        bits >> sum(map(list.__getitem__, offs, o)) & 1 for o in _pattern_meta(p)[2]
    )


def _check_dims(host: Shape, p: Matrix01) -> None:
    """The dimension gate of every question about a host and a pattern."""
    if host.d != p.shape.d:
        raise ValueError(
            f"dimension mismatch: host is {host.d}-dimensional, "
            f"pattern is {p.shape.d}-dimensional"
        )


# ---------------------------------------------------------------------------
# Pattern metadata: 1-entries grouped by their last coordinate, with the
# distinct (d-1)-dimensional prefixes interned so the kernel can AND host
# line masks per last-coordinate group, kept per pattern; then the kernel's
# set-up, kept per (host extents, pattern) in a plan.

_CACHED = 512  # the entries of each cache here, and the piece slots of a plan


@lru_cache(maxsize=_CACHED)
def _pattern_meta(p: Matrix01):
    d = p.shape.d
    prefix_ids: dict[tuple[int, ...], int] = {}
    by_last: list[list[int]] = [[] for _ in range(p.shape.extents[-1])]
    ones: list[tuple[int, ...]] = []
    for c in p.iter_ones():
        c0 = tuple(x - 1 for x in c)
        ones.append(c0)
        pref = c0[: d - 1]
        pid = prefix_ids.setdefault(pref, len(prefix_ids))
        by_last[c0[-1]].append(pid)
    prefixes = tuple(prefix_ids)
    return prefixes, tuple(tuple(g) for g in by_last), tuple(ones)


def _rank_groups(p: Matrix01):
    """The pattern's prefixes grouped by the search positions that narrow them.

    ``_search`` completes a prefix when it picks the index of the prefix's
    last coordinate, its rank in dimension d-2 (the one prefix of a 1-D
    pattern at rank 0 of a dimension of extent 1), and resolves the
    prefix's earlier part when it picks that part's last coordinate, its
    rank in dimension d-3.  Returns ``lead_at`` and ``work``.  Per distinct
    earlier part, ``lead_at`` holds the search positions of its coordinates
    before dimension d-3.  Per search position from dimension d-3 on (d-2
    for d = 2), ``work`` holds the least pattern column holding a 1 of a
    prefix narrowed there and a group: at a rank of dimension d-3, each
    earlier part it resolves, by its index in ``lead_at``, with the rank and
    the columns of the 1s of each of its prefixes; at a rank of dimension
    d-2, each prefix it completes, by its earlier part's index, with the
    columns of its 1s.
    """
    prefixes, by_last, _ = _pattern_meta(p)
    cols_of: list[list[int]] = [[] for _ in prefixes]
    for c, group in enumerate(by_last):
        for pid in group:
            cols_of[pid].append(c)
    ext = p.shape.extents
    d = len(ext)
    # per earlier part: the rank and the columns of each of its prefixes
    parts: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    for pf, cols in zip(prefixes, cols_of):
        parts.setdefault(pf[:-1], []).append((pf[-1] if pf else 0, tuple(cols)))
    ranks = [[len(by_last), []] for _ in range(ext[-2] if d > 1 else 1)]
    reaches = [[len(by_last), []] for _ in range(ext[-3] if d > 2 else 0)]
    for oid, (o, group) in enumerate(parts.items()):
        for r, cols in group:
            ranks[r][0] = min(ranks[r][0], cols[0])
            ranks[r][1].append((oid, cols))
        if d > 2:
            reach = reaches[o[-1]]
            reach[0] = min(reach[0], *(cols[0] for _, cols in group))
            reach[1].append((oid, tuple(group)))
    lead_at = tuple(tuple(sum(ext[:i]) + c for i, c in enumerate(o[:-1])) for o in parts)
    return lead_at, tuple((first, tuple(g)) for first, g in reaches + ranks)


class _Plan(dict):
    """The kernel's set-up for one host extents ``n_ext`` and pattern ``p``.

    It holds the pattern's 1-entries and what ``_search`` reads of the
    pattern and the extents alone, and maps each pin (dimension, rank,
    0-based index) to that dimension's piece, built on first use: per rank
    the highest index, the index it starts past and, at dimension d-2 from
    d = 3 on, the line offsets its OR reads; or, for the last dimension, per
    pattern column the allowed indices and their leftmost-greedy pick.
    Rank l at index n pins nothing, and a rank that cannot sit at its index
    maps to None.  Pieces are shared and never written.  An entry kept, None
    too, takes a slot per rank of its dimension; past ``_CACHED`` slots each
    search builds its own.  A 1-D plan is the 1 × n host's: ``head`` = (0,)
    goes before its cells, entries and selections.
    """

    __slots__ = ("n_ext", "l_ext", "head", "ones", "lead_at", "work",
                 "firsts", "size", "cut", "pre", "pstr", "room")

    def __init__(self, n_ext: tuple[int, ...], p: Matrix01):
        self.head = (0,) * (len(n_ext) == 1)
        self.n_ext = n_ext = (1,) * len(self.head) + n_ext
        self.l_ext = l_ext = (1,) * len(self.head) + p.shape.extents
        self.ones = tuple(self.head + o for o in _pattern_meta(p)[2])
        self.lead_at, self.work = _rank_groups(p)
        self.firsts = tuple(sum(l_ext[:i]) for i in range(len(n_ext) - 1))
        self.size = sum(l_ext[:-1])
        self.cut = self.firsts[-1]  # the first position of dimension d-2
        # the first position of dimension d-3, which checks ahead; d = 2 has none
        self.pre = self.size - len(self.work)
        # the line stride of each prefix dimension, the host line of a
        # prefix being the sum of its indices times these
        self.pstr = [prod(n_ext[k + 1 : -1]) for k in range(len(n_ext) - 1)]
        self.room = _CACHED

    def __missing__(self, pin):
        i, r, a = pin
        n, l = self.n_ext[i], self.l_ext[i]
        piece = None
        if r <= a and l - r <= n - a:
            if i == len(self.n_ext) - 1:
                # the columns before the pinned rank stay below its index
                allow = ([(1 << a) - 1] * r + [1 << a] + [(1 << n) - 1] * l)[:l]
                piece = allow, [*range(r), *range(a, a + l - r)]
            else:
                # per rank q the highest index, a - r + q up to the pin and n - l + q
                # after, and the index it starts past: a - 1 at the pin, -1 at
                # rank 0, else None, the index of the rank before
                highs = tuple((a - r if q <= r else n - l) + q for q in range(l))
                starts = tuple(a - 1 if q == r else -1 if q == 0 else None for q in range(l))
                spans = None
                if i == len(self.n_ext) - 2 > 0:
                    # past a prefix's base, the line offsets rank q can still
                    # take: from q before the pin, from a - r + q at and after
                    spans = tuple((q if q < r else a - r + q, h + 1) for q, h in enumerate(highs))
                piece = highs, starts, spans
        if self.room >= l:
            self.room -= l
            self[pin] = piece
        return piece


_plan = lru_cache(maxsize=_CACHED)(_Plan)


def _scan(masks, picks, first):
    """The leftmost-greedy ascending pick of one index per mask, or None.

    ``picks`` is that pick for masks that differ from ``masks`` only from
    column ``first`` on.  A column's pick depends only on the masks up to
    it, so the scan starts at ``first``.
    """
    out = picks[:first]
    pos = out[-1] + 1 if first else 0
    for c in range(first, len(masks)):
        mm = masks[c] >> pos
        if not mm:
            return None
        pos += (mm & -mm).bit_length()
        out.append(pos - 1)
    return out


def _search(lines, plan, pieces):
    """Lexicographically least 0-based selection vector, or None.

    ``lines`` maps each (d-1)-prefix flat index of the host to the bitmask
    of its cells along the last dimension, and ``pieces`` are the pieces of
    ``plan`` (a ``_Plan``) for the search's pins, one per dimension.

    The indices of the prefix dimensions 0..d-2 are picked by one odometer
    over the positions (dimension, rank) in row-major order, each index in
    ascending order; a pin only narrows a position's range.  The last
    dimension's allowed indices start as one mask per pattern column.  Each
    rank r of dimension d-2 completes the pattern prefixes of rank r: it
    ANDs their host lines into the masks of their 1s' columns and, if a
    line drops a current pick, rescans the last dimension leftmost-greedily
    on the masks so far (``_scan``).  The scan is exact for these partial
    masks, a relaxation with fewer lines, so when it fails no extension can
    close and the branch is cut; the last rank's picks are the close.

    From d = 3 on, dimension d-3 checks ahead the same way: its rank r
    resolves the earlier parts (the coordinates before dimension d-2) of
    the prefixes whose earlier part ends at rank r.  For each such prefix,
    the OR of its host lines over the indices its rank of dimension d-2 can
    still take is ANDed into its columns' masks, with the same rescan and
    cut.  That OR holds every line the prefix could use, so the relaxed
    masks hold the final ones, the cut drops no copy, and dimension d-2
    starts from them.  Dimensions before d-3 cut nothing.  Picks run in
    lexicographic order of the selection vector and cuts drop only empty
    subtrees, so the first answer is the least.
    """
    highs, starts, spans = pieces[0]
    for h, s, spans in pieces[1:-1]:
        highs += h
        starts += s
    allow, least = pieces[-1]
    lead_at, work, size, cut, pre = plan.lead_at, plan.work, plan.size, plan.cut, plan.pre
    plane = plan.n_ext[-2]
    # the host line offset of each prefix's earlier part, ``base``, is set
    # when dimension d-3 picks its last rank, from the offset of its part
    # before dimension d-3, ``lead``, reset on each step into dimension d-3
    lead = [0] * len(lead_at)  # d = 3: no dimension before d-3
    base = [0] * len(lead_at)  # d = 2: every earlier part is empty
    # per position from pre on: the masks and their pick before it
    masks = [allow] + [None] * (size - pre)
    picks = [least] + [None] * (size - pre)
    xs = list(starts)  # starts[0] is never None
    k = 0
    while k >= 0:
        x = xs[k] + 1
        if x > highs[k]:
            k -= 1
            continue
        xs[k] = x
        if k >= pre:
            j = k - pre
            first, group = work[j]
            m = masks[j]
            ys = picks[j]
            if group:
                # masks only shrink, so picks the new lines keep are still
                # the least; rescan only if one is dropped
                m = m[:]
                moved = False
                if k >= cut:
                    for oid, cols in group:
                        line = lines[base[oid] + x]
                        for c in cols:
                            m[c] &= line
                            if not line >> ys[c] & 1:
                                moved = True
                else:
                    # the earlier parts ending at this rank are resolved:
                    # AND in, per prefix, every line it can still reach
                    for oid, prefs in group:
                        b = base[oid] = lead[oid] + x * plane
                        for r, cols in prefs:
                            lo, hi = spans[r]
                            line = reduce(or_, lines[b + lo : b + hi])
                            for c in cols:
                                m[c] &= line
                                if not line >> ys[c] & 1:
                                    moved = True
                if moved:
                    ys = _scan(m, ys, first)
                    if ys is None:
                        continue
            masks[j + 1] = m
            picks[j + 1] = ys
        if k < size - 1:
            k += 1
            s = starts[k]
            xs[k] = x if s is None else s
            if k == pre:
                lead = [sum(map(mul, map(xs.__getitem__, at), plan.pstr)) for at in lead_at]
        else:
            sels = (tuple(xs[f : f + l]) for f, l in zip(plan.firsts, plan.l_ext))
            return (*sels, tuple(ys))
    return None


def _to_embedding(sel0) -> Embedding:
    return Embedding(tuple(tuple(i + 1 for i in s) for s in sel0))


# ---------------------------------------------------------------------------
# Public operations


def contains(m: Matrix01, p: Matrix01) -> Embedding | None:
    """Lexicographically least embedding of p in m, or None.

    Patterns exceeding the host extent in some dimension are vacuously
    avoided (None), not an error.  An all-zero pattern that fits is matched
    by the identity selections.
    """
    _check_dims(m.shape, p)
    if not m.shape.fits(p.shape):
        return None
    plan = _plan(m.shape.extents, p)
    free = zip(count(), plan.l_ext, plan.n_ext)  # rank l at index n pins nothing
    sel = _search(m._last_lines, plan, [plan[pin] for pin in free])
    return None if sel is None else _to_embedding(sel[len(plan.head) :])


def _pinned_hits(lines, plan, anchor: Coord, entries=None, last=None):
    """Yield (entry, selection) pairs: copies mapping a 1-entry onto the anchor.

    The only caller of ``_search`` with pins.  ``lines`` is a host line
    table, ``plan`` its ``_Plan``, ``anchor`` a 1-based host cell, and
    ``entries`` the 0-based pattern 1-entries, in the plan's dimensions, to
    pin at the anchor (default: all, row-major).  An entry is pinnable when
    no piece of its pins is None: in every dimension, the pattern cells
    before and after it fit on either side of the anchor.  Per pinnable
    entry with a copy, the pair is the entry and its least 0-based
    selection vector pinning it, in the plan's dimensions.  Each entry's
    search stands alone, so the least selection of all pairs is the least
    anchored embedding.

    ``last``, a pair yielded at another anchor of the same plan, is tried
    first, with no search: its entry's index is moved to the anchor in every
    dimension.  If every dimension stays strictly ascending and every
    pattern 1-entry then lands on a 1 of ``lines``, the moved copy is
    yielded before any search runs.  It need not be the least, so only a
    caller that asks for existence, taking the first pair, passes ``last``.
    """
    a0 = plan.head + tuple(x - 1 for x in anchor)
    if last is not None:
        o0, sel = last
        moved = []
        for o, x, s in zip(o0, a0, sel):
            if s[o] != x:
                # the moved index must stay between its neighbours
                if o and s[o - 1] >= x or o + 1 < len(s) and s[o + 1] <= x:
                    break
                s = s[:o] + (x,) + s[o + 1 :]
            moved.append(s)
        else:
            *pre, tail = moved
            for o in plan.ones:
                # the host line of o's prefix, then o's index in the line
                line = sum(map(mul, map(tuple.__getitem__, pre, o), plan.pstr))
                if not lines[line] >> tail[o[-1]] & 1:
                    break
            else:
                yield o0, tuple(moved)
    for o0 in plan.ones if entries is None else entries:
        pieces = list(map(plan.__getitem__, zip(count(), o0, a0)))
        if all(pieces):
            sel = _search(lines, plan, pieces)
            if sel is not None:
                yield o0, sel


def _lines_with_flip(m: Matrix01, z: Coord) -> list[int]:
    """m's line table with the in-bounds cell z toggled, not building the matrix."""
    return _toggled(m._last_lines, m.shape._flat(z), m.shape.extents[-1])


def anchored_contains(m: Matrix01, p: Matrix01, anchor: Coord) -> Embedding | None:
    """Least embedding that selects ``anchor`` and maps it to a 1-entry of p.

    The least, over the pattern's pinnable 1-entries, of each one's least
    embedding mapping it onto ``anchor``.
    """
    _check_dims(m.shape, p)
    if not m.shape.in_bounds(anchor):
        raise ValueError(f"anchor {anchor} out of bounds")
    if not m.bits >> m.shape._flat(anchor) & 1:
        raise ValueError(f"anchor {anchor} is a 0-entry")
    plan = _plan(m.shape.extents, p)
    hits = _pinned_hits(m._last_lines, plan, anchor)
    best = min(hits, key=itemgetter(1), default=None)
    return None if best is None else _to_embedding(best[1][len(plan.head) :])


def potentially_matches(m: Matrix01, z: Coord, p: Matrix01, o: Coord) -> bool:
    """Whether flipping the 0-entry z yields a copy of p mapping z to o."""
    _check_dims(m.shape, p)
    if not m.shape.in_bounds(z):
        raise ValueError(f"coordinate {z} out of bounds")
    if m.bits >> m.shape._flat(z) & 1:
        raise ValueError(f"{z} is a 1-entry of the host")
    if not p.get(o):
        raise ValueError(f"{o} is a 0-entry of the pattern")
    plan = _plan(m.shape.extents, p)
    o0 = plan.head + tuple(x - 1 for x in o)
    hits = _pinned_hits(_lines_with_flip(m, z), plan, z, (o0,))
    return next(hits, None) is not None


# ---------------------------------------------------------------------------
# Whole-embedding enumeration.  Over the all-one host every selection is an
# embedding; ``image_offsets`` walks the selections and their 1-entry images
# one by one, for the exact searches and ``enumerate_embeddings``, and
# ``image_columns`` holds the same images cell-major, for the sweep verdicts.


def embeddings_count(host_shape: Shape, p: Matrix01) -> int:
    """Number of selections of p's shape inside the host shape."""
    _check_dims(host_shape, p)
    return prod(comb(n, l) for n, l in zip(host_shape.extents, p.shape.extents))


def image_offsets(host_shape: Shape, p: Matrix01) -> list[list[tuple[int, ...]]]:
    """Per dimension and selection, the host offsets of p's 1-entries.

    Entry ``[i][a]`` holds, for the a-th selection ``sel`` of the 0-based
    ``combinations(range(n_i), l_i)``, the offset ``sel[o[i]] * stride_i``
    of each 0-based 1-entry o of p, in row-major order.  The k-th element
    of ``product(*offsets)`` is the k-th selection vector in lexicographic
    selection order, the order of every selection table and enumeration
    here, and ``map(sum, zip(*offs))`` gives the flat host cells of its
    image, one per 1-entry.  A pattern that does not fit has no selections:
    then every list is empty, since ``product`` would build the other
    dimensions' lists in full before meeting the empty one.
    """
    if not host_shape.fits(p.shape):
        return [[] for _ in host_shape.extents]
    ones = _pattern_meta(p)[2]
    return [
        [tuple(sel[o[i]] * stride for o in ones) for sel in combinations(range(n), l)]
        for i, (n, l, stride) in enumerate(
            zip(host_shape.extents, p.shape.extents, host_shape.strides)
        )
    ]


def _index_sets(n: int, l: int, stride: int, owners, count: int) -> list[list[int]]:
    """Which selections of one dimension put each host index at each owner.

    ``owners[r]`` lists the owners, below ``count``, of rank r.  Entry
    ``[o][x]`` has bit ``a * stride`` set iff the a-th of the 0-based
    ``combinations(range(n), l)`` holds x at a rank that o owns.  With
    ``stride`` the number of selections of the later dimensions, a product
    of entries over the dimensions is their Kronecker product: its bits are
    the selection vectors in lexicographic selection order.

    Setting a bit copies the whole int; the verdict switch keeps a swept
    dimension to about 2^16 selections, a few tenths of a second at most.
    """
    sets = [[0] * n for _ in range(count)]
    for a, sel in enumerate(combinations(range(n), l)):
        bit = 1 << a * stride
        for x, group in zip(sel, owners):
            for o in group:
                sets[o][x] |= bit
    return sets


def _kron(a, b):
    """Kronecker product of two lists of bitsets, lazily: ``a`` is read once.

    ``s * t`` is the Kronecker product of s and t when s has its bits at
    multiples of t's width.
    """
    return (s * t for s in a for t in b)


def _transposed(host_shape: Shape, p: Matrix01) -> tuple[int, ...]:
    """The selection table built one step per (selection, 1-entry of p).

    Only the columns are held.
    """
    cols = [0] * host_shape.cell_count
    bit = 1
    for offs in product(*image_offsets(host_shape, p)):
        for c in map(sum, zip(*offs)):
            cols[c] |= bit
        bit <<= 1
    return tuple(cols)


def _kronecker(host_shape: Shape, p: Matrix01) -> tuple[int, ...]:
    """The selection table built one big-int product per (prefix, host cell).

    For each distinct (d-1)-prefix j of p's 1-entries, the prefix
    selections mapping j onto host prefix f are the Kronecker product, over
    the prefix dimensions, of the sets "holds f_i at rank j_i"; times the
    set of last-dimension selections that put a 1 of j at index y, they
    are j's part of the column of cell (f, y).  Sets are made only for the
    ranks some prefix uses; the others stay 0.  A prefix dimension of host
    extent 1 has one selection and the identity [1] as its sets, so it is
    left out: each lazy product nests one generator per factor, and a host
    of many unit dimensions would nest one per dimension.  The parts of
    distinct prefixes are disjoint, as a selection is one-to-one; they are
    made lazily, row-major, and ORed pairwise through a balanced tree of
    maps, one map fewer than there are prefixes, so each column is whole
    before the next is begun and the maps nest only ⌈log2 prefixes⌉ deep.
    """
    prefixes, by_last, _ = _pattern_meta(p)
    counts = list(map(comb, host_shape.extents, p.shape.extents))
    *n_pre, n_last = host_shape.extents
    *l_pre, l_last = p.shape.extents
    spreads = []  # (dimension, sets) per prefix dimension of extent above 1
    for i, (n, l) in enumerate(zip(n_pre, l_pre)):
        if n > 1:
            owners = [()] * l
            for pf in prefixes:
                owners[pf[i]] = (pf[i],)
            spreads.append((i, _index_sets(n, l, prod(counts[i + 1 :]), owners, l)))
    # [j][y]: the last-dimension selections putting a 1 of prefix j at y
    blocks = _index_sets(n_last, l_last, 1, by_last, len(prefixes))
    parts = [
        reduce(_kron, [sets[pf[i]] for i, sets in spreads] + [block])
        for pf, block in zip(prefixes, blocks)
    ]
    while len(parts) > 1:
        odd = parts[-1:] if len(parts) % 2 else []
        parts = [map(or_, a, b) for a, b in zip(parts[::2], parts[1::2])] + odd
    return tuple(parts[0])


@lru_cache(maxsize=1)
def image_columns(host_shape: Shape, p: Matrix01) -> tuple[int, ...]:
    """The selection table, cell-major: per host cell, the selections using it.

    Bit k of entry c is set iff the 1-entry image of the k-th selection, in
    lexicographic selection order, holds host cell c, so k = P * R + t for
    the prefix selection P, the last-dimension selection t and R selections
    of the last dimension.  A pattern that does not fit, or has no 1, has an
    all-zero table.  Of the two builds the one with fewer steps runs:
    ``_transposed`` takes a step per (selection, 1-entry of p) and
    ``_kronecker`` a big-int product and OR per (distinct prefix of p's
    1-entries, host cell), after an l_i × n_i table of sets per prefix
    dimension.  The first wins on tables of a few selections and on
    patterns about as large as the host, which have many prefixes but few
    selections; the second on tables with many selections per cell.

    Verdict sweeps check many hosts of one (shape, pattern) in a row, so
    one table gets nearly every reuse; a sweep table holds at most
    ``saturation.SWEEP_LIMIT`` bits per per-flip search it replaces, one
    per 0-cell plus one, so at most ``SWEEP_LIMIT`` × (cells + 1) bits, and
    keeping more costs memory for little.
    """
    _check_dims(host_shape, p)
    if not (host_shape.fits(p.shape) and p.bits):
        return (0,) * host_shape.cell_count
    prefixes, _, ones = _pattern_meta(p)
    # the Kronecker build's products, and its rank × index sets per
    # prefix dimension, against the transposed build's steps
    kron = [len(prefixes) * host_shape.cell_count]
    kron += map(mul, host_shape.extents[:-1], p.shape.extents[:-1])
    if embeddings_count(host_shape, p) * len(ones) < max(kron):
        return _transposed(host_shape, p)
    return _kronecker(host_shape, p)


# The rows of the latest exact search after its (host shape, pattern), or
# None: ``exact._search`` writes the one item while they take at most
# ENUMERATION_LIMIT bits, and the verdicts on that (shape, pattern) read it
# in place of ``image_columns``, as they usually check the search's witness
# next.  A one-item list rewritten in place: a dict would hash the shape and
# the pattern on every write and read, 0.4 µs each.
_search_rows: list[tuple | None] = [None]


def _embedding_at(host_shape: Shape, p_shape: Shape, k: int) -> Embedding:
    """The k-th selection in lexicographic selection order, as an Embedding."""
    sels = []
    for n, l in zip(reversed(host_shape.extents), reversed(p_shape.extents)):
        k, a = divmod(k, comb(n, l))
        # unrank a: skip the blocks of selections with a smaller next index
        sel, x = [], 0
        for left in range(l - 1, -1, -1):
            while a >= (block := comb(n - x - 1, left)):
                a -= block
                x += 1
            sel.append(x)
            x += 1
        sels.append(sel)
    return _to_embedding(reversed(sels))


def enumerate_embeddings(
    m: Matrix01, p: Matrix01, limit: int = ENUMERATION_LIMIT
) -> list[Embedding]:
    """All valid embeddings of p in m, in lexicographic order.

    Gated to small instances; raises ValueError when the raw selection count
    exceeds ``limit``.
    """
    _check_dims(m.shape, p)
    if not m.shape.fits(p.shape):
        return []
    total = embeddings_count(m.shape, p)
    if total > limit:
        raise ValueError(
            f"{total} candidate selections exceeds the enumeration cap {limit}"
        )
    # whether each host cell, in flat row-major order, is a 1
    is_one = [b == "1" for b in reversed(f"{m.bits:0{m.shape.cell_count}b}")]
    sels = product(
        *(combinations(range(n), l) for n, l in zip(m.shape.extents, p.shape.extents))
    )
    return [
        _to_embedding(sel)
        for offs, sel in zip(product(*image_offsets(m.shape, p)), sels)
        if all(map(is_one.__getitem__, map(sum, zip(*offs))))
    ]
