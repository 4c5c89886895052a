"""Exact pattern containment with submatrix selection semantics.

A host M contains a pattern P when we can pick a strictly increasing index
selection per dimension such that every 1-entry of P maps to a 1-entry of M
(extra host 1s are weakened to 0s for free).  The search below picks the
indices of the prefix dimensions 1..d-1 one rank at a time, in ascending
order, and keeps one candidate bitmask of last-dimension indices per pattern
column.  Each rank of dimension d-1 completes the pattern's prefixes (the
first d-1 coordinates of its 1-entries) of that rank, and their host lines
narrow the masks of their columns.  A leftmost-greedy scan of the masks then
decides whether the last dimension can still be picked: if even these
partial masks admit no ascending pick, the branch is cut.  The last rank's
scan closes the last dimension, and the picks run in lexicographic order,
so the first witness found is the lexicographically least selection vector.
Anchored variants pin one host index per dimension at a prescribed rank,
which is what "the new copy must use the flipped cell" amounts to; every
anchored question (``anchored_contains``, ``potentially_matches``, the
per-flip saturation verdicts, the greedy construction) goes through the one
pinned search ``_pinned_hits``, which caps each pinned search strictly below
the hit before it, so its last hit is the least anchored one.  Questions
about every selection at once walk the selections in lexicographic
selection order (``image_offsets``): the exact search tables and
``enumerate_embeddings`` take each selection's image as it comes, and the
sweep verdicts read ``image_columns``, the images stored cell-major (per
host cell, one bit per selection).  That table is built either from the
same walk, one step per (selection, pattern 1-entry), or one big-int
product per (pattern prefix, host cell) from per-dimension Kronecker
products, whichever has fewer.

Pure functions over immutable values throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import combinations, product
from math import comb, prod
from operator import mul, or_

from .core import Coord, Matrix01, Shape

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
        if len(sel) != l or any(not 1 <= x <= n for x in sel):
            return False
        if any(a >= b for a, b in zip(sel, sel[1:])):
            return False
    return all(m.get(e.host_cell(q)) for q in p.iter_ones())


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
# line masks per last-coordinate group.  Both tables are kept per pattern.

_per_pattern = lru_cache(maxsize=512)


@_per_pattern
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


@_per_pattern
def _rank_groups(p: Matrix01):
    """The pattern's prefixes grouped by the rank that completes them.

    ``_search`` resolves a prefix when it picks the index of the prefix's
    last coordinate, its rank in the last prefix dimension (the one prefix
    of a 1-D pattern at rank 0 of a dimension of extent 1).  Returns the
    distinct earlier parts ``outers`` of the prefixes and, per rank, the
    least pattern column holding a 1 of a prefix it completes, with each
    such prefix's position in ``outers`` and the columns of its 1s.
    """
    prefixes, by_last, _ = _pattern_meta(p)
    cols_of: list[list[int]] = [[] for _ in prefixes]
    for c, group in enumerate(by_last):
        for pid in group:
            cols_of[pid].append(c)
    d = p.shape.d
    outers: dict[tuple[int, ...], int] = {}
    ranks = [[len(by_last), []] for _ in range(p.shape.extents[-2] if d > 1 else 1)]
    for pf, cols in zip(prefixes, cols_of):
        rank = ranks[pf[-1] if pf else 0]
        rank[0] = min(rank[0], cols[0])
        rank[1].append((outers.setdefault(pf[:-1], len(outers)), tuple(cols)))
    return tuple(outers), tuple((first, tuple(g)) for first, g in ranks)


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


def _search(lines, n_ext, l_ext, rank_groups, pins=None, below=None):
    """Lexicographically least 0-based selection vector, or None.

    ``lines`` maps each (d-1)-prefix flat index of the host to the bitmask
    of its cells along the last dimension, and ``rank_groups`` comes from
    ``_rank_groups``.  ``pins`` is None or a per-dimension tuple of
    (rank, index) pins; ``below`` is None or a selection vector the answer
    must be strictly less than.

    The indices of the prefix dimensions 0..d-2 are picked by one odometer
    over the positions (dimension, rank) in row-major order, each index in
    ascending order; a pin or ``below`` only narrows a position's range.
    The last dimension's allowed indices start as one mask per pattern
    column.  Each rank r of dimension d-2 completes the pattern prefixes of
    rank r: it ANDs their host lines into the masks of their 1s' columns
    and, if a line drops a current pick, rescans the last dimension
    leftmost-greedily on the masks so far (``_scan``).  The scan is exact
    for these partial masks, a relaxation with fewer lines, so when it
    fails no extension can close and the branch is cut; the last rank's
    picks are the close.  Picks run in lexicographic order of the selection
    vector and cuts drop only empty subtrees, so the first answer is the
    least.  A 1-D search is run as the search of a 1 × n host.
    """
    d = len(n_ext)
    if d == 1:
        sel = _search(
            lines,
            (1, *n_ext),
            (1, *l_ext),
            rank_groups,
            pins and ((0, 0), *pins),
            below and ((0,), *below),
        )
        return sel and sel[1:]
    n_last, l_last = n_ext[-1], l_ext[-1]
    outers, ranks = rank_groups
    # last-dimension indices each pattern column may take; a pin keeps the
    # columns before its rank below the pinned index; ``least`` is their
    # leftmost-greedy pick
    allow = [(1 << n_last) - 1] * l_last
    least = list(range(l_last))
    if pins is not None:
        prank, pidx = pins[-1]
        allow[:prank] = [(1 << pidx) - 1] * prank
        allow[prank] = 1 << pidx
        least[prank:] = range(pidx, pidx + l_last - prank)
    # per position: the highest index, n - l + r at rank r, or px - pr + r
    # up to a pin (pr, px), and the index it starts past, px - 1 at the
    # pinned rank, -1 at rank 0 and else (None) the index of the rank before
    highs, starts, firsts = [], [], []
    for i, (n, l) in enumerate(zip(n_ext[:-1], l_ext[:-1])):
        pr, px = pins[i] if pins is not None else (-1, 0)
        firsts.append(len(highs))
        for r in range(l):
            highs.append((px - pr if r <= pr else n - l) + r)
            starts.append(px - 1 if r == pr else -1 if r == 0 else None)
    size = len(highs)
    cut = firsts[-1]  # the first position of dimension d-2
    # the positions and strides of the host line offset of each prefix's
    # earlier part, reset on each step into the cut dimension
    pstr = [prod(n_ext[k + 1 : -1]) for k in range(d - 2)]
    outer_at = [[f + r for f, r in zip(firsts, o)] for o in outers]
    base = [0] * len(outers)  # d = 2: every earlier part is empty
    # ties[k]: whether the picks before position k equal below's, which
    # keeps the pick at k at most below's, tops[k]
    tops = below and [x for s in below[:-1] for x in s]
    ties = [below is not None] + [False] * size
    # per rank of dimension d-2: the masks and their pick after it
    masks = [allow] + [None] * l_ext[-2]
    picks = [least] + [None] * l_ext[-2]
    xs = starts[:]  # starts[0] is never None
    k = 0
    while k >= 0:
        x = xs[k] + 1
        h = highs[k]
        tie = ties[k]
        if tie and tops[k] < h:
            h = tops[k]
        if x > h:
            k -= 1
            continue
        xs[k] = x
        ties[k + 1] = tie and x == tops[k]
        if k >= cut:
            r = k - cut
            first, group = ranks[r]
            m = masks[r]
            ys = picks[r]
            if group:
                # masks only shrink, so picks the new lines keep are still
                # the least; rescan only if one is dropped
                m = m[:]
                moved = False
                for oid, cols in group:
                    line = lines[base[oid] + x]
                    for c in cols:
                        m[c] &= line
                        if not line >> ys[c] & 1:
                            moved = True
                if moved:
                    ys = _scan(m, ys, first)
                    if ys is None:
                        continue
            masks[r + 1] = m
            picks[r + 1] = ys
        if k < size - 1:
            k += 1
            s = starts[k]
            xs[k] = x if s is None else s
            if k == cut:
                base = [sum(map(mul, map(xs.__getitem__, at), pstr)) for at in outer_at]
        elif not ties[size] or tuple(ys) < below[-1]:
            return tuple(tuple(xs[f : f + l]) for f, l in zip(firsts, l_ext)) + (tuple(ys),)
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
    groups = _rank_groups(p)
    sel = _search(m._last_lines, m.shape.extents, p.shape.extents, groups)
    return None if sel is None else _to_embedding(sel)


def _pinned_hits(lines, n_ext, p: Matrix01, anchor: Coord, entries=None):
    """Yield ever smaller 0-based selections, each pinning one pattern 1-entry.

    The only caller of ``_search`` with pins.  ``lines`` is a host line
    table, ``anchor`` a 1-based host cell, and ``entries`` the 0-based
    pattern 1-entries to pin at the anchor (default: all, row-major).  An
    entry is pinnable when, in every dimension, the pattern cells before and
    after it fit on either side of the anchor; a pattern that does not fit
    the host has no pinnable entry.  Each pinned search is capped strictly
    below the last hit, so the first hit answers existence and the last is
    the least anchored embedding.
    """
    l_ext = p.shape.extents
    ones = _pattern_meta(p)[2]
    groups = _rank_groups(p)
    best = None
    for o0 in ones if entries is None else entries:
        pins = tuple((r, a - 1) for r, a in zip(o0, anchor))
        if all(
            r <= a and l - r <= n - a
            for (r, a), l, n in zip(pins, l_ext, n_ext)
        ):
            sel = _search(lines, n_ext, l_ext, groups, pins, best)
            if sel is not None:
                best = sel
                yield sel


def _lines_with_flip(m: Matrix01, z: Coord) -> list[int]:
    flat = m.shape.flat_index(z)
    n_last = m.shape.extents[-1]
    lines = list(m._last_lines)
    lines[flat // n_last] |= 1 << (flat % n_last)
    return lines


def anchored_contains(m: Matrix01, p: Matrix01, anchor: Coord) -> Embedding | None:
    """Least embedding that selects ``anchor`` and maps it to a 1-entry of p."""
    _check_dims(m.shape, p)
    if not m.shape.in_bounds(anchor):
        raise ValueError(f"anchor {anchor} out of bounds")
    if not m.get(anchor):
        raise ValueError(f"anchor {anchor} is a 0-entry")
    best = None
    for best in _pinned_hits(m._last_lines, m.shape.extents, p, anchor):
        pass
    return None if best is None else _to_embedding(best)


def potentially_matches(m: Matrix01, z: Coord, p: Matrix01, o: Coord) -> bool:
    """Whether flipping the 0-entry z yields a copy of p mapping z to o."""
    _check_dims(m.shape, p)
    if not m.shape.in_bounds(z):
        raise ValueError(f"coordinate {z} out of bounds")
    if m.get(z):
        raise ValueError(f"{z} is a 1-entry of the host")
    if not p.get(o):
        raise ValueError(f"{o} is a 0-entry of the pattern")
    o0 = tuple(x - 1 for x in o)
    hits = _pinned_hits(_lines_with_flip(m, z), m.shape.extents, p, z, (o0,))
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

    Setting a bit copies the whole int, so the sets are built a window of
    ``span`` selections at a time, a whole number of bytes wide, and the
    windows are joined as bytes at the end: the cost stays linear in the
    output even when one dimension has many selections.  A window holds as
    many selections as there are sets, so a small dimension is one window
    and needs no joining.
    """
    span = -(-count * n // 8) * 8
    windows = []
    sets = [[0] * n for _ in range(count)]
    start, end = 0, span
    for a, sel in enumerate(combinations(range(n), l)):
        if a == end:
            windows.append(sets)
            sets = [[0] * n for _ in range(count)]
            start, end = end, end + span
        bit = 1 << (a - start) * stride
        for x, group in zip(sel, owners):
            for o in group:
                sets[o][x] |= bit
    if not windows:
        return sets
    windows.append(sets)
    size = span * stride // 8

    def joined(o, x):
        parts = b"".join(w[o][x].to_bytes(size, "little") for w in windows)
        return int.from_bytes(parts, "little")

    return [[joined(o, x) for x in range(n)] for o in range(count)]


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
    made lazily, row-major, and ORed through one map per prefix, so each
    column is whole before the next is begun.
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
    return tuple(reduce(partial(map, or_), parts))


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
    one table gets nearly every reuse; a sweep table holds up to
    ``saturation.SWEEP_LIMIT`` selection bits per cell, so keeping more
    costs memory for little.
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
