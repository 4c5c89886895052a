"""Exact pattern containment with submatrix selection semantics.

A host M contains a pattern P when we can pick a strictly increasing index
selection per dimension such that every 1-entry of P maps to a 1-entry of M
(extra host 1s are weakened to 0s for free).  The search below enumerates
selections for dimensions 1..d-1 in lexicographic order and closes the last
dimension with a leftmost-greedy scan over per-index candidate bitmasks, so
the first witness found is the lexicographically least selection vector.
Anchored variants pin one host index per dimension at a prescribed rank,
which is what "the new copy must use the flipped cell" amounts to; every
anchored question (``anchored_contains``, ``potentially_matches``, the
per-flip saturation verdicts, the greedy construction) goes through the one
pinned search ``_pinned_hits``.  Questions about every selection at once
(sweep verdicts, exact search tables, ``enumerate_embeddings``) consume the
one image-mask builder ``iter_image_masks``.

Pure functions over immutable values throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, prod
from typing import Iterator

from .core import Coord, Matrix01, Shape, _recursion_ceiling

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
    """The dimension gate of every containment and verdict question.

    Host and pattern must agree on d, and d must stay within the recursion
    ceiling, since ``_search`` recurses once per dimension.
    """
    if host.d != p.shape.d:
        raise ValueError(
            f"dimension mismatch: host is {host.d}-dimensional, "
            f"pattern is {p.shape.d}-dimensional"
        )
    ceiling = _recursion_ceiling()
    if host.d > ceiling:
        raise ValueError(
            f"{host.d} dimensions exceeds the recursion ceiling of {ceiling}"
        )


# ---------------------------------------------------------------------------
# Pattern metadata: 1-entries grouped by their last coordinate, with the
# distinct (d-1)-dimensional prefixes interned so the kernel can AND host
# line masks per last-coordinate group.


@lru_cache(maxsize=512)
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


def _dim_selections(n: int, l: int, pin):
    """0-based ascending selections of l indices from range(n), lex order.

    ``pin=(rank, idx)`` restricts to selections holding ``idx`` at position
    ``rank``; the restricted stream is still lexicographic.  Pins come from
    ``_pinned_hits``, which passes only feasible ones.
    """
    if pin is None:
        return combinations(range(n), l)
    rank, idx = pin

    def gen():
        for lo in combinations(range(idx), rank):
            for hi in combinations(range(idx + 1, n), l - rank - 1):
                yield lo + (idx,) + hi

    return gen()


def _search(lines, n_ext, l_ext, prefixes, by_last, pins):
    """Core lexicographic search; returns 0-based selections or None.

    ``lines`` maps each (d-1)-prefix flat index of the host to the bitmask of
    its cells along the last dimension.  ``pins`` is None or a per-dimension
    tuple of (rank, index) pins.
    """
    d = len(n_ext)
    n_last, l_last = n_ext[-1], l_ext[-1]
    pstr = [1] * (d - 1)
    for i in range(d - 3, -1, -1):
        pstr[i] = pstr[i + 1] * n_ext[i + 1]
    # last-dimension indices each pattern column may take; a pin keeps the
    # columns before its rank below the pinned index
    allow = [(1 << n_last) - 1] * l_last
    if pins is not None:
        prank, pidx = pins[-1]
        allow[:prank] = [(1 << pidx) - 1] * prank
        allow[prank] = 1 << pidx
    sel: list[tuple[int, ...]] = [()] * (d - 1)

    def close_last():
        flats = []
        for pf in prefixes:
            f = 0
            for k in range(d - 1):
                f += sel[k][pf[k]] * pstr[k]
            flats.append(f)
        out = []
        pos = 0
        for c in range(l_last):
            mask = allow[c]
            for pid in by_last[c]:
                mask &= lines[flats[pid]]
                if not mask:
                    return None
            mm = mask >> pos
            if not mm:
                return None
            y = pos + ((mm & -mm).bit_length() - 1)
            out.append(y)
            pos = y + 1
        return tuple(out)

    def rec(i):
        if i == d - 1:
            return close_last()
        pin = pins[i] if pins is not None else None
        for choice in _dim_selections(n_ext[i], l_ext[i], pin):
            sel[i] = choice
            r = rec(i + 1)
            if r is not None:
                return r
        return None

    last = rec(0)
    if last is None:
        return None
    return tuple(sel) + (last,)


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
    prefixes, by_last, _ = _pattern_meta(p)
    sel = _search(
        m._last_lines, m.shape.extents, p.shape.extents, prefixes, by_last, None
    )
    return None if sel is None else _to_embedding(sel)


def _pinned_hits(lines, n_ext, p: Matrix01, anchor: Coord, entries=None):
    """Yield the least 0-based selection for each pinnable pattern 1-entry.

    The only caller of ``_search`` with pins.  ``lines`` is a host line
    table, ``anchor`` a 1-based host cell, and ``entries`` the 0-based
    pattern 1-entries to pin at the anchor (default: all, row-major).  An
    entry is pinnable when, in every dimension, the pattern cells before and
    after it fit on either side of the anchor; a pattern that does not fit
    the host has no pinnable entry.  The first hit answers existence; the
    least hit is the least anchored embedding.
    """
    l_ext = p.shape.extents
    prefixes, by_last, ones = _pattern_meta(p)
    for o0 in ones if entries is None else entries:
        pins = tuple((r, a - 1) for r, a in zip(o0, anchor))
        if all(
            r <= a and l - r <= n - a
            for (r, a), l, n in zip(pins, l_ext, n_ext)
        ):
            sel = _search(lines, n_ext, l_ext, prefixes, by_last, pins)
            if sel is not None:
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
    hits = _pinned_hits(m._last_lines, m.shape.extents, p, anchor)
    best = min(hits, default=None)
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
# embedding; ``iter_image_masks`` is the one place that turns selections
# into their 1-entry images, which is what the sweep-style verdicts, the
# exact searches and ``enumerate_embeddings`` consume.


def embeddings_count(host_shape: Shape, p: Matrix01) -> int:
    """Number of selections of p's shape inside the host shape."""
    if host_shape.d != p.shape.d:
        raise ValueError("dimension mismatch")
    return prod(comb(n, l) for n, l in zip(host_shape.extents, p.shape.extents))


def iter_image_masks(host_shape: Shape, p: Matrix01) -> Iterator[int]:
    """Bitmask of the 1-entry image of every selection, lexicographic order.

    The k-th mask belongs to the k-th selection of the product, over the
    dimensions, of 0-based ``combinations(range(n_i), l_i)``.  Each
    (d-1)-dimensional prefix selection gets one partial mask per
    last-coordinate group of pattern 1s, with the group's cells at last
    index 0; each last-dimension selection then shifts every group's
    partial mask to its chosen index and ORs them.  A pattern that does not
    fit yields nothing; an all-zero pattern yields one 0 per selection.
    """
    if host_shape.d != p.shape.d:
        raise ValueError("dimension mismatch")
    if not host_shape.fits(p.shape):
        return
    prefixes, by_last, _ = _pattern_meta(p)
    *n_pre, n_last = host_shape.extents
    *l_pre, l_last = p.shape.extents
    strides = host_shape.strides
    # per prefix dimension and selection: host offset of every distinct prefix
    offsets = [
        [
            tuple(sel[pf[i]] * strides[i] for pf in prefixes)
            for sel in combinations(range(n), l)
        ]
        for i, (n, l) in enumerate(zip(n_pre, l_pre))
    ]
    groups = [(c, group) for c, group in enumerate(by_last) if group]
    last_sels = list(combinations(range(n_last), l_last))
    pids = range(len(prefixes))
    for offs in product(*offsets):
        cell = [1 << sum(o[j] for o in offs) for j in pids]
        partial = []
        for c, group in groups:
            g = 0
            for j in group:
                g |= cell[j]
            partial.append((c, g))
        for t in last_sels:
            e = 0
            for c, g in partial:
                e |= g << t[c]
            yield e


@lru_cache(maxsize=1)
def one_image_masks(host_shape: Shape, p: Matrix01) -> tuple[int, ...]:
    """All of ``iter_image_masks`` as a tuple, caching the last table only.

    A host M then contains p iff some mask is a subset of M's bits, and
    flipping a 0-cell z creates a copy using z iff some mask misses exactly
    the bit of z.  Verdict sweeps check many hosts of one (shape, pattern)
    in a row, so one table gets nearly every reuse; a sweep table can hold
    up to ``saturation.SWEEP_LIMIT`` masks, so keeping more costs memory for
    little.
    """
    return tuple(iter_image_masks(host_shape, p))


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
    inv = m.shape.full_mask ^ m.bits
    sels = product(
        *(combinations(range(n), l) for n, l in zip(m.shape.extents, p.shape.extents))
    )
    return [
        _to_embedding(sel)
        for e, sel in zip(iter_image_masks(m.shape, p), sels)
        if not e & inv
    ]
