"""Avoidance, saturation, and semisaturation verdicts.

A matrix is *saturating* for a nonzero pattern when it avoids the pattern
and every 0-to-1 flip creates a copy.  It is *semisaturating* when every
flip creates a copy that uses the flipped cell as a matched 1-entry; the
matrix may already contain the pattern.

For an all-zero pattern we follow the convention that keeps the minimum
saturating weight at zero: is_saturating is true exactly for the all-zero
matrix and is_semisaturating is true for every matrix.

Both verdicts share one decision, read from one of three sources.  Each
reads the host's 0-cells off one flag byte per cell, made from the
inverted bits in one pass, and ``itertools.compress`` gathers them in C.

- Right after an exact search on the host's (shape, pattern), the rows it
  kept (``containment._search_rows``): per cell, the supports it leaves
  live when decided 0, each support being a selection's image less one
  cell, its owner.  ANDing the 0-cells' rows leaves the supports inside
  the 1-set; a 0-cell is a productive flip iff one of its own is left, and
  the host holds a copy iff a 1-cell's is, the least copy then coming from
  ``contains``.
- While the table holds at most ``SWEEP_LIMIT`` bits per search that the
  per-flip path would run, the cached cell-major selection table
  (``containment.image_columns``: per host cell, the selections whose
  image holds it), swept over the 0-cells' columns: a selection whose
  image holds none of them is a pre-existing copy, the lowest one being
  the lexicographically least, and a selection whose image holds exactly
  one 0-cell makes that cell a productive flip.
- Otherwise the table costs more than it saves: per 0-cell, whether the
  flipped host has a copy through that cell, on one private copy of the
  host's line table per verdict.  The copy found for the previous 0-cell
  is tried first, the pattern 1-entry it pinned moved to this cell in
  every dimension: if the selection still ascends and every 1-entry lands
  on a 1, the flip is productive and nothing is searched.  Otherwise one
  pinned search runs per pinnable 1-entry until one finds a copy, which
  the next 0-cell tries in turn.  Only existence is asked, so a move that
  fails proves nothing and changes no report.

All three give the same verdicts and the same counterexamples: the
row-major-first dead flip, or the lexicographically least copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import and_, or_

from .containment import (
    Embedding,
    _check_dims,
    _embedding_at,
    _pinned_hits,
    _plan,
    _search_rows,
    contains,
    embeddings_count,
    image_columns,
)
from .core import Coord, Matrix01, _flags

# table bits (selections × cells) per search of the per-flip path, one per
# 0-cell plus one (``contains``); beyond this the verdicts use that path
SWEEP_LIMIT = 1 << 16


@dataclass(frozen=True)
class SaturationReport:
    """Verdict plus the first failure in row-major order, if any.

    ``counterexample`` is the offending 0-entry for a dead flip, or the
    pre-existing copy's Embedding when the matrix already contains the
    pattern.
    """

    verdict: bool
    failure_kind: str | None = None  # "contains_pattern" | "dead_flip"
    counterexample: Coord | Embedding | None = None


_OK = SaturationReport(True)


def avoids(m: Matrix01, p: Matrix01) -> bool:
    return contains(m, p) is None


def _flip_verdict(m: Matrix01, p: Matrix01, must_avoid: bool) -> SaturationReport:
    """Every flip makes a copy through the flipped cell (and, if asked, m avoids p).

    For a nonzero pattern.  When m avoids p, a copy created by a flip must
    use the flipped cell, so the same test serves both verdicts.
    """
    cells = m.shape.cell_count
    flags = _flags(m.shape.full_mask ^ m.bits)  # byte k is 1 iff cell k is a 0-cell
    kept = _search_rows[0]
    if kept is not None and kept[0] == (m.shape, p):
        _, keep, guard, base, guard_of = kept
        # the supports that hold no 0-cell (from -1: all of them), then the
        # guards of the cells owning one; a support is an image less its owner
        live = reduce(and_, compress(keep, flags), -1)
        owners = ((live | guard) - base) & guard
        zeros = reduce(or_, compress(guard_of, flags), 0)
        if must_avoid and owners & ~zeros:
            return SaturationReport(False, "contains_pattern", contains(m, p))
        dead = zeros & ~owners
        if not dead:
            return _OK
        # the first dead flip: a cell has as many guards below its own
        z = (guard & (dead & -dead) - 1).bit_count()
        return SaturationReport(False, "dead_flip", m.shape.coord_at(z))

    count = embeddings_count(m.shape, p)
    if count * cells <= SWEEP_LIMIT * (cells - m.weight + 1):
        # per 0-cell, its column: the selections whose image holds it
        zcols = [*compress(image_columns(m.shape, p), flags)]
        if must_avoid:
            # a selection whose image holds no 0-cell is a copy; the lowest
            # one is the lexicographically least
            once = reduce(or_, zcols, 0)
            k = ((once + 1) & ~once).bit_length() - 1
            if k < count:
                emb = _embedding_at(m.shape, p.shape, k)
                return SaturationReport(False, "contains_pattern", emb)
        once = twice = 0
        for col in zcols:
            twice |= once & col
            once |= col
        # the selections whose image holds exactly one 0-cell, which a flip
        # there turns into a copy
        single = once & ~twice
        if all(map(single.__and__, zcols)):
            return _OK
        # the first dead flip
        zeros = compress(range(cells), flags)
        z = next(z for z, col in zip(zeros, zcols) if not col & single)
        return SaturationReport(False, "dead_flip", m.shape.coord_at(z))

    if must_avoid:
        emb = contains(m, p)
        if emb is not None:
            return SaturationReport(False, "contains_pattern", emb)
    plan = _plan(m.shape.extents, p)
    n_last = m.shape.extents[-1]
    lines = m._last_lines[:]  # one private copy: each flip is toggled in, then out
    hit = None  # the last flip's copy, re-pinned at the next 0-cell first
    for z in compress(range(cells), flags):
        j, x = divmod(z, n_last)
        anchor = m.shape.coord_at(z)
        lines[j] ^= 1 << x
        try:
            hit = next(_pinned_hits(lines, plan, anchor, last=hit), None)
        finally:
            lines[j] ^= 1 << x
        if hit is None:
            return SaturationReport(False, "dead_flip", anchor)
    return _OK


def is_saturating(m: Matrix01, p: Matrix01) -> SaturationReport:
    """Does m avoid p while every 0-to-1 flip creates a copy?

    Patterns that do not fit are avoided vacuously and no flip can create a
    copy, so the only saturating host is the all-one matrix.
    """
    _check_dims(m.shape, p)
    if p.weight == 0:
        if m.weight == 0:
            return _OK
        return SaturationReport(False, "contains_pattern", contains(m, p))
    return _flip_verdict(m, p, must_avoid=True)


def is_semisaturating(m: Matrix01, p: Matrix01) -> SaturationReport:
    """Does every 0-to-1 flip create a new copy anchored at the flipped cell?"""
    _check_dims(m.shape, p)
    if p.weight == 0:
        return _OK
    return _flip_verdict(m, p, must_avoid=False)
