"""Avoidance, saturation, and semisaturation verdicts.

A matrix is *saturating* for a nonzero pattern when it avoids the pattern
and every 0-to-1 flip creates a copy.  It is *semisaturating* when every
flip creates a copy that uses the flipped cell as a matched 1-entry; the
matrix may already contain the pattern.

For an all-zero pattern we follow the convention that keeps the minimum
saturating weight at zero: is_saturating is true exactly for the all-zero
matrix and is_semisaturating is true for every matrix.

Both verdicts share one decision.  While the table holds at most
``SWEEP_LIMIT`` bits per search that the other path would run, they sweep
the cached cell-major selection table (``containment.image_columns``: per
host cell, the selections whose image holds it), walking the host's 0-cells
with a few big-int operations each: a selection whose image misses exactly
one 0-cell makes that cell a productive flip, and a selection missing none
is a pre-existing copy, the lowest one being the lexicographically least.
Otherwise the table costs more than it saves, so they run one pinned search
per 0-cell, which asks whether the flipped host has a copy through that
cell.  Both paths give the same verdicts and the same counterexamples: the
row-major-first dead flip, or the lexicographically least copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .containment import (
    Embedding,
    _check_dims,
    _embedding_at,
    _lines_with_flip,
    _pinned_hits,
    _plan,
    contains,
    embeddings_count,
    image_columns,
)
from .core import Coord, Matrix01

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


def _flip_cover(m: Matrix01, p: Matrix01) -> tuple[int, int, list[tuple[int, int]]]:
    """(once, single, walked): m's 0-cells swept over the cell-major table.

    ``walked`` pairs each 0-cell z of m (flat index, ascending) with its
    column ``col[z]``, the selections whose image holds z.  ``once`` holds
    the selections whose image holds some 0-cell and ``single`` those
    holding exactly one.  A selection outside ``once`` is a copy of p in
    m; the lowest one is the lexicographically least.  A 0-cell z is a
    productive flip iff ``col[z] & single``.
    """
    cols = image_columns(m.shape, p)
    walked = []
    once = twice = 0
    inv = m.shape.full_mask ^ m.bits
    while inv:
        z = (inv & -inv).bit_length() - 1
        col = cols[z]
        twice |= once & col
        once |= col
        walked.append((z, col))
        inv &= inv - 1
    return once, once & ~twice, walked


def _flip_verdict(m: Matrix01, p: Matrix01, must_avoid: bool) -> SaturationReport:
    """Every flip makes a copy through the flipped cell (and, if asked, m avoids p).

    For a nonzero pattern.  When m avoids p, a copy created by a flip must
    use the flipped cell, so the same test serves both verdicts.
    """
    count = embeddings_count(m.shape, p)
    cells = m.shape.cell_count
    if count * cells <= SWEEP_LIMIT * (cells - m.weight + 1):
        once, single, walked = _flip_cover(m, p)
        if must_avoid:
            # the lowest selection outside once
            k = ((once + 1) & ~once).bit_length() - 1
            if k < count:
                emb = _embedding_at(m.shape, p.shape, k)
                return SaturationReport(False, "contains_pattern", emb)
        for z, col in walked:
            if not col & single:
                return SaturationReport(False, "dead_flip", m.shape.coord_at(z))
        return _OK

    if must_avoid:
        emb = contains(m, p)
        if emb is not None:
            return SaturationReport(False, "contains_pattern", emb)
    plan = _plan(m.shape.extents, p)
    for z in m.iter_zeros():
        hits = _pinned_hits(_lines_with_flip(m, z), plan, z)
        if next(hits, None) is None:
            return SaturationReport(False, "dead_flip", z)
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
