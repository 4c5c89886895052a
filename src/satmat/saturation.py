"""Avoidance, saturation, and semisaturation verdicts.

A matrix is *saturating* for a nonzero pattern when it avoids the pattern
and every 0-to-1 flip creates a copy.  It is *semisaturating* when every
flip creates a copy that uses the flipped cell as a matched 1-entry; the
matrix may already contain the pattern.

For an all-zero pattern we follow the convention that keeps the minimum
saturating weight at zero: is_saturating is true exactly for the all-zero
matrix and is_semisaturating is true for every matrix.

Both verdicts share one decision.  Up to ``SWEEP_LIMIT`` candidate
selections they run a single sweep over the cached image masks of every
selection of the pattern inside the host shape: a mask that misses exactly
one host cell marks that cell as a productive flip, and a mask missing
nothing is a pre-existing copy.  Larger hosts would need too big a table,
so they fall back to one pinned search per 0-cell, which asks whether the
flipped host has a copy through that cell.  Both paths give the same
verdicts and the same row-major-first counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass

from .containment import (
    Embedding,
    _check_dims,
    _lines_with_flip,
    _pinned_hits,
    contains,
    embeddings_count,
    one_image_masks,
)
from .core import Coord, Matrix01

SWEEP_LIMIT = 500_000  # candidate selections; beyond this use per-flip search


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


def _flip_cover(m: Matrix01, p: Matrix01) -> tuple[bool, int]:
    """(host contains p, bitmask of 0-cells whose flip completes a copy)."""
    inv = m.shape.full_mask ^ m.bits
    found = False
    covered = 0
    for e in one_image_masks(m.shape, p):
        miss = e & inv
        if not miss:
            found = True
        elif not miss & (miss - 1):
            covered |= miss
    return found, covered


def _first_uncovered(m: Matrix01, covered: int) -> Coord | None:
    uncovered = (m.shape.full_mask ^ m.bits) & ~covered
    if not uncovered:
        return None
    return m.shape.coord_at((uncovered & -uncovered).bit_length() - 1)


def _flip_verdict(m: Matrix01, p: Matrix01, must_avoid: bool) -> SaturationReport:
    """Every flip makes a copy through the flipped cell (and, if asked, m avoids p).

    For a nonzero pattern.  When m avoids p, a copy created by a flip must
    use the flipped cell, so the same test serves both verdicts.
    """
    if embeddings_count(m.shape, p) <= SWEEP_LIMIT:
        found, covered = _flip_cover(m, p)
        if must_avoid and found:
            return SaturationReport(False, "contains_pattern", contains(m, p))
        bad = _first_uncovered(m, covered)
        return _OK if bad is None else SaturationReport(False, "dead_flip", bad)

    if must_avoid:
        emb = contains(m, p)
        if emb is not None:
            return SaturationReport(False, "contains_pattern", emb)
    for z in m.iter_zeros():
        hits = _pinned_hits(_lines_with_flip(m, z), m.shape.extents, p, z)
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
