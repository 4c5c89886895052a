"""Avoidance, saturation, and semisaturation verdicts.

A matrix is *saturating* for a nonzero pattern when it avoids the pattern
and every 0-to-1 flip creates a copy.  It is *semisaturating* when every
flip creates a copy that uses the flipped cell as a matched 1-entry; the
matrix may already contain the pattern.

For an all-zero pattern we follow the convention that keeps the minimum
saturating weight at zero: is_saturating is true exactly for the all-zero
matrix and is_semisaturating is true for every matrix.

Both verdicts share one decision.  Either path reads the host's 0-cells
off one flag byte per cell, made from the inverted bits in one pass, and
``itertools.compress`` gathers them in C.  While the table holds at most
``SWEEP_LIMIT`` bits per search that the other path would run, they sweep
the cached cell-major selection table (``containment.image_columns``: per
host cell, the selections whose image holds it) over the 0-cells' columns:
a selection whose image holds none of them is a pre-existing copy, the
lowest one being the lexicographically least, and a selection whose image
holds exactly one 0-cell makes that cell a productive flip.  Otherwise the
table costs more than it saves, so they run one pinned search per 0-cell,
which asks whether the flipped host has a copy through that cell.  Both
paths give the same verdicts and the same counterexamples: the
row-major-first dead flip, or the lexicographically least copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_

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

# the binary digits "0" and "1" as the bytes 0 and 1, for itertools.compress
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


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
    count = embeddings_count(m.shape, p)
    cells = m.shape.cell_count
    # byte k is 1 iff cell k is a 0-cell: the inverted bits as a reversed
    # binary numeral, which stops at m's highest 0-cell
    flags = bin(m.shape.full_mask ^ m.bits)[:1:-1].encode().translate(_DIGIT_BYTES)
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
    for z in map(m.shape.coord_at, compress(range(cells), flags)):
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
