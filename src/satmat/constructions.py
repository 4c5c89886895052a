"""Explicit matrix constructions and structural extractions.

Includes the diagonal concatenation glue, the nested-shell witness attaining
the identity-pattern closed form, the greedy saturation pass, bottom
staircase extraction with layer-by-layer decomposition, the offset-block
family saturating an arbitrary nonzero pattern, and the corner-band family
with constant weight used for bounded semisaturation.

The nested shells, offset block and corner bands are boxes (products of
per-dimension index sets) or their complements, built by ``core._box_mask``.
Every construction refuses a host or output above ``DEFAULT_CELL_LIMIT``
cells before building it.
"""

from __future__ import annotations

import random
from math import prod
from operator import add
from typing import Iterable, Sequence

from .containment import _check_dims, _pinned_hits, _plan
from .core import (
    Coord,
    Matrix01,
    Shape,
    _box_mask,
    _check_cell_limit,
    _packed,
    cell_string,
    diagonals,
    is_complete_staircase,
    is_staircase,
)


class PatternFitError(ValueError):
    """The pattern exceeds the host extent in some dimension."""


def identity_pattern(d: int, size: int) -> Matrix01:
    """The d-dimensional identity of extent ``size``: 1s at (i, ..., i)."""
    if d < 1 or size < 1:
        raise ValueError("d and size must be positive")
    shape = Shape((size,) * d)
    return Matrix01.from_ones(shape, [(i,) * d for i in range(1, size + 1)])


def diagonal_concatenation(a: Matrix01, b: Matrix01) -> Matrix01:
    """Block-place a at the low corner and b at the high corner, zeros between.

    Result extents are the componentwise sums; cell x copies a when every
    x_i <= l_i, copies b (shifted) when every x_i > l_i, and is 0 otherwise.
    """
    if a.shape.d != b.shape.d:
        raise ValueError("dimension mismatch")
    l = a.shape.extents
    out_shape = Shape(tuple(la + lb for la, lb in zip(l, b.shape.extents)))
    _check_cell_limit(out_shape)
    flats = []
    for block, shift in ((a, (0,) * len(l)), (b, l)):
        flats += (out_shape._flat(tuple(map(add, c, shift))) for c in block.iter_ones())
    return Matrix01(out_shape, _packed(out_shape.cell_count, flats))


def has_corner_only_shell(p: Matrix01) -> bool:
    """Is the all-max corner the only 1-entry on the pattern's shell?

    The shell is everything outside the box of indices 1..n_i - 1.
    """
    inner = _box_mask(p.shape, [range(1, n) for n in p.shape.extents])
    return p.bits & ~inner == 1 << (p.shape.cell_count - 1)


# ---------------------------------------------------------------------------
# Bottom staircases


def _bottommost_ones(m: Matrix01, bits: int) -> tuple[frozenset[Coord], bool]:
    """Per diagonal, the 1-entry with maximal position; flags full coverage."""
    picked = []
    all_hit = True
    shape = m.shape
    for diagonal in diagonals(shape):
        last = None
        for c in diagonal:
            if (bits >> shape.flat_index(c)) & 1:
                last = c
        if last is None:
            all_hit = False
        else:
            picked.append(last)
    return frozenset(picked), all_hit


def bottom_staircase(m: Matrix01) -> frozenset[Coord] | None:
    """Bottommost 1-entry of every diagonal; None when some diagonal is all 0.

    For an arbitrary matrix the result need not be an antichain; it is a
    complete staircase exactly when the host is saturating for a pattern
    whose only shell 1-entry is its corner.
    """
    picked, all_hit = _bottommost_ones(m, m.bits)
    return picked if all_hit else None


def staircase_decompose(m: Matrix01, k: int) -> list[frozenset[Coord]] | None:
    """Peel k bottommost layers and validate the nested-shell weight list.

    Round j takes the bottommost 1 of every diagonal that still has one.
    Succeeds iff every layer is an antichain of weight
    prod(n_i - j + 1) - prod(n_i - j) and the k rounds consume all 1s.
    """
    if k < 1:
        raise ValueError("k must be positive")
    ext = m.shape.extents
    bits = m.bits
    layers: list[frozenset[Coord]] = []
    for j in range(1, k + 1):
        expected = prod(n - j + 1 for n in ext) - prod(n - j for n in ext)
        layer, _ = _bottommost_ones(m, bits)
        if len(layer) != expected or not is_staircase(layer):
            return None
        for c in layer:
            bits &= ~(1 << m.shape.flat_index(c))
        layers.append(layer)
    if bits:
        return None
    return layers


def strip_shell(m: Matrix01, t: Iterable[Coord]) -> Matrix01:
    """Zero the staircase t, then drop the shell, shrinking every extent by 1."""
    shape = m.shape
    cs = list(t)
    if not is_complete_staircase(cs, shape):
        raise ValueError("t must be a complete staircase of m's shape")
    if any(n < 2 for n in shape.extents):
        raise ValueError("every extent must be at least 2")
    t_bits = _packed(shape.cell_count, map(shape._flat, cs))
    cells = cell_string(Matrix01(shape, m.bits & ~t_bits))
    inner = Shape(tuple(n - 1 for n in shape.extents))
    kept = (k for k, c in enumerate(inner.cells()) if cells[shape._flat(c)] == "1")
    return Matrix01(inner, _packed(inner.cell_count, kept))


# ---------------------------------------------------------------------------
# Saturating witnesses


def identity_layers(shape: Shape, k: int) -> Matrix01:
    """Union of the k nested shells at the low corner.

    Cell x is 1 iff x_i > n_i - k for some i, i.e. it lies on the shell of
    one of the shapes (n_1 - j, ..., n_d - j), j < k.  The weight is
    prod(n_i) - prod(n_i - k), and the result saturates the identity pattern
    of extent k + 1.
    """
    if not 1 <= k <= min(shape.extents):
        raise ValueError(f"k must be in [1, {min(shape.extents)}]")
    inner = _box_mask(shape, [range(1, n - k + 1) for n in shape.extents])
    return Matrix01(shape, shape.full_mask ^ inner)


def cell_order(shape: Shape, seed: int | None = None) -> list[Coord]:
    """Row-major cell order, or a seeded pseudo-random permutation."""
    _check_cell_limit(shape)
    cells = list(shape.cells())
    if seed is not None:
        random.Random(seed).shuffle(cells)
    return cells


def greedy_saturate(
    p: Matrix01, shape: Shape, order: Sequence[Coord] | None = None
) -> Matrix01:
    """Single pass that flips each cell to 1 iff avoidance of p survives.

    The result is maximal avoiding, hence saturating, for any nonzero
    fitting pattern and any visiting order.
    """
    _check_dims(shape, p)
    if p.weight == 0:
        raise ValueError("pattern has no 1-entries")
    _check_cell_limit(shape)
    if not shape.fits(p.shape):
        raise PatternFitError(
            f"pattern extents {p.shape.extents} exceed host extents {shape.extents}; "
            "the all-one matrix would be the only saturating host"
        )
    cells = list(shape.cells()) if order is None else list(order)
    if sorted(cells) != sorted(shape.cells()):
        raise ValueError("order must be a permutation of the host cells")
    plan = _plan(shape.extents, p)
    n_last = shape.extents[-1]
    lines = [0] * (shape.cell_count // n_last)
    bits = 0
    for c in cells:
        flat = shape.flat_index(c)
        j, r = divmod(flat, n_last)
        lines[j] |= 1 << r
        # the partial matrix avoids p, so a new copy would have to use c
        if next(_pinned_hits(lines, plan, c), None) is not None:
            lines[j] ^= 1 << r
        else:
            bits |= 1 << flat
    return Matrix01(shape, bits)


def offset_block(p: Matrix01, n: int, anchor: Coord | None = None) -> Matrix01:
    """The n^d host that is 0 exactly on the box pinned to a 1-entry of p.

    Cell x is 0 iff anchor_i <= x_i <= n - (l_i - anchor_i) for every i;
    everything else is 1.  Weight is n^d - prod(n - l_i + 1), and the result
    saturates p.  The anchor defaults to the row-major-first 1-entry.
    """
    if p.weight == 0:
        raise ValueError("pattern has no 1-entries")
    l = p.shape.extents
    if anchor is None:
        anchor = next(p.iter_ones())
    elif not p.shape.in_bounds(anchor) or not p.get(anchor):
        raise ValueError(f"anchor {anchor} is not a 1-entry of the pattern")
    if n < max(l):
        raise PatternFitError(f"need n >= {max(l)} for extents {l}")
    host = Shape((n,) * p.shape.d)
    box = _box_mask(host, [range(a, n - li + a + 1) for a, li in zip(anchor, l)])
    return Matrix01(host, host.full_mask ^ box)


def corner_block(p: Matrix01, n: int) -> Matrix01:
    """The n^d host with 1s exactly on the product of low/high corner bands.

    Cell x is 1 iff x_i < l_i or x_i > n + 1 - l_i for every i.  With
    n >= 2*max(l_i) - 1 the bands are disjoint and the weight is the
    n-independent product of 2(l_i - 1).
    """
    l = p.shape.extents
    if n < 2 * max(l) - 1:
        raise ValueError(f"corner bands overlap: need n >= {2 * max(l) - 1}")
    host = Shape((n,) * p.shape.d)
    bands = [[*range(1, li), *range(n + 2 - li, n + 1)] for li in l]
    return Matrix01(host, _box_mask(host, bands))
