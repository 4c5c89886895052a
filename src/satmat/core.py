"""Dense d-dimensional 0-1 matrices and their dominance geometry.

Coordinates are 1-based d-tuples.  Cells are stored bit-packed in canonical
row-major order with the *last* dimension varying fastest: bit k of
``Matrix01.bits`` is the cell whose flat index is k.  All values here are
immutable after construction and safe to share between threads; every
operation is a pure function.

The dominance order follows the convention that smaller coordinates are
"above": cell a is above cell b when a_i < b_i for every dimension i.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, combinations, compress, count, product
from math import prod
from operator import mul
from typing import Iterable, Iterator, Sequence

Coord = tuple[int, ...]

# Guard against accidentally materialising huge dense matrices.  Factories and
# the parser take a ``cell_limit`` argument; pass None to lift the cap.  The
# constructions apply it as a fixed cap.
DEFAULT_CELL_LIMIT = 1 << 24

class ParseError(ValueError):
    """Raised for malformed .01m text."""


class _lazy:
    """An attribute computed on its first read and stored in the instance.

    ``functools.cached_property`` does the same but takes a lock on each
    first read on CPython 3.11 and older, which every new host pays.  This
    is a non-data descriptor, so a later read finds the value in the
    instance ``__dict__`` first; writing there also gets past a frozen
    dataclass's ``__setattr__``.
    """

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class Shape:
    """Extents n_1..n_d of a d-dimensional matrix."""

    extents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(int(n) for n in self.extents))
        if len(self.extents) == 0:
            raise ValueError("shape needs at least one dimension")
        if any(n < 1 for n in self.extents):
            raise ValueError(f"extents must be positive, got {self.extents}")
        # plain attributes: every host reads them, so nothing is deferred
        object.__setattr__(self, "cell_count", prod(self.extents))
        strides = [*accumulate(reversed(self.extents[1:]), mul, initial=1)]
        object.__setattr__(self, "strides", tuple(reversed(strides)))

    @property
    def d(self) -> int:
        return len(self.extents)

    @_lazy
    def diagonal_count(self) -> int:
        return prod(self.extents) - prod(n - 1 for n in self.extents)

    @_lazy
    def full_mask(self) -> int:
        return (1 << self.cell_count) - 1

    def in_bounds(self, coord: Coord) -> bool:
        return len(coord) == self.d and all(
            1 <= x <= n for x, n in zip(coord, self.extents)
        )

    def flat_index(self, coord: Coord) -> int:
        if not self.in_bounds(coord):
            raise ValueError(f"coordinate {coord} out of bounds for {self.extents}")
        return self._flat(coord)

    def _flat(self, coord: Coord) -> int:
        """The flat index of a cell the caller has checked to be in bounds."""
        return sum(map(mul, coord, self.strides)) - sum(self.strides)

    def coord_at(self, flat: int) -> Coord:
        if not 0 <= flat < self.cell_count:
            raise ValueError(f"flat index {flat} out of range")
        out = []
        for s in self.strides:
            q, flat = divmod(flat, s)
            out.append(q + 1)
        return tuple(out)

    def cells(self) -> Iterator[Coord]:
        """All coordinates in row-major order (last dimension fastest)."""
        return product(*(range(1, n + 1) for n in self.extents))

    def fits(self, inner: "Shape") -> bool:
        """Whether a matrix of shape ``inner`` fits as a submatrix selection."""
        return self.d == inner.d and all(
            l <= n for l, n in zip(inner.extents, self.extents)
        )


# ---------------------------------------------------------------------------
# Dominance order on coordinates


class Relation(Enum):
    ABOVE = "above"
    BELOW = "below"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _check_same_length(a: Coord, b: Coord) -> None:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")


def order_relation(a: Coord, b: Coord) -> Relation:
    """Strict dominance: a is ABOVE b when a_i < b_i for every i."""
    _check_same_length(a, b)
    if a == b:
        return Relation.EQUAL
    if all(x < y for x, y in zip(a, b)):
        return Relation.ABOVE
    if all(x > y for x, y in zip(a, b)):
        return Relation.BELOW
    return Relation.INCOMPARABLE


def is_semiabove(a: Coord, b: Coord) -> bool:
    """a_i <= b_i for every i (non-strict form of ABOVE)."""
    _check_same_length(a, b)
    return all(x <= y for x, y in zip(a, b))


def is_semibelow(a: Coord, b: Coord) -> bool:
    """a_i >= b_i for every i."""
    _check_same_length(a, b)
    return all(x >= y for x, y in zip(a, b))


def comparable(a: Coord, b: Coord) -> bool:
    return order_relation(a, b) in (Relation.ABOVE, Relation.BELOW)


# ---------------------------------------------------------------------------
# Diagonals, staircases, shells


def diagonal_key(coord: Coord) -> tuple[int, ...]:
    """Two cells lie on one diagonal iff their keys (x_2-x_1,..,x_d-x_1) agree."""
    return tuple(x - coord[0] for x in coord[1:])


def diagonal_through(shape: Shape, coord: Coord) -> list[Coord]:
    """The maximal diagonal containing ``coord``, ordered by increasing x_1."""
    if not shape.in_bounds(coord):
        raise ValueError(f"coordinate {coord} out of bounds")
    back = min(coord) - 1
    top = tuple(x - back for x in coord)
    steps = min(n - x for x, n in zip(top, shape.extents))
    return [tuple(x + t for x in top) for t in range(steps + 1)]


def diagonals(shape: Shape) -> list[list[Coord]]:
    """All diagonals, in row-major order of their top (minimal-x_1) entries.

    Every cell appears in exactly one of them.
    """
    return [diagonal_through(shape, top) for top in shape.cells() if min(top) == 1]


def shell(shape: Shape) -> frozenset[Coord]:
    """Cells with at least one coordinate at its maximum.

    This is the unique complete staircase through the all-max corner: it is
    exactly the set of bottom entries of all diagonals.
    """
    return frozenset(c for c in shape.cells() if any(x == n for x, n in zip(c, shape.extents)))


def is_staircase(coords: Iterable[Coord]) -> bool:
    """Pairwise incomparability under strict dominance."""
    cs = list(coords)
    for i, a in enumerate(cs):
        for b in cs[i + 1 :]:
            if comparable(a, b):
                return False
    return True


def is_complete_staircase(coords: Iterable[Coord], shape: Shape) -> bool:
    """A staircase hitting every diagonal exactly once.

    Equivalent characterisation used here: pairwise incomparable, one cell per
    diagonal, and size equal to ``shape.diagonal_count``.
    """
    cs = list(coords)
    if any(not shape.in_bounds(c) for c in cs):
        return False
    if len(cs) != shape.diagonal_count:
        return False
    if len({diagonal_key(c) for c in cs}) != len(cs):
        return False
    return is_staircase(cs)


def _shape_of(host: "Matrix01 | Shape") -> Shape:
    return host if isinstance(host, Shape) else host.shape


def _entries_related(host, staircase: Iterable[Coord], rel: Relation) -> list[Coord]:
    shape = _shape_of(host)
    cs = list(staircase)
    if not is_complete_staircase(cs, shape):
        raise ValueError("staircase is not complete for this shape")
    return [c for c in shape.cells() if any(order_relation(c, m) is rel for m in cs)]


def entries_below(host: "Matrix01 | Shape", staircase: Iterable[Coord]) -> list[Coord]:
    """All cells strictly below some member of a complete staircase.

    Together with the members and the cells above, this partitions the grid.
    """
    return _entries_related(host, staircase, Relation.BELOW)


def entries_above(host: "Matrix01 | Shape", staircase: Iterable[Coord]) -> list[Coord]:
    """All cells strictly above some member of a complete staircase."""
    return _entries_related(host, staircase, Relation.ABOVE)


# ---------------------------------------------------------------------------
# Cross sections, faces, i-rows


@dataclass(frozen=True)
class CrossSectionSpec:
    """A cross section given by pinning a set of dimensions to fixed values.

    ``fixed`` holds (dimension, value) pairs with 1-based dimensions.  A face
    pins every chosen dimension to 1 or its maximum; an i-row pins every
    dimension except i.
    """

    fixed: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted((int(d), int(v)) for d, v in self.fixed))
        dims = [d for d, _ in pairs]
        if len(set(dims)) != len(dims):
            raise ValueError("duplicate fixed dimension")
        if any(d < 1 for d in dims):
            raise ValueError("dimensions are 1-based")
        object.__setattr__(self, "fixed", pairs)

    @property
    def fixed_dims(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.fixed)

    def free_dims(self, d: int) -> tuple[int, ...]:
        pinned = set(self.fixed_dims)
        return tuple(i for i in range(1, d + 1) if i not in pinned)

    def dimension(self, d: int) -> int:
        return d - len(self.fixed)

    def cells(self, shape: Shape) -> Iterator[Coord]:
        pin = dict(self.fixed)
        if any(d > shape.d or not 1 <= v <= shape.extents[d - 1] for d, v in self.fixed):
            raise ValueError(f"cross section {self.fixed} out of bounds for {shape.extents}")
        ranges = [
            (pin[i + 1],) if i + 1 in pin else tuple(range(1, shape.extents[i] + 1))
            for i in range(shape.d)
        ]
        return product(*ranges)

    def is_face(self, shape: Shape) -> bool:
        return all(v in (1, shape.extents[d - 1]) for d, v in self.fixed)


def iter_faces(shape: Shape, dprime: int) -> Iterator[CrossSectionSpec]:
    """Faces of dimension ``dprime``, in canonical order.

    Canonical order: fixed-dimension subsets in lexicographic order, then the
    low/high value assignments in lexicographic order (low first).  Faces are
    identified by their (dims, values) spec; coincident cell sets reached via
    different specs are deliberately kept distinct.
    """
    d = shape.d
    if not 0 <= dprime < d:
        raise ValueError(f"face dimension must be in [0, {d - 1}]")
    csize = d - dprime
    for dims in combinations(range(1, d + 1), csize):
        choices = []
        for i in dims:
            n = shape.extents[i - 1]
            choices.append((1,) if n == 1 else (1, n))
        for values in product(*choices):
            yield CrossSectionSpec(tuple(zip(dims, values)))


def iter_i_rows(shape: Shape, i: int) -> Iterator[CrossSectionSpec]:
    """All i-rows: lines along dimension i, every other dimension pinned."""
    if not 1 <= i <= shape.d:
        raise ValueError(f"dimension {i} out of range")
    others = [j for j in range(1, shape.d + 1) if j != i]
    for values in product(*(range(1, shape.extents[j - 1] + 1) for j in others)):
        yield CrossSectionSpec(tuple(zip(others, values)))


# ---------------------------------------------------------------------------
# The matrix itself


@dataclass(frozen=True)
class Matrix01:
    """Immutable bit-packed d-dimensional 0-1 matrix."""

    shape: Shape
    bits: int = 0

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.shape.cell_count:
            raise ValueError("bits outside the cell range")

    # -- factories

    @classmethod
    def zeros(cls, shape: Shape, cell_limit: int | None = DEFAULT_CELL_LIMIT) -> "Matrix01":
        _check_cell_limit(shape, cell_limit, overridable=True)
        return cls(shape, 0)

    @classmethod
    def filled(cls, shape: Shape, cell_limit: int | None = DEFAULT_CELL_LIMIT) -> "Matrix01":
        _check_cell_limit(shape, cell_limit, overridable=True)
        return cls(shape, shape.full_mask)

    @classmethod
    def from_ones(
        cls,
        shape: Shape,
        ones: Iterable[Coord],
        cell_limit: int | None = DEFAULT_CELL_LIMIT,
    ) -> "Matrix01":
        _check_cell_limit(shape, cell_limit, overridable=True)
        return cls(shape, _packed(shape.cell_count, map(shape.flat_index, ones)))

    @classmethod
    def from_nested(cls, nested) -> "Matrix01":
        """Build from nested sequences, e.g. [[1, 0], [0, 1]] for a 2x2.

        Flattened one level at a time, each level checked for raggedness
        whole, so no input is refused for its depth.
        """
        extents = []
        level = [nested]
        while isinstance(level[0], (list, tuple)):
            n = len(level[0])
            if not n:
                raise ValueError("empty nested input")
            if any(not isinstance(node, (list, tuple)) or len(node) != n for node in level):
                raise ValueError("ragged nested input")
            extents.append(n)
            level = [item for node in level for item in node]
        shape = Shape(tuple(extents))
        if any(isinstance(node, (list, tuple)) for node in level):
            raise ValueError("ragged nested input")
        return cls(shape, _packed(len(level), (k for k, v in enumerate(level) if v)))

    # -- cell access

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def get(self, coord: Coord) -> int:
        return (self.bits >> self.shape.flat_index(coord)) & 1

    def flip(self, coord: Coord) -> "Matrix01":
        """The matrix with the cell at ``coord`` toggled.

        If this matrix's line table is built, the result gets a copy of it
        with the one changed line toggled, instead of building its own from
        the bits; an unbuilt table stays unbuilt.
        """
        flat = self.shape.flat_index(coord)
        out = Matrix01(self.shape, self.bits ^ (1 << flat))
        lines = self.__dict__.get("_last_lines")
        if lines is not None:
            out.__dict__["_last_lines"] = _toggled(lines, flat, self.shape.extents[-1])
        return out

    def iter_ones(self) -> Iterator[Coord]:
        """The 1-cells in row-major order, in time linear in the cell count."""
        bits = self.bits
        if self.shape.cell_count > _PEEL_CELLS:
            yield from map(self.shape.coord_at, compress(count(), _flags(bits)))
            return
        while bits:
            low = bits & -bits
            yield self.shape.coord_at(low.bit_length() - 1)
            bits ^= low

    def iter_zeros(self) -> Iterator[Coord]:
        """The 0-cells in row-major order, in time linear in the cell count."""
        return Matrix01(self.shape, self.shape.full_mask ^ self.bits).iter_ones()

    # -- containment kernel support: the run of cells along the last
    # dimension at each (d-1)-prefix is one contiguous bit field.

    @_lazy
    def _last_lines(self) -> list[int]:
        n_last = self.shape.extents[-1]
        mask = (1 << n_last) - 1
        return [
            (self.bits >> (j * n_last)) & mask
            for j in range(self.shape.cell_count // n_last)
        ]


def _packed(count: int, flats: Iterable[int]) -> int:
    """The int with the bits ``flats``, all below ``count``, in linear time.

    Setting bits one at a time copies the growing int each time; here they
    are marked in a byte string, read once as a binary numeral.
    """
    buf = bytearray(b"0") * count
    for k in flats:
        buf[k] = 49  # ord("1")
    return int(buf[::-1], 2)


# the binary digits "0" and "1" as the bytes 0 and 1, for itertools.compress
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")

# Matrix01.iter_ones peels the bits of hosts of at most this many cells, one
# int copy per 1: on a few words that beats the flag bytes' fixed cost (at
# 64 cells the flags read ×0.75–0.8 on dense hosts and ×1.1 a tenth full)
_PEEL_CELLS = 64


def _flags(bits: int) -> bytes:
    """Byte k is 1 iff bit k of ``bits`` is set, up to its highest set bit.

    ``bits`` read as a reversed binary numeral, in one linear pass: a flag
    string for ``itertools.compress``, which stops at the shorter input.
    """
    return bin(bits)[:1:-1].encode().translate(_DIGIT_BYTES)


def _toggled(lines: list[int], flat: int, n_last: int) -> list[int]:
    """A fresh copy of a line table with the cell at flat index ``flat`` toggled."""
    out = lines[:]
    j, x = divmod(flat, n_last)
    out[j] ^= 1 << x
    return out


def _check_cell_limit(
    shape: Shape, cell_limit: int | None = DEFAULT_CELL_LIMIT, overridable: bool = False
) -> None:
    """Refuse shapes above ``cell_limit`` cells.

    ``overridable`` marks a caller with a ``cell_limit`` parameter, the only
    kind whose message may advise lifting the cap.
    """
    if cell_limit is not None and shape.cell_count > cell_limit:
        hint = "; pass cell_limit=None to override" if overridable else ""
        raise ValueError(f"{shape.cell_count} cells exceeds the cap of {cell_limit}{hint}")


def _box_mask(shape: Shape, index_sets: Sequence[Iterable[int]]) -> int:
    """Bitmask of the cells x with x_i in ``index_sets[i]`` (1-based) for all i.

    Built from the last dimension up: the box over dimensions i..d is the
    box over i+1..d ORed in at offset (x - 1) * strides[i] per x in set i.
    Shapes above ``DEFAULT_CELL_LIMIT`` are refused before any bit is set.
    """
    _check_cell_limit(shape)
    mask = 1
    for xs, stride in zip(reversed(index_sets), reversed(shape.strides), strict=True):
        row = 0
        for x in xs:
            row |= mask << (x - 1) * stride
        mask = row
    return mask


# ---------------------------------------------------------------------------
# .01m text format
#
#   dims: n_1 n_2 ... n_d
#   <cell_count characters from {0,1} in row-major order>
#
# Whitespace outside the header line is ignored on input.  Output is wrapped
# one line per run along the last dimension, with a blank line between groups
# sharing the first d-2 coordinates.

_DIMS_RE = re.compile(r"^dims:\s*(\d+(?:\s+\d+)*)\s*$", re.ASCII)
# a body character that is neither a cell nor whitespace (str.isspace)
_NOT_BODY_RE = re.compile(r"[^01\s]")
_ASCII_SPACE = bytes(c for c in range(128) if chr(c).isspace())


def cell_string(m: Matrix01) -> str:
    """The cells as one row-major '0'/'1' string (the .01m body, unwrapped)."""
    # bit k is cell k, so the padded binary numeral read backwards
    return format(m.bits, f"0{m.shape.cell_count}b")[::-1]


def format_01m(m: Matrix01) -> str:
    ext = m.shape.extents
    body = cell_string(m)
    n_last = ext[-1]
    lines = [body[i : i + n_last] for i in range(0, len(body), n_last)]
    out = ["dims: " + " ".join(str(n) for n in ext)]
    if len(ext) < 3:
        out.extend(lines)
    else:
        group = ext[-2]
        for i in range(0, len(lines), group):
            if i:
                out.append("")
            out.extend(lines[i : i + group])
    return "\n".join(out) + "\n"


def parse_01m(text: str, cell_limit: int | None = DEFAULT_CELL_LIMIT) -> Matrix01:
    """Read ``.01m`` text, in time and memory linear in its length."""
    stripped = text.lstrip()
    header, _, rest = stripped.partition("\n")
    match = _DIMS_RE.match(header.strip())
    if not match:
        raise ParseError(f"bad header line: {header!r}")
    shape = Shape(tuple(int(t) for t in match.group(1).split()))
    _check_cell_limit(shape, cell_limit, overridable=True)
    bad = _NOT_BODY_RE.search(rest)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r} in matrix body")
    count = rest.count("0") + rest.count("1")
    if count != shape.cell_count:
        raise ParseError(
            f"expected {shape.cell_count} cells for dims {shape.extents}, got {count}"
        )
    # only 0s, 1s and whitespace are left: drop the non-ASCII whitespace,
    # then the ASCII whitespace; bit k is character k, so read it backwards
    body = rest.encode("ascii", "ignore").translate(None, _ASCII_SPACE)
    return Matrix01(shape, int(body[::-1], 2))
