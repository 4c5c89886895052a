"""Exact extremal values by branch and bound over per-cell decisions.

Three quantities over hosts of a given shape: the maximum avoiding weight,
the minimum saturating weight, and the minimum semisaturating weight.

The search exploits two facts.  First, semisaturation is monotone upward:
adding 1s never breaks it, because a flip that completed a copy before still
does.  Second, for a nonzero fitting pattern, saturating is exactly avoiding
plus semisaturating.  All three quantities therefore run one search over
"supports": the supports of a host cell z are the selection images of p
through z, without z.  They are the search's only table.  A host is
semisaturating iff every 0-cell has a support fully inside the 1-set.
``ssat`` minimises over such hosts, ``sat`` also requires avoidance, and
``ex`` maximises over the same hosts as ``sat``: a heaviest avoiding host is
maximal, hence saturating (the all-one host when p cannot fit).  While the
decided 1s avoid p, a 1 at t completes a copy iff a support of t is all 1.

The search minimises one cost: the 1s for ``sat`` and ``ssat``, the 0s for
``ex`` (its value is the cell count minus the cost).  It cuts a subtree once
a lower bound on its cost reaches the best leaf's.  For ``sat`` and ``ssat``
the bound is the 1s plus the undecided cells with no live support left.  For
``ex`` it is a block bound.  The diagonals of the host partition it into
blocks, and a block's capacity is the largest subset of it with no copy of
p lying wholly inside it (for the identity pattern I_{k+1} that is
min(length, k)); an avoiding host leaves out at least the quota, length
minus capacity, of each block.  The capacities come from the supports by a
small maximising search per block: a copy inside a block through its last
cell t holds a support of t inside the block.  With out_B the cells of
block B decided 0, every completion leaves out at least
``sum_B max(out_B, quota_B)`` cells, and at a leaf that is the 0 count.

The search's whole state is four immutable ints (see ``_search``): the next
cell, a bit per live support, a guard bit per cell not decided 1 with a live
support, and the bound.  Leaving a cell out and testing a put-in for a copy
are each one AND with a precomputed row (cells x supports bits in all), and
the ``ex`` bound and the witness read the guards: nothing is undone.

Completed searches are deterministic and make one pass with no incumbent:
cells are decided in row-major order, 0 before 1, every leaf is feasible,
and only strictly cheaper leaves are kept, so the first leaf at the optimum
is the lexicographically least witness (row-major cell string, 0 before 1).
The bounds only cut subtrees that cannot beat the best leaf, so they never
change the witness.  All of a search's work, the tables and capacities
included, runs under its budget.  Budgets abort with a distinct error that
carries the bounds proven so far and never return an approximate answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .constructions import (
    diagonal_concatenation,
    has_corner_only_shell,
    identity_pattern,
)
from .containment import ENUMERATION_LIMIT, embeddings_count, iter_image_masks
from .core import Matrix01, Shape, _recursion_ceiling, diagonals

DEFAULT_BNB_CELLS = 30  # exact_ex / exact_sat
DEFAULT_SSAT_CELLS = 16  # exact_ssat

_TICK = 1024  # nodes between wall-clock checks


class BudgetExceededError(RuntimeError):
    """A search hit its cell, node, or time budget before finishing.

    ``bounds`` is ``(lower, upper)`` on the optimum proven when the branch
    and bound was cut, either side ``None`` when not yet known, or ``None``
    when the abort came before the branch and bound started.
    """

    def __init__(self, reason: str, nodes: int = 0):
        super().__init__(reason)
        self.nodes = nodes
        self.bounds: tuple[int | None, int | None] | None = None


@dataclass(frozen=True)
class SearchBudget:
    max_cells: int | None = None
    time_limit: float | None = None
    node_limit: int | None = None


@dataclass(frozen=True)
class SearchResult:
    value: int
    witness: Matrix01
    nodes: int


class _Meter:
    __slots__ = ("nodes", "node_limit", "deadline")

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.node_limit = budget.node_limit
        self.deadline = (
            time.monotonic() + budget.time_limit
            if budget.time_limit is not None
            else None
        )

    def tick(self):
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise BudgetExceededError("node budget exceeded", self.nodes)
        # the first tick checks too, so an expired budget stops short searches
        if self.nodes % _TICK == 1:
            self.check_time()

    def check_time(self):
        """Abort if the time budget has run out; counts no node."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceededError("time budget exceeded", self.nodes)


def _check_cells(shape: Shape, budget: SearchBudget, default_cells: int) -> None:
    cap = budget.max_cells if budget.max_cells is not None else default_cells
    if shape.cell_count > cap:
        raise BudgetExceededError(
            f"{shape.cell_count} cells exceeds the budget of {cap}"
        )
    # the dfs recurses once per host cell
    ceiling = _recursion_ceiling()
    if shape.cell_count > ceiling:
        raise BudgetExceededError(
            f"{shape.cell_count} cells exceeds the recursion ceiling of {ceiling}"
        )


def _validate(shape: Shape, p: Matrix01) -> None:
    if shape.d != p.shape.d:
        raise ValueError("dimension mismatch")
    if p.weight == 0:
        raise ValueError("pattern has no 1-entries")


def _support_tables(shape: Shape, p: Matrix01, meter: _Meter) -> list[list[int]]:
    """Per-cell supports.

    supports[z] holds, once each in first-seen order, the bitmasks S (not
    containing z) such that S union {z} is the image of a selection of p.
    Selections are injective, so every S has ``p.weight - 1`` cells and none
    is a strict superset of another: every support is minimal.  Enumerated
    selections count against the meter so budgets also bound the table
    construction, not just the search proper.
    """
    raw_supports: list[list[int]] = [[] for _ in range(shape.cell_count)]
    for e in iter_image_masks(shape, p):
        meter.tick()
        rem = e
        while rem:
            low = rem & -rem
            raw_supports[low.bit_length() - 1].append(e ^ low)
            rem ^= low
    return [list(dict.fromkeys(s)) for s in raw_supports]


def _block_capacity(cells: list[int], supports: list[list[int]], meter: _Meter) -> int:
    """Largest subset of ``cells`` with no copy of p lying wholly inside it.

    A maximising search over the cells in order, 1 before 0: while the
    chosen cells avoid p, adding t completes a copy iff a support of t is
    already chosen, and that copy lies inside the chosen cells.
    """
    length = len(cells)
    best = 0

    def grow(i, chosen, count):
        nonlocal best
        meter.tick()
        if count + (length - i) <= best:
            return
        if i == length:
            best = count
            return
        t = cells[i]
        if all(s & ~chosen for s in supports[t]):
            grow(i + 1, chosen | 1 << t, count + 1)
        grow(i + 1, chosen, count)

    grow(0, 0, 0)
    return best


def _diagonal_blocks(
    shape: Shape, supports: list[list[int]], guard_of: list[int], meter: _Meter
) -> tuple[list[int], list[int], int]:
    """Per cell t, the guards of the cells of its diagonal before it
    (``before[t]``) and the diagonal's quota, length minus capacity
    (``quota[t]``); and the sum of the quotas.
    """
    before, quota = [0] * shape.cell_count, [0] * shape.cell_count
    total = 0
    for diagonal in diagonals(shape):
        cells = [shape.flat_index(c) for c in diagonal]  # row-major order
        q = len(cells) - _block_capacity(cells, supports, meter)
        total += q
        mask = 0
        for z in cells:
            before[z], quota[z] = mask, q
            mask |= guard_of[z]
    return before, quota, total


def _search(
    shape: Shape,
    p: Matrix01,
    budget: SearchBudget,
    default_cells: int,
    require_avoid: bool,
    maximise: bool,
) -> SearchResult:
    """Least-cost host covering every 0-cell (optionally also avoiding p).

    The cost counts the 1s, or the 0s when ``maximise``.  The best cost
    starts at ``cc + 1``, and a pattern that cannot fit has no supports, so
    every cell is forced in.  A node is four ints ``(t, live, lives, lb)``:
    the cells below t are decided.  ``live`` has a bit per live support (no
    cell decided 0), in one field per owner cell, row-major from bit 0, each
    topped by a guard bit ``live`` never sets.  ``base`` holds each field's
    lowest bit, the guard itself for an owner with no supports, so no borrow
    crosses a guard and ``(live | guard) - base`` keeps the guards of the
    owners with a live support; ``lives`` holds those of the cells not
    decided 1.  Leaving t out keeps ``live & keep[t]``; a guard lost then is
    a cell decided 0 with no support left if below t (the node is cut), a
    forced cell if above, so below t a guard is in ``lives`` iff its cell is
    0.  While the 1s avoid p, putting t in completes a copy iff ``live &
    closed[t]``, a live support of t wholly below t.  ``lb`` bounds every
    leaf's cost below: the 1s plus the forced undecided cells, or the block
    bound.  No call changes its arguments or a table: nothing is undone.  A
    support table that could exceed ``ENUMERATION_LIMIT`` supports is
    refused before it is built.  Aborts in the search carry the proven
    bounds.
    """
    _validate(shape, p)
    _check_cells(shape, budget, default_cells)
    # at most weight supports per selection: this bounds the rows' width
    most = embeddings_count(shape, p) * p.weight
    if most > ENUMERATION_LIMIT:
        raise BudgetExceededError(
            f"up to {most} supports exceeds the enumeration cap {ENUMERATION_LIMIT}"
        )
    meter = _Meter(budget)
    cc = shape.cell_count
    supports = _support_tables(shape, p, meter)

    # keep[c] clears the supports holding c, closed[z] holds those of z lying
    # wholly below z; ints from strings take linear time
    width = cc + sum(map(len, supports))
    keep: list = [bytearray(b"\xff") * (width + 7 >> 3) for _ in range(cc)]
    guard_of, closed = [], []
    i = 0
    for z, sups in enumerate(supports):
        start, local = i, 0
        for s in sups:
            if s.bit_length() <= z:
                local |= 1 << i - start
            while s:
                low = s & -s
                keep[low.bit_length() - 1][i >> 3] &= ~(1 << (i & 7))
                s ^= low
            i += 1
        closed.append(local << start)
        guard_of.append(1 << i)
        i += 1
    for z in range(cc):  # each row becomes an int and drops its bytes at once
        meter.check_time()
        keep[z] = int.from_bytes(keep[z], "little")
    guard = int(b"".join(b"1" + b"0" * len(sups) for sups in reversed(supports)), 2)
    base = (guard << 1 | 1) ^ 1 << width  # a field starts above the guard below
    live = ((1 << width) - 1) ^ guard
    lives = ((live | guard) - base) & guard

    if maximise:
        before, quota, root = _diagonal_blocks(shape, supports, guard_of, meter)
    else:
        root = cc - lives.bit_count()
    del supports
    best = cc + 1
    best_lives = 0

    def dfs(t, live, lives, lb):
        nonlocal best, best_lives
        meter.tick()
        if lb >= best:
            return
        if t == cc:
            best, best_lives = lb, lives
            return
        g = guard_of[t]
        free = lives & g > 0  # t has a live support, so it may be 0
        # leave t out first: lexicographically smaller
        if free:
            kept = live & keep[t]
            left = lives & ((kept | guard) - base)
            dead = lives ^ left
            if not dead & g - 1:  # every cell decided 0 keeps a support
                if maximise:  # a 0 past the quota: its 0s before t reach it
                    step = (before[t] & lives).bit_count() >= quota[t]
                else:  # the undecided cells whose last support died
                    step = (dead >> g.bit_length()).bit_count()
                dead = None  # a frame keeps no wide int but its live and lives
                dfs(t + 1, kept, left, lb + step)
            kept = left = dead = None
        # put t in; the decided 1s avoid p, so a new copy would use t and
        # hold a live support of t lying wholly below t
        if require_avoid and live & closed[t]:
            return
        if free:
            dfs(t + 1, live, lives ^ g, lb + (not maximise))
        else:  # forced: lb already counts it
            dfs(t + 1, live, lives, lb)

    try:
        dfs(0, live, lives, root)
    except BudgetExceededError as err:
        if maximise:
            err.bounds = (cc - best if best <= cc else None, cc - root)
        else:
            err.bounds = (root, best if best <= cc else None)
        raise
    value = cc - best if maximise else best
    bits = sum(1 << z for z, g in enumerate(guard_of) if not best_lives & g)
    return SearchResult(value, Matrix01(shape, bits), meter.nodes)


def exact_ssat(shape: Shape, p: Matrix01, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """Minimum weight of a semisaturating host of the given shape."""
    return _search(shape, p, budget, DEFAULT_SSAT_CELLS, require_avoid=False, maximise=False)


def exact_sat(shape: Shape, p: Matrix01, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """Minimum weight of a saturating host of the given shape."""
    return _search(shape, p, budget, DEFAULT_BNB_CELLS, require_avoid=True, maximise=False)


def exact_ex(shape: Shape, p: Matrix01, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """Maximum weight of a host avoiding p (the all-one matrix if p cannot fit).

    A heaviest avoiding host is maximal, hence saturating, so this is the
    heaviest host of the search ``exact_sat`` runs.
    """
    return _search(shape, p, budget, DEFAULT_BNB_CELLS, require_avoid=True, maximise=True)


# ---------------------------------------------------------------------------
# Boundary recurrence: append one diagonal cell to a corner-shell pattern and
# both extremal functions grow by exactly the diagonal count of the host.


@dataclass(frozen=True)
class RecurrenceReport:
    shape: Shape
    boundary: int
    sat_outer: int
    sat_inner: int
    ex_outer: int
    ex_inner: int

    @property
    def sat_holds(self) -> bool:
        return self.sat_outer == self.sat_inner + self.boundary

    @property
    def ex_holds(self) -> bool:
        return self.ex_outer == self.ex_inner + self.boundary

    @property
    def holds(self) -> bool:
        return self.sat_holds and self.ex_holds


def verify_recurrence(
    p_prime: Matrix01, shape: Shape, budget: SearchBudget = SearchBudget()
) -> RecurrenceReport:
    """Check both extremal recurrences exactly at one shape.

    ``p_prime`` must be nonzero with its corner as the only shell 1-entry
    (i.e. already of the concatenated form); the outer pattern appends one
    more diagonal cell.  Every extent must exceed the matching inner-pattern
    extent, leaving room for the shrunken host on the inner side.
    """
    if p_prime.weight == 0:
        raise ValueError("pattern has no 1-entries")
    if not has_corner_only_shell(p_prime):
        raise ValueError("inner pattern must have its corner as only shell 1-entry")
    if shape.d != p_prime.shape.d:
        raise ValueError("dimension mismatch")
    if any(n < l + 1 for n, l in zip(shape.extents, p_prime.shape.extents)):
        raise ValueError("host extents leave no room for the outer pattern")
    p = diagonal_concatenation(p_prime, identity_pattern(p_prime.shape.d, 1))
    inner_shape = Shape(tuple(n - 1 for n in shape.extents))
    boundary = shape.diagonal_count
    sat_outer = exact_sat(shape, p, budget).value
    sat_inner = exact_sat(inner_shape, p_prime, budget).value
    ex_outer = exact_ex(shape, p, budget).value
    ex_inner = exact_ex(inner_shape, p_prime, budget).value
    return RecurrenceReport(
        shape=shape,
        boundary=boundary,
        sat_outer=sat_outer,
        sat_inner=sat_inner,
        ex_outer=ex_outer,
        ex_inner=ex_inner,
    )
