"""Exact extremal values by branch and bound over per-cell decisions.

Three quantities over hosts of a given shape: the maximum avoiding weight,
the minimum saturating weight, and the minimum semisaturating weight.

The search exploits two facts.  First, semisaturation is monotone upward:
adding 1s never breaks it, because a flip that completed a copy before still
does.  Second, for a nonzero fitting pattern, saturating is exactly avoiding
plus semisaturating.  All three quantities therefore run one search over
"supports": for every host cell z, the support sets are the minimal
collections of other cells which, when all 1, make a flip of z complete a
copy through z.  The minimal supports are the search's only table.  A host
is semisaturating iff every 0-cell has a support fully inside the 1-set.
``ssat`` minimises over such hosts, ``sat`` also requires avoidance, and
``ex`` maximises over the same hosts as ``sat``: a heaviest avoiding host is
maximal, hence saturating (the all-one host when p cannot fit).  While the
decided 1s avoid p, a 1 at t completes a copy iff a support of t is all 1.

``ex`` prunes by a block bound.  The diagonals of the host partition it into
blocks, and a block's capacity is the largest subset of it with no copy of
p lying wholly inside it (for the identity pattern I_{k+1} that is
min(length, k)); an avoiding host holds at most the capacity in each block.
The capacities come from the supports by a small maximising search per
block: a copy inside a block through its last cell t holds a support of t
inside the block.  With out_B the cells of block B decided 0, every
completion weighs at most ``cc - sum_B max(out_B, len_B - cap_B)``, which
starts at the sum of the capacities and drops by one exactly when a cell is
left out of a block that has already left out its quota.

Completed searches are deterministic and make one pass with no incumbent:
cells are decided in row-major order, 0 before 1, every leaf is feasible,
and only strictly better leaves are kept, so the first leaf at the optimum
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
from .containment import iter_image_masks
from .core import _STACK_RESERVE  # noqa: F401 - re-exported for sizing hosts
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
    status: str = "ok"


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
        if self.deadline is not None and self.nodes % _TICK == 1:
            if time.monotonic() >= self.deadline:
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


def _minimal_masks(masks: list[int]) -> list[int]:
    """Drop duplicates and strict supersets, preserving first-seen order."""
    uniq = list(dict.fromkeys(masks))
    uniq.sort(key=lambda s: s.bit_count())
    kept: list[int] = []
    for s in uniq:
        if not any(t & s == t for t in kept):
            kept.append(s)
    return kept


def _support_tables(shape: Shape, p: Matrix01, meter: _Meter) -> list[list[int]]:
    """Per-cell minimal supports.

    supports[z] holds the minimal bitmasks S (not containing z) such that
    S union {z} carries a copy of p using z as a 1.  Enumerated selections
    count against the meter so budgets also bound the table construction,
    not just the search proper.
    """
    raw_supports: list[list[int]] = [[] for _ in range(shape.cell_count)]
    for e in iter_image_masks(shape, p):
        meter.tick()
        rem = e
        while rem:
            low = rem & -rem
            raw_supports[low.bit_length() - 1].append(e ^ low)
            rem ^= low
    return [_minimal_masks(s) for s in raw_supports]


def _block_capacity(cells: list[int], supports: list[list[int]], meter: _Meter) -> int:
    """Largest subset of ``cells`` with no copy of p lying wholly inside it.

    A maximising search over the cells in order, 1 before 0: while the
    chosen cells avoid p, adding t completes a copy iff a support of t is
    already chosen, and that copy lies inside the chosen cells.
    """
    length = len(cells)
    best = 0

    def grow(i, in_mask, count):
        nonlocal best
        meter.tick()
        if count + (length - i) <= best:
            return
        if i == length:
            best = count
            return
        t = cells[i]
        if all(s & ~in_mask for s in supports[t]):
            grow(i + 1, in_mask | 1 << t, count + 1)
        grow(i + 1, in_mask, count)

    grow(0, 0, 0)
    return best


def _diagonal_blocks(
    shape: Shape, supports: list[list[int]], meter: _Meter
) -> tuple[list[int], list[int]]:
    """Each cell's diagonal and each diagonal's quota of cells to leave out.

    The quota is the diagonal's length minus its capacity.
    """
    block_of = [0] * shape.cell_count
    quota = []
    for b, diagonal in enumerate(diagonals(shape)):
        cells = [shape.flat_index(c) for c in diagonal]
        for z in cells:
            block_of[z] = b
        quota.append(len(cells) - _block_capacity(cells, supports, meter))
    return block_of, quota


def _search(
    shape: Shape,
    p: Matrix01,
    budget: SearchBudget,
    default_cells: int,
    require_avoid: bool,
    maximise: bool,
) -> SearchResult:
    """Optimum-weight host covering every 0-cell (optionally also avoiding p).

    Cells are decided in row-major order, 0 before 1, so leaves arrive in
    canonical order.  With no incumbent the bound starts outside every
    weight; every leaf is feasible and only strictly better leaves are kept,
    so the first leaf at the optimum is the canonical witness.  A pattern
    that cannot fit has no supports, so every cell is forced in.

    Minimising prunes when the 1s plus the undecided cells with no live
    support cannot beat the best leaf.  Maximising carries the diagonal
    block bound ``cc - sum_B max(out_B, quota_B)``: ``room[B]`` counts down
    from the quota as cells of B are left out, and once it is negative each
    further 0 in B lowers the bound by one; a 1 never changes it.  On a
    budget abort the error carries the bounds proven so far.
    """
    _validate(shape, p)
    _check_cells(shape, budget, default_cells)
    meter = _Meter(budget)
    cc = shape.cell_count
    supports = _support_tables(shape, p, meter)

    sup_owner: list[int] = []
    occurs: list[list[int]] = [[] for _ in range(cc)]
    for z in range(cc):
        for s in supports[z]:
            sid = len(sup_owner)
            sup_owner.append(z)
            rem = s
            while rem:
                low = rem & -rem
                occurs[low.bit_length() - 1].append(sid)
                rem ^= low

    alive = [len(s) for s in supports]
    dead = [0] * len(sup_owner)
    decided = [0] * cc  # 0 undecided, 1 in, 2 out
    if maximise:
        block_of, room = _diagonal_blocks(shape, supports, meter)
        root = cc - sum(room)
    else:
        root = sum(1 for z in range(cc) if alive[z] == 0)
    best = -1 if maximise else cc + 1
    best_bits = 0

    # bound: the block bound when maximising, else the forced undecided cells
    def dfs(t, in_mask, in_count, bound):
        nonlocal best, best_bits
        meter.tick()
        if maximise:
            if bound <= best:
                return
        elif in_count + bound >= best:
            return
        if t == cc:
            best, best_bits = in_count, in_mask
            return
        bit = 1 << t
        # leave t out first: lexicographically smaller
        if alive[t] > 0:
            decided[t] = 2
            bad = False
            df = 0
            for sid in occurs[t]:
                dead[sid] += 1
                if dead[sid] == 1:
                    z = sup_owner[sid]
                    alive[z] -= 1
                    if alive[z] == 0:
                        if decided[z] == 2:
                            bad = True
                        elif decided[z] == 0:
                            df += 1
            if not bad:
                if maximise:
                    b = block_of[t]
                    room[b] -= 1
                    dfs(t + 1, in_mask, in_count, bound - (room[b] < 0))
                    room[b] += 1
                else:
                    dfs(t + 1, in_mask, in_count, bound + df)
            for sid in occurs[t]:
                if dead[sid] == 1:
                    alive[sup_owner[sid]] += 1
                dead[sid] -= 1
            decided[t] = 0
        # put t in; the decided 1s avoid p, so a new copy would use t and
        # hold one of its minimal supports
        if require_avoid:
            for s in supports[t]:
                if not s & ~in_mask:
                    return
        decided[t] = 1
        if maximise:
            dfs(t + 1, in_mask | bit, in_count + 1, bound)
        else:
            dfs(t + 1, in_mask | bit, in_count + 1, bound - (alive[t] == 0))
        decided[t] = 0

    try:
        dfs(0, 0, 0, root)
    except BudgetExceededError as err:
        found = best if 0 <= best <= cc else None
        err.bounds = (found, root) if maximise else (root, found)
        raise
    return SearchResult(best, Matrix01(shape, best_bits), meter.nodes)


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
