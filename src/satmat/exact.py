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

A node is four immutable ints (see ``_search``): the next cell, a bit per
live support, a guard bit per cell not decided 1 with a live support, and
the bound.  The search is one loop over them and a stack of the put-in
children still to visit.  Leaving a cell out and testing a put-in for a copy
are each one AND with a precomputed row (cells x supports bits in all), and
the ``ex`` bound and the witness read the guards: nothing is undone.  Every
node is counted, a node cut by its bound too.  The clock is checked on the
first node and every ``_TICK`` nodes after.

``sat`` and ``ex`` also keep a frontier table (see ``_search``), as in
Knuth's simpath (TAOCP 7.1.4) and the frontier-based search of Kawahara,
Inoue, Iwashita and Minato (IEICE Trans. 2017).  The row-major search
reaches the same subproblem by many prefixes, so at line starts it keys a
node on what the undecided cells can still see and cuts a node whose key
was already reached at no greater cost.  ``ssat`` keeps no table.

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
from itertools import product
from operator import add

from .constructions import (
    diagonal_concatenation,
    has_corner_only_shell,
    identity_pattern,
)
from .containment import ENUMERATION_LIMIT, _check_dims, embeddings_count, image_offsets
from .core import Matrix01, Shape, diagonals

DEFAULT_BNB_CELLS = 30  # exact_ex / exact_sat
DEFAULT_SSAT_CELLS = 16  # exact_ssat

_TICK = 1024  # nodes between wall-clock checks
_ROW_BITS = 1 << 30  # bits the keep rows, cells x (cells + supports), may take
_NONZERO = bytes([0]) + bytes([1]) * 255  # a translate table: nonzero bytes to 1


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

    def __post_init__(self):
        for name in ("max_cells", "time_limit", "node_limit"):
            value = getattr(self, name)
            if value is not None and not value >= 0:  # NaN compares false too
                raise ValueError(f"{name} must be None or at least 0, not {value}")


@dataclass(frozen=True)
class SearchResult:
    value: int
    witness: Matrix01
    nodes: int


class _Meter:
    """Counts nodes: a caller adds one to ``nodes`` and calls ``tick`` only
    once ``nodes`` reaches ``next_check``, the next node where the node
    limit, the clock or the wake could act."""

    __slots__ = ("nodes", "next_check", "over", "deadline", "wake", "wake_at")

    def __init__(self, budget: SearchBudget):
        self.nodes, self.next_check = 0, 1
        self.wake = None  # called once, at the first clock check from node wake_at
        nodes, secs = budget.node_limit, budget.time_limit
        self.over = float("inf") if nodes is None else nodes + 1  # the first node past the limit
        self.deadline = None if secs is None else time.monotonic() + secs

    def tick(self):
        if self.nodes >= self.over:
            raise BudgetExceededError("node budget exceeded", self.nodes)
        # the first node checks too, so an expired budget stops short searches
        if self.nodes % _TICK == 1:
            self.check_time()
            if self.wake is not None and self.nodes >= self.wake_at:
                wake, self.wake = self.wake, None
                wake()
        # the next clock check, or the first node past the limit if sooner
        self.next_check = min(self.nodes - (self.nodes - 1) % _TICK + _TICK, self.over)

    def check_time(self):
        """Abort if the time budget has run out; counts no node."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceededError("time budget exceeded", self.nodes)


def _check_cells(shape: Shape, budget: SearchBudget, default_cells: int) -> None:
    """Refuse a host of more cells than the budget allows, before any work."""
    cap = budget.max_cells if budget.max_cells is not None else default_cells
    if shape.cell_count > cap:
        raise BudgetExceededError(f"{shape.cell_count} cells exceeds the budget of {cap}")


def _validate(shape: Shape, p: Matrix01) -> None:
    _check_dims(shape, p)
    if p.weight == 0:
        raise ValueError("pattern has no 1-entries")


def _support_tables(shape: Shape, p: Matrix01, meter: _Meter) -> list[list[int]]:
    """Per-cell supports.

    supports[z] holds, once each in first-seen order, the bitmasks S (not
    containing z) such that S union {z} is the image of a selection of p.
    Selections are injective, so every S has ``p.weight - 1`` cells and none
    is a strict superset of another: every support is minimal.  The walk
    sums the prefix dimensions' offsets once per prefix selection and adds
    the last dimension's per selection.  Each selection counts as a node, so
    budgets also bound the table construction, not just the search proper.
    """
    raw_supports: list[list[int]] = [[] for _ in range(shape.cell_count)]
    *prefix, last = image_offsets(shape, p)
    zeros = (0,) * p.weight  # the prefix sum of a 1-D host
    for pre in product(*prefix):
        firsts = [*map(sum, zip(zeros, *pre))]
        for offs in last:
            meter.nodes += 1
            if meter.nodes >= meter.next_check:
                meter.tick()
            cells = [*map(add, firsts, offs)]
            e = 0
            for c in cells:
                e |= 1 << c
            for c in cells:
                raw_supports[c].append(e ^ 1 << c)
    return [list(dict.fromkeys(s)) for s in raw_supports]


def _block_capacity(cells: list[int], supports: list[list[int]], meter: _Meter) -> int:
    """Largest subset of ``cells`` with no copy of p lying wholly inside it.

    A maximising search over the cells in order, 1 before 0, one loop over
    a stack: the leave-out child is pushed before the put-in child, so the
    put-in subtree is searched first.  While the chosen cells avoid p,
    adding t completes a copy iff a support of t is already chosen, and
    that copy lies inside the chosen cells.
    """
    length = len(cells)
    best = 0
    stack = [(0, 0, 0)]  # (next index, chosen cells, their count), deepest last
    while stack:
        i, chosen, count = stack.pop()
        meter.nodes += 1
        if meter.nodes >= meter.next_check:
            meter.tick()
        if count + (length - i) <= best:
            continue
        if i == length:
            best = count
            continue
        t = cells[i]
        stack.append((i + 1, chosen, count))
        if all(s & ~chosen for s in supports[t]):
            stack.append((i + 1, chosen | 1 << t, count + 1))
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


def _frontier_masks(
    shape: Shape, supports: list[list[int]], width: int, meter: _Meter
) -> dict[int, tuple[int, int, int]]:
    """Per line start t, the masks that read t's frontier key off ``live``.

    The line starts are the positive multiples of the last extent below the
    start of the last line.  Each cell's supports are sorted, so at every t
    those sharing a future part ``s >> t`` form one contiguous run.
    ``tops`` holds the top bit of each run, ``ends`` the supports of the
    cells below t lying wholly below t and the guards of those cells, and
    ``cut`` is the first bit of t's field.  One pass puts each support that
    is not its field's last in the bucket of the highest bit where it and
    the next support differ, and each support and guard in the bucket of the
    first t it lies below with its cell; the masks are cumulative ORs of the
    buckets.
    """
    cc, line = shape.cell_count, shape.extents[-1]
    levels = cc // line - 2
    tops = [bytearray(width + 7 >> 3) for _ in range(levels + 1)]
    ends = [bytearray(width + 7 >> 3) for _ in range(levels + 1)]
    first = []
    i = 0
    for z, sups in enumerate(supports):
        meter.check_time()
        first.append(i)
        for j, s in enumerate(sups, 1):
            # a run ends at s at the levels k with k * line below the highest
            # bit where s and the next support differ, the field's last at all
            k = levels
            if j < len(sups):
                k = min(k, ((s ^ sups[j]).bit_length() - 1) // line)
            tops[k][i >> 3] |= 1 << (i & 7)
            k = -(-max(s.bit_length(), z + 1) // line)  # s and z below k * line
            if k <= levels:
                ends[k][i >> 3] |= 1 << (i & 7)
            i += 1
        k = -(-(z + 1) // line)  # the guard of z
        if k <= levels:
            ends[k][i >> 3] |= 1 << (i & 7)
        i += 1
    top = 0
    for k in range(levels, 0, -1):
        top |= int.from_bytes(tops[k], "little")
        tops[k] = top
    marks = {}
    end = 0
    for k in range(1, levels + 1):
        end |= int.from_bytes(ends[k], "little")
        marks[k * line] = (tops[k], end, first[k * line])
    return marks


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
    bound.  The search is one loop.  A node that is not cut records a leaf,
    or pushes its put-in child, if that avoids p, on the stack ``pending``
    and goes on in place into its leave-out child, or into its put-in child
    if t is forced; a node with no child to go on to pops ``pending``.  No
    step changes an int or a table in place: nothing is undone.  Each node
    is counted once, before it is expanded, also one cut by its bound (its
    ``lb`` reaches the best cost) or by the frontier table.  A search whose
    support table could exceed ``ENUMERATION_LIMIT`` supports, or whose
    rows could take more than ``_ROW_BITS`` bits in all, is refused before
    any table is built.  Aborts in the search carry the proven bounds.

    The avoiding searches (``sat``, ``ex``) also keep a frontier table at
    the line starts t of ``_frontier_masks``.  Each field holds its supports
    sorted, so those sharing a future part ``s >> t`` form a run, and the
    key is: t; the live runs (runs with a live support) of the fields of the
    cells from t on; and the antichain of the open 0s below t, the 0s that no
    live support lying wholly below t covers yet, each as the set of the
    future parts of its live runs, with every set that strictly contains
    another dropped, since covering the smaller covers it.  The undecided
    cells' choices and costs depend on a node only through its key, so a
    node whose key was reached earlier at no greater cost (the 1s for
    ``sat``, the 0s for ``ex``, both read from ``lives``) is cut: the
    earlier node has the lexicographically smaller prefix and each of its
    completions costs no more than the same completion of the later one, so
    the cut holds no leaf strictly better than the best.  Values and
    witnesses stay the same, and node counts only fall.  The runs are read
    off ``live`` by one carry through the masks, and the open 0s by the
    guard trick on ``live & ends``, so a key costs a few wide operations
    plus the field of each open 0; the set of an open 0 is cached by its
    field's live runs.  The table starts at the meter's first clock check
    after ``_TICK`` nodes of branch and bound, when ``start`` fills
    ``marks``, and from then on every node at a line start is keyed: a
    search that ends sooner pays only ``t in marks`` per node.  ``ssat``
    keeps no table: keyed the same way, its small searches ran slower.  The
    masks take ``width`` bits per line start, so the table is kept only
    while that is at most ``ENUMERATION_LIMIT`` bits in all; a search
    without it runs as before.  The table and the cache stop taking entries
    once the keys' run masks would take ``ENUMERATION_LIMIT`` words at the
    full width of ``live``; a key not kept only loses a cut.
    """
    _validate(shape, p)
    _check_cells(shape, budget, default_cells)
    # at most weight supports per selection: this bounds the rows' width
    most = embeddings_count(shape, p) * p.weight
    if most > ENUMERATION_LIMIT:
        raise BudgetExceededError(
            f"up to {most} supports exceeds the enumeration cap {ENUMERATION_LIMIT}"
        )
    rows = shape.cell_count * (shape.cell_count + most)
    if rows > _ROW_BITS:
        raise BudgetExceededError(f"rows of up to {rows} bits exceed the row cap of {_ROW_BITS}")
    meter = _Meter(budget)
    cc = shape.cell_count
    supports = _support_tables(shape, p, meter)
    width = cc + sum(map(len, supports))
    # the frontier table's masks take width bits per line start
    frontier = require_avoid and 0 < (cc // shape.extents[-1] - 2) * width <= ENUMERATION_LIMIT
    if frontier:  # the supports sharing a future part lie together
        supports = [sorted(sups) for sups in supports]

    # keep[c] clears the supports holding c, closed[z] holds those of z lying
    # wholly below z; ints from strings take linear time
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
    best = cc + 1
    best_lives = 0

    marks: dict = {}  # line start -> (tops, steps, ends, cut), once the table starts
    if frontier:
        table: dict = {}  # key -> least cost it was reached at
        families: dict = {}  # (t, guard bit, live runs of the field) -> future parts
        room = 64 * ENUMERATION_LIMIT // width  # new entries either may take
        field_at: dict = {}  # by guard bit: the field's supports, bytes and mask

        def seen(t, live, lives):
            """Whether t's key was reached at no greater cost; else record it."""
            nonlocal room
            tops, steps, ends, cut = marks[t]
            # a run's carry reaches its top iff it has a live support
            runs = (((live & ~tops) + steps) | live) & tops
            zeros = lives & ends  # below t a guard is in lives iff its cell is 0
            opened = zeros ^ ((((live & ends) | guard) - base) & zeros)
            open_sets = set()
            if opened:
                ones = runs.to_bytes(width + 7 >> 3, "little")
                bare = opened.to_bytes(cut + 7 >> 3, "little")
                busy = bare.translate(_NONZERO)  # 1 at each byte holding an open 0
                q = busy.find(1)
                while q >= 0:
                    rest = bare[q]
                    while rest:
                        g = q << 3 | (rest & -rest).bit_length() - 1
                        rest &= rest - 1
                        sups, low, high, shift, mask = field_at[g]
                        # the live runs of the field whose guard is g
                        x = int.from_bytes(ones[low:high], "little") >> shift & mask
                        futures = families.get((t, g, x))
                        if futures is None:
                            # the future parts of the supports of the runs in x
                            futures = frozenset(s >> t for j, s in enumerate(sups) if x >> j & 1)
                            if room > 0:
                                families[t, g, x] = futures
                                room -= 1
                        open_sets.add(futures)
                    q = busy.find(1, q + 1)
            if len(open_sets) > 1:  # drop each set that strictly contains another
                open_sets = [s for s in open_sets if not any(map(s.__gt__, open_sets))]
            key = (t, runs >> cut, frozenset(open_sets))
            cost = zeros.bit_count() if maximise else t - zeros.bit_count()
            known = table.get(key)
            if known is not None and known <= cost:
                return True
            if known is not None or room > 0:
                room -= known is None
                table[key] = cost
            return False

        def start(supports=supports, live=live):  # the del and the loop rebind both
            """Build the key's tables: from now on a node at a line start is keyed."""
            for t, (tops, ends, cut) in _frontier_masks(shape, supports, width, meter).items():
                marks[t] = (tops, live ^ tops, ends, cut)  # steps: all but the tops
            a = 0  # the field's first bit
            for sups in supports:
                g = a + len(sups)
                field_at[g] = (sups, a >> 3, (g >> 3) + 1, a & 7, (1 << g - a) - 1)
                a = g + 1

        meter.wake, meter.wake_at = start, meter.nodes + _TICK
    del supports

    t, lb = 0, root
    pending = []  # the put-in children still to visit, deepest last
    try:
        while True:
            # a node cut by its bound or by the table is counted all the same
            cut = lb >= best or t in marks and seen(t, live, lives)
            meter.nodes += 1
            if meter.nodes >= meter.next_check:
                meter.tick()
            if cut:
                pass
            elif t == cc:
                best, best_lives = lb, lives
            else:
                g = guard_of[t]
                # the decided 1s avoid p, so putting t in would complete a
                # copy iff a live support of t lies wholly below t
                put = not (require_avoid and live & closed[t])
                if not lives & g:  # forced: lb already counts it
                    if put:
                        t += 1
                        continue
                else:
                    if put:
                        pending.append((t + 1, live, lives ^ g, lb + (not maximise)))
                    # leave t out first: lexicographically smaller
                    kept = live & keep[t]
                    left = lives & ((kept | guard) - base)
                    dead = lives ^ left
                    if not dead & g - 1:  # every cell decided 0 keeps a support
                        if maximise:  # a 0 past the quota: its 0s before t reach it
                            lb += (before[t] & lives).bit_count() >= quota[t]
                        else:  # the undecided cells whose last support died
                            lb += (dead >> g.bit_length()).bit_count()
                        t, live, lives = t + 1, kept, left
                        continue
            if not pending:
                break
            t, live, lives, lb = pending.pop()
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
    _validate(shape, p_prime)
    if not has_corner_only_shell(p_prime):
        raise ValueError("inner pattern must have its corner as only shell 1-entry")
    if any(n < l + 1 for n, l in zip(shape.extents, p_prime.shape.extents)):
        raise ValueError("host extents leave no room for the outer pattern")
    p = diagonal_concatenation(p_prime, identity_pattern(p_prime.shape.d, 1))
    inner_shape = Shape(tuple(n - 1 for n in shape.extents))
    return RecurrenceReport(
        shape=shape,
        boundary=shape.diagonal_count,
        sat_outer=exact_sat(shape, p, budget).value,
        sat_inner=exact_sat(inner_shape, p_prime, budget).value,
        ex_outer=exact_ex(shape, p, budget).value,
        ex_inner=exact_ex(inner_shape, p_prime, budget).value,
    )
