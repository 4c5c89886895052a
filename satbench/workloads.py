"""The benchmark's workloads: inputs made from the seed, and checked ops.

Each ``build_*`` function takes a freshly imported ``satmat`` package, the
workload seed and the smoke flag, and returns the workload's question set as
a list of ``(kind, run)`` ops.  ``run()`` answers one top-level question and
checks the answer against a known truth, raising ``CheckFailed`` when it is
wrong.  Ops look satmat functions up on the package at call time, so the
tracing wrappers of a traced round see every call.  Only names in
``satmat.__all__`` and ``satmat.cli.main`` are used.

Building a question set is the benchmark's set-up: it generates every input
pattern, writes it as ``.01m`` text and reads it back.  Exact searches get
cell-count budgets only, so the op set is the same on every machine.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
from functools import partial
from itertools import product
from math import prod


class CheckFailed(Exception):
    """An op's answer disagrees with the known truth."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _load(sm, p):
    """An input as a user would hand it over: through its .01m text."""
    return sm.parse_01m(sm.format_01m(p))


def _stratified(rng: random.Random, patterns: list, fraction: float) -> list:
    """A seed-chosen share of each weight class, at least one of a nonempty one.

    A pattern's cost grows steeply with its weight, so sampling each weight
    class alone keeps the cost mix of every seed's sample the same.
    """
    by_weight: dict[int, list] = {}
    for p in patterns:
        by_weight.setdefault(p.weight, []).append(p)
    out = []
    for _, group in sorted(by_weight.items()):
        out += rng.sample(group, min(len(group), max(1, round(fraction * len(group)))))
    return out


def _identity_closed_form(extents, k: int) -> int:
    """Weight of every saturating host of the identity pattern of size k + 1."""
    return prod(extents) - prod(n - k for n in extents)


# ---------------------------------------------------------------------------
# verdict_sweep: the C05 offset-block universe and the C06 corner-band
# universe, many small hosts per (host shape, pattern).

SWEEP_FRACTION = {False: 0.125, True: 0.004}
SWEEP_MAX_CELLS = {False: 9, True: 4}


def _c05_shapes():
    """Pattern shapes of C05: at most 8 cells and extent at most 5, d in {2, 3}."""
    for d in (2, 3):
        for ext in product(range(1, 6), repeat=d):
            if prod(ext) <= 8:
                yield ext


def _c06_shapes():
    """Pattern shapes of C06: 2-D up to 3x3, 3-D up to 2x2x2."""
    yield from product(range(1, 4), repeat=2)
    yield from product(range(1, 3), repeat=3)


def _offset_op(sm, p, n, anchor, z):
    m = sm.offset_block(p, n, anchor)
    want = n**p.shape.d - prod(n - l + 1 for l in p.shape.extents)
    check(m.weight == want, f"offset_block weight {m.weight} != {want}")
    loaded = _load(sm, m)
    check(loaded == m, ".01m round trip changed the host")
    check(sm.is_saturating(loaded, p).verdict, "offset block is not saturating")
    flipped = loaded.flip(z)
    rep = sm.is_saturating(flipped, p)
    check(rep.failure_kind == "contains_pattern", f"flip at {z} gave {rep.failure_kind}")
    check(
        isinstance(rep.counterexample, sm.Embedding)
        and sm.embedding_is_valid(flipped, p, rep.counterexample),
        "flip witness is not a valid embedding",
    )


def _corner_op(sm, p, n):
    cb = sm.corner_block(p, n)
    want = prod(2 * (l - 1) for l in p.shape.extents)
    check(cb.weight == want, f"corner_block weight {cb.weight} != {want} at n={n}")
    check(sm.is_semisaturating(cb, p).verdict, f"corner block not semisaturating at n={n}")


def _bounded_op(sm, p):
    v = sm.classify_ssat(p)
    check(
        v.bounded == (v.property_i_holds and v.property_ii_holds),
        "bounded disagrees with properties (i) and (ii)",
    )
    if v.bounded:
        for n in range(max(1, 2 * max(p.shape.extents) - 1), 9):
            _corner_op(sm, p, n)


def build_verdict_sweep(sm, seed: int, smoke: bool):
    rng = random.Random(seed)
    fraction = SWEEP_FRACTION[smoke]
    c05 = set(_c05_shapes())
    patterns = []
    for ext in sorted(c05 | set(_c06_shapes())):
        shape = sm.Shape(ext)
        if shape.cell_count > SWEEP_MAX_CELLS[smoke]:
            continue
        universe = [sm.Matrix01(shape, b) for b in range(1, 1 << shape.cell_count)]
        patterns += [_load(sm, p) for p in _stratified(rng, universe, fraction)]
    rng.shuffle(patterns)

    ops = []
    for p in patterns:
        ext = p.shape.extents
        if ext in c05:
            for n in range(max(ext) + 1, 7):
                for a in p.iter_ones():
                    # a 0-cell of the offset block: inside the box pinned to a
                    z = tuple(rng.randint(ai, n - (li - ai)) for ai, li in zip(a, ext))
                    ops.append(("offset", partial(_offset_op, sm, p, n, a, z)))
        ops.append(("bounded", partial(_bounded_op, sm, p)))
    return ops


# ---------------------------------------------------------------------------
# exact_oracles: named branch-and-bound instances, C07 ssat growth, the CLI.

# (pattern dimension, identity size, host extents, quantities)
NAMED = {
    False: [
        (2, 2, (5, 5), "ex sat ssat"),
        (2, 2, (6, 6), "ex sat ssat"),
        (2, 3, (5, 5), "ex sat ssat"),
        (3, 2, (3, 3, 3), "ex sat ssat"),
        (3, 2, (3, 3, 4), "ex sat"),
    ],
    True: [
        (2, 2, (4, 4), "ex sat ssat"),
        (3, 2, (2, 2, 3), "ex sat ssat"),
    ],
}
# The whole C07 universe, in a seed-chosen order: with a half sample the
# median op moved by a tenth between seeds.
C07_FRACTION = {False: 1.0, True: 0.02}
C07_BUDGET_CELLS = 16
# (d, k, n_lo, n_hi, budget cells): identity pattern of size k + 1
TABLES = {
    False: [(2, 2, 3, 5, 25), (3, 1, 2, 3, 27)],
    True: [(2, 1, 2, 3, 9)],
}


def _exact_op(sm, quantity, p, shape, closed, values):
    fn = {"ex": sm.exact_ex, "sat": sm.exact_sat, "ssat": sm.exact_ssat}[quantity]
    r = fn(shape, p, sm.SearchBudget(max_cells=shape.cell_count))
    check(r.witness.weight == r.value, f"{quantity} witness weight {r.witness.weight} != {r.value}")
    if quantity == "ex":
        check(r.value == closed, f"ex {r.value} != closed form {closed}")
        check(sm.avoids(r.witness, p), "ex witness contains the pattern")
    elif quantity == "sat":
        check(r.value == closed, f"sat {r.value} != closed form {closed}")
        check(sm.is_saturating(r.witness, p).verdict, "sat witness is not saturating")
    else:
        check(r.value <= closed, f"ssat {r.value} > sat {closed}")
        check(sm.is_semisaturating(r.witness, p).verdict, "ssat witness is not semisaturating")
    values[quantity] = r.value
    chain = [values[q] for q in ("ssat", "sat", "ex") if q in values]
    check(chain == sorted(chain), f"ssat <= sat <= ex broken: {values}")


def _growth_op(sm, p):
    values = []
    for n in (2, 3, 4):
        r = sm.exact_ssat(sm.Shape((n, n)), p, sm.SearchBudget(max_cells=C07_BUDGET_CELLS))
        check(r.witness.weight == r.value, "ssat witness weight differs from the value")
        check(sm.is_semisaturating(r.witness, p).verdict, f"ssat witness at n={n} not semisaturating")
        values.append(r.value)
    check(values == sorted(values), f"ssat not nondecreasing in n: {values}")
    if prod(2 * (l - 1) for l in p.shape.extents) == 0:
        check(values[-1] > 0, "ssat at n=4 is 0 with a degenerate corner band")


def _table_op(sm, d, k, n_lo, n_hi, cells, seed):
    args = ["table", "--d", str(d), "--k", str(k), "--n-lo", str(n_lo), "--n-hi", str(n_hi),
            "--budget-cells", str(cells), "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sm.cli.main(args)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
    check(code == 0, f"satmat table exited {code}: {err.getvalue().strip()}")
    lines = out.getvalue().splitlines()
    check(bool(lines) and lines[0].startswith("# format_version="), "table header missing")
    rows = list(csv.DictReader(lines[1:]))
    check(len(rows) == n_hi - n_lo + 1, f"table has {len(rows)} rows")
    for row in rows:
        n = int(row["n"])
        closed = n**d - (n - k) ** d
        for col in ("closed_form", "greedy_weight", "layers_weight", "oracle_sat", "oracle_ex"):
            check(row[col] == str(closed), f"table n={n} {col}={row[col]} != {closed}")


def build_exact_oracles(sm, seed: int, smoke: bool):
    rng = random.Random(seed)
    ops = []
    for d, size, ext, quantities in NAMED[smoke]:
        p = _load(sm, sm.identity_pattern(d, size))
        shape = sm.Shape(ext)
        closed = _identity_closed_form(ext, size - 1)
        values: dict[str, int] = {}
        for q in quantities.split():
            ops.append((f"exact_{q}", partial(_exact_op, sm, q, p, shape, closed, values)))

    growth = []
    for ext in product(range(1, 4), repeat=2):
        shape = sm.Shape(ext)
        unbounded = [
            p
            for p in (sm.Matrix01(shape, b) for b in range(1, 1 << shape.cell_count))
            if not sm.classify_ssat(p).bounded
        ]
        growth += _stratified(rng, unbounded, C07_FRACTION[smoke])
    rng.shuffle(growth)
    ops += [("ssat_growth", partial(_growth_op, sm, _load(sm, p))) for p in growth]

    for d, k, n_lo, n_hi, cells in TABLES[smoke]:
        ops.append(("cli_table", partial(_table_op, sm, d, k, n_lo, n_hi, cells, rng.randrange(1 << 30))))
    return ops


# ---------------------------------------------------------------------------
# large_hosts: identity-pattern hosts on both sides of the sweep/per-flip
# switch in saturation, and corner-band hosts of a bounded pattern.

# (d, k, n, greedy): identity pattern of size k + 1 on the n^d host.  The
# greedy pass on the 14^3 host costs a third more or less from one cell order
# to the next, which alone moved wall_s by a tenth between seeds, so that
# host is checked through its nested layers only.
HOSTS = {
    False: [
        (2, 2, 14, True),
        (2, 2, 18, True),
        (3, 1, 10, True),
        (3, 1, 12, True),
        (3, 1, 14, False),
        (2, 3, 11, True),
        (2, 3, 14, True),
    ],
    True: [(2, 2, 6, True), (3, 1, 4, False)],
}
CORNER_HOSTS = {False: [30, 45], True: [5, 7]}


def _layers_op(sm, p, shape, k, state):
    m = sm.identity_layers(shape, k)
    want = _identity_closed_form(shape.extents, k)
    check(m.weight == want, f"identity_layers weight {m.weight} != {want}")
    check(sm.is_saturating(m, p).verdict, "nested layers are not saturating")
    if state is not None:
        state["host"], state["zeros"] = m, list(m.iter_zeros())


def _greedy_op(sm, p, shape, k, order_seed, state):
    g = sm.greedy_saturate(p, shape, sm.cell_order(shape, order_seed))
    want = _identity_closed_form(shape.extents, k)
    check(g.weight == want, f"greedy weight {g.weight} != {want}")
    # the selection table is used here and by _layers_op only
    check(sm.is_semisaturating(g, p).verdict, "greedy host is not semisaturating")
    check(sm.contains(g, p) is None, "greedy host contains the pattern")
    state["host"], state["zeros"] = g, list(g.iter_zeros())


def _flip_op(sm, p, state, i):
    z = state["zeros"][i]
    flipped = state["host"].flip(z)
    e = sm.anchored_contains(flipped, p, z)
    check(e is not None, f"flip at {z} creates no copy")
    check(sm.embedding_is_valid(flipped, p, e), "anchored witness is not valid")
    check(any(e.host_cell(q) == z for q in p.iter_ones()), f"witness does not use {z}")


def build_large_hosts(sm, seed: int, smoke: bool):
    rng = random.Random(seed)
    ops = []
    for d, k, n, greedy in HOSTS[smoke]:
        p = _load(sm, sm.identity_pattern(d, k + 1))
        shape = sm.Shape((n,) * d)
        state: dict = {}
        # every 0-cell of the greedy host, or of the layers when there is
        # none, is flipped; both have the closed-form weight
        layers_state = None if greedy else state
        ops.append(("layers", partial(_layers_op, sm, p, shape, k, layers_state)))
        if greedy:
            order_seed = rng.randrange(1 << 30)
            ops.append(("greedy", partial(_greedy_op, sm, p, shape, k, order_seed, state)))
        zeros = shape.cell_count - _identity_closed_form(shape.extents, k)
        ops += [("flip", partial(_flip_op, sm, p, state, i)) for i in range(zeros)]
    bounded = _load(sm, sm.identity_pattern(2, 2))
    for n in CORNER_HOSTS[smoke]:
        ops.append(("corner", partial(_corner_op, sm, bounded, n)))
    return ops


BUILDERS = {
    "verdict_sweep": build_verdict_sweep,
    "exact_oracles": build_exact_oracles,
    "large_hosts": build_large_hosts,
}
