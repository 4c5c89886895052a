#!/usr/bin/env python3
"""Time the verdict and anchored-search layers of one or two satmat sources.

    python3 scripts/bench_layers.py SRC [SRC2] [--small]

SRC is a ``src`` directory holding the ``satmat`` package.  Each of 7 rounds
imports satmat afresh from every source and keeps them all loaded; then,
figure by figure, the sources take turns run by run, alternating which goes
first, so a drift in machine speed falls on both sides alike.

The verdict rows are identity patterns I_s on their nested layers
(``identity_layers`` with k = s − 1), on both sides of the switch between the
two paths of ``is_saturating``/``is_semisaturating``, and I2's offset blocks
(``offset_block``) on the 6^2 and 6^3 hosts, as in satbench's C05 sweep:

- ``sweep``: the selection table built cold, then both verdicts walking it
  (1 build + 2 walks);
- ``walk``: both verdicts walking the table built beforehand, the pass over
  the host's 0-cells alone, timed over repeated calls;
- ``per_flip``: both verdicts on the per-flip path, with a cold kernel
  plan.

Each figure is the best of 3 runs in a round, in ms; a side gives the
median and quartiles over rounds, and ``chosen``, the path its library
takes by default.  ``bits_per_search`` is the table's bits (selections ×
cells) over the per-flip path's searches (0-cells + 1).  The ``image_columns``
row times the cold table of the 3×3 identity pattern on the 4×4 host, in µs.
The ``image_columns <host>`` rows time, in ms, the cold tables of the
longest dimensions the switch still sweeps: all-one patterns on all-zero
hosts of about 2^16 selections, the worst tables a verdict builds.

The ``anchored`` rows time the kernel as the ``large_hosts`` workload uses
it: ``anchored_contains`` of each flipped host at its flipped 0-cell, the
line tables and the kernel plan warm, in µs per flip.  A host is I_s's
nested layers or a greedy host in a seeded cell order, and
``searches_per_flip`` counts the pattern 1-entries that can be pinned at
the flipped cell, one pinned search each.  Patterns of more entries run
more searches per flip, which the end-to-end medians mix.

The ``per_flip`` rows time, in ms, per-flip verdicts (``SWEEP_LIMIT``
forced to -1) on a cold kernel plan: the ones satbench's ``large_hosts``
workload asks of its hosts, ``is_semisaturating`` of I2 on its 45^2 corner
block (``corner_block``) and of I3 on 18^2 and I2 on 12^3 greedy hosts,
and ``is_saturating`` of I2 and I4 on the 300^2 nested layers.  Each side
gives its ``searches``, the kernel searches (``containment._search`` calls)
of one verdict.

The ``exact`` rows time the exact search:

- ``exact_ssat C07 n=<n>``: ``exact_ssat`` on the n×n host of each of the
  654 unbounded 2-D patterns up to 3×3, the patterns of satbench's C07
  growth ops, in ms per pass, with each side's node total.  As in those ops,
  each pattern's searches run in turn from n = 2 (only the one at n is
  timed), so a pass does not cycle through more patterns than the
  library's pattern cache keeps.  ``setup_ms`` times the same searches
  each stopped by a node limit at its first branch-and-bound node: the
  fixed set-up, whose share of the pass is ``setup_share``;
- ``is_semisaturating C07 n=<n>``: the verdict on each C07 pattern's
  ``exact_ssat`` witness at n, as the growth ops check it, in µs per
  verdict: ``after_us`` right after the search, ``cold_us`` with the
  search's kept rows and the selection table dropped first (a version that
  keeps no rows builds the table in both);
- ``_support_tables <instance>``: the support walk of an identity pattern,
  in µs;
- ``exact_sat <instance>``: one search, in ms, with its nodes and nodes
  per second.

With two sources every figure also has the ratio of the second side's
median to the first's and the rounds in which the second was faster.

The JSON report goes to stdout.  The exit status is 1 if the two paths of a
side disagree on a verdict report, a witness verdict's after the search and
cold too, or the two sides on an anchored witness or on an exact search's
value or witness, or on a per-flip verdict.  ``--small`` runs tiny
instances in 1 round of 1 run (the C07 rows at n = 3 on 20 of the
patterns), as a smoke test.  Only the standard library, satmat and
``bench_pairs.py`` are used.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from functools import partial
from itertools import product
from pathlib import Path

from bench_pairs import environment, spread  # scripts/ is sys.path[0]

# (size s of I_s, d, n): I_s on the nested layers of the n^d host
GRID = [
    (2, 3, 8), (2, 2, 20), (2, 2, 16), (3, 2, 10), (4, 2, 9),
    (4, 2, 11), (3, 2, 14), (3, 2, 12), (4, 2, 10), (2, 2, 26), (2, 3, 10),
]
SMALL_GRID = [(2, 2, 6), (3, 2, 5), (2, 3, 3)]
OFFSET_HOSTS = [(2, 6), (3, 6)]  # (d, n): I2's offset block on the n^d host
WALK_LOOPS = {False: 20, True: 1}
# (size s of I_s, d, n, greedy): I_s on the n^d host's nested layers, or on
# its greedy host in the cell order of GREEDY_SEED, every 0-cell flipped
FLIP_GRID = {
    False: [(2, 3, 14, False), (2, 3, 12, True), (3, 2, 18, True),
            (4, 2, 14, False), (5, 2, 12, False), (2, 4, 5, False)],
    True: [(2, 3, 4, False), (3, 2, 6, True)],
}
GREEDY_SEED = 1
# (size s of I_s, d, n, host): the per-flip verdict rows, each asking the
# verdict large_hosts asks of that host
VERDICT_HOSTS = {
    False: [(2, 2, 45, "corner"), (3, 2, 18, "greedy"), (2, 3, 12, "greedy"),
            (2, 2, 300, "layers"), (4, 2, 300, "layers")],
    True: [(2, 2, 7, "corner"), (3, 2, 6, "greedy"), (2, 2, 12, "layers")],
}
TABLE_LOOPS = {False: 200, True: 2}
ROUNDS = {False: 7, True: 1}
REPEAT = {False: 3, True: 1}  # runs per figure in a round
# (host extents, pattern as nested rows): the long-dimension table rows
LONG_TABLES = {
    False: [((363,), [1, 1]), ((37,), [1] * 4), ((18,), [1] * 9), ((2, 256), [[1, 1]])],
    True: [((40,), [1, 1]), ((2, 12), [[1, 1]])],
}
ALWAYS_SWEEP = 1 << 62  # above any table's bits per search
C07_SIZES = {False: (2, 3, 4), True: (3,)}  # the host extents n of the C07 rows
C07_SAMPLE = {False: None, True: 20}  # patterns, spread over the universe; None: all
C07_CELLS = 16  # the growth ops' cell budget
WITNESS_SIZES = {False: (3, 4), True: (3,)}  # the host extents n of the witness rows
# (size s of I_s, host extents): the support-walk rows and the exact_sat row
SUPPORT_HOSTS = {False: [(2, (6, 6)), (3, (5, 5)), (2, (4, 4, 4))], True: [(2, (4, 4))]}
SUPPORT_LOOPS = {False: 20, True: 2}
SAT_HOSTS = {False: [(3, (6, 6))], True: [(2, (4, 4))]}


class Disagree(Exception):
    pass


class Timed(tuple):
    """(seconds, report) of a call that times only part of its work."""


def load(src: Path):
    """(satmat, its saturation module, its containment module), imported afresh."""
    for name in [n for n in sys.modules if n == "satmat" or n.startswith("satmat.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        sm = importlib.import_module("satmat")
    finally:
        sys.path.remove(str(src))
    if Path(sm.__file__).resolve().parent != (src / "satmat").resolve():
        raise ImportError(f"satmat was imported from {sm.__file__}, not from {src}")
    return sm, sys.modules["satmat.saturation"], sys.modules["satmat.containment"]


def verdicts(side, m, p, limit):
    """Both verdict reports of m, on cold caches, with ``SWEEP_LIMIT`` at limit."""
    sm, saturation, containment = side
    saved = saturation.SWEEP_LIMIT
    containment.image_columns.cache_clear()
    containment._plan.cache_clear()
    saturation.SWEEP_LIMIT = limit
    try:
        return sm.is_saturating(m, p), sm.is_semisaturating(m, p)
    finally:
        saturation.SWEEP_LIMIT = saved


def cold_tables(side, loops: int) -> None:
    sm, _, containment = side
    shape, p = sm.Shape((4, 4)), sm.identity_pattern(2, 3)
    for _ in range(loops):
        containment.image_columns.cache_clear()
        containment.image_columns(shape, p)


def cold_table(side, shape, p) -> None:
    side[2].image_columns.cache_clear()
    side[2].image_columns(shape, p)


def long_tables(sm, tables):
    """(row name, host shape, pattern) per long-dimension table entry."""
    for extents, rows in tables:
        name = "image_columns " + "x".join(map(str, extents))
        yield name, sm.Shape(extents), sm.Matrix01.from_nested(rows)


def walks(side, m, p, loops: int):
    """Timed: both verdict reports of m, ``loops`` times, swept on the table
    built before the clock starts."""
    sm, saturation, containment = side
    saved = saturation.SWEEP_LIMIT
    containment.image_columns(m.shape, p)
    saturation.SWEEP_LIMIT = ALWAYS_SWEEP
    try:
        start = time.perf_counter()
        for _ in range(loops):
            reports = sm.is_saturating(m, p), sm.is_semisaturating(m, p)
        return Timed((time.perf_counter() - start, reports))
    finally:
        saturation.SWEEP_LIMIT = saved


def hosts(sm, grid):
    """(row name, host, pattern) per grid entry, then per offset block."""
    for s, d, n in grid:
        shape = sm.Shape((n,) * d)
        m, p = sm.identity_layers(shape, s - 1), sm.identity_pattern(d, s)
        yield f"I{s} layers {n}^{d}", m, p
    for d, n in OFFSET_HOSTS:
        p = sm.identity_pattern(d, 2)
        yield f"I2 offset {n}^{d}", sm.offset_block(p, n), p


def flip_hosts(sm, grid):
    """(row name, host, pattern) per flip grid entry."""
    for s, d, n, greedy in grid:
        shape, p = sm.Shape((n,) * d), sm.identity_pattern(d, s)
        if greedy:
            m = sm.greedy_saturate(p, shape, sm.cell_order(shape, GREEDY_SEED))
            yield f"I{s} on greedy {n}^{d}", m, p
        else:
            yield f"I{s} on layers {n}^{d}", sm.identity_layers(shape, s - 1), p


def verdict_hosts(sm, grid):
    """(row name, verdict name, host, pattern) per per-flip verdict entry."""
    for s, d, n, kind in grid:
        shape, p = sm.Shape((n,) * d), sm.identity_pattern(d, s)
        if kind == "corner":
            m = sm.corner_block(p, n)
        elif kind == "greedy":
            m = sm.greedy_saturate(p, shape, sm.cell_order(shape, GREEDY_SEED))
        else:
            m = sm.identity_layers(shape, s - 1)
        verdict = "is_saturating" if kind == "layers" else "is_semisaturating"
        yield f"{verdict} I{s} on {kind} {n}^{d}", verdict, m, p


def per_flip(side, verdict, m, p):
    """The verdict's report of m on the per-flip path, with a cold kernel
    plan, as (verdict, failure kind, counterexample)."""
    sm, saturation, containment = side
    saved = saturation.SWEEP_LIMIT
    containment._plan.cache_clear()
    saturation.SWEEP_LIMIT = -1
    try:
        rep = getattr(sm, verdict)(m, p)
        return rep.verdict, rep.failure_kind, getattr(rep.counterexample, "selections",
                                                      rep.counterexample)
    finally:
        saturation.SWEEP_LIMIT = saved


def anchored(side, flipped, p, zeros):
    """The anchored witness of each flipped host at its flipped cell."""
    search = side[0].anchored_contains
    return [e and e.selections for e in map(search, flipped, [p] * len(zeros), zeros)]


def c07_patterns(sm, small: bool):
    """The unbounded 2-D patterns up to 3×3, as satbench's C07 growth ops
    build them; a sample spread over them if ``small``."""
    out = []
    for ext in product(range(1, 4), repeat=2):
        shape = sm.Shape(ext)
        out += [p for p in (sm.Matrix01(shape, b) for b in range(1, 1 << shape.cell_count))
                if not sm.classify_ssat(p).bounded]
    size = C07_SAMPLE[small]
    return out if size is None else out[:: len(out) // size][:size]


def ssat_pass(side, patterns, n: int, setup: bool):
    """Timed: ``exact_ssat`` at n of each pattern, its searches at 2 .. n - 1
    run first and not timed; each (value, witness bits, nodes), or, with
    ``setup``, each search stopped at its first branch-and-bound node."""
    sm, containment = side[0], side[2]
    budget = sm.SearchBudget(max_cells=C07_CELLS)
    shapes = [sm.Shape((m, m)) for m in range(2, n + 1)]
    took, found = 0.0, []
    for p in patterns:
        for shape in shapes[:-1]:
            sm.exact_ssat(shape, p, budget)
        shape = shapes[-1]
        limit = containment.embeddings_count(shape, p) if setup else None
        stop = sm.SearchBudget(max_cells=C07_CELLS, node_limit=limit)
        start = time.perf_counter()
        try:
            r = sm.exact_ssat(shape, p, stop)
            found.append((r.value, r.witness.bits, r.nodes))
        except sm.BudgetExceededError as err:
            found.append(err.nodes)
        took += time.perf_counter() - start
    return Timed((took, found))


def witness_verdicts(side, patterns, n: int, cold: bool):
    """Timed: ``is_semisaturating`` of each pattern's ``exact_ssat`` witness
    at n, right after its search, or with ``cold`` once the search's kept
    rows and the selection table are dropped; the reports."""
    sm, containment = side[0], side[2]
    budget = sm.SearchBudget(max_cells=C07_CELLS)
    shape = sm.Shape((n, n))
    kept = getattr(containment, "_search_rows", [None])  # a version without them keeps none
    took, reports = 0.0, []
    for p in patterns:
        witness = sm.exact_ssat(shape, p, budget).witness
        if cold:
            kept[0] = None
            containment.image_columns.cache_clear()
        start = time.perf_counter()
        reports.append(sm.is_semisaturating(witness, p))
        took += time.perf_counter() - start
    return Timed((took, reports))


def support_walks(side, shape, p, loops: int):
    exact = side[0].exact
    for _ in range(loops):
        exact._support_tables(shape, p, exact._Meter(side[0].SearchBudget()))


def sat_search(side, shape, p):
    r = side[0].exact_sat(shape, p, side[0].SearchBudget(max_cells=shape.cell_count))
    return [(r.value, r.witness.bits, r.nodes)]


def exact_hosts(sm, hosts, fn: str):
    """(row name, host shape, pattern) per (s, extents) entry."""
    for s, ext in hosts:
        name = f"{fn} I{s} {'x'.join(map(str, ext))}"
        yield name, sm.Shape(ext), sm.identity_pattern(len(ext), s)


def exact_tasks(side, small: bool):
    """The exact rows' (row, figure) -> (call, unit), as in ``tasks``."""
    out = {}
    patterns = c07_patterns(side[0], small)
    for n in C07_SIZES[small]:
        for fig, setup in (("pass_ms", False), ("setup_ms", True)):
            out[f"exact_ssat C07 n={n}", fig] = partial(ssat_pass, side, patterns, n, setup), 1e-3
    for n in WITNESS_SIZES[small]:
        unit = 1e-6 * len(patterns)
        for fig, cold in (("after_us", False), ("cold_us", True)):
            out[f"is_semisaturating C07 n={n}", fig] = (
                partial(witness_verdicts, side, patterns, n, cold), unit)
    loops = SUPPORT_LOOPS[small]
    for name, shape, p in exact_hosts(side[0], SUPPORT_HOSTS[small], "_support_tables"):
        out[name, "walk_us"] = partial(support_walks, side, shape, p, loops), 1e-6 * loops
    for name, shape, p in exact_hosts(side[0], SAT_HOSTS[small], "exact_sat"):
        out[name, "search_ms"] = partial(sat_search, side, shape, p), 1e-3
    return out


def tasks(side, grid, small: bool):
    """(row, figure) -> (a call that runs it once, its unit in seconds)."""
    out = {}
    walk_loops = WALK_LOOPS[small]
    for name, m, p in hosts(side[0], grid):
        out[name, "sweep"] = partial(verdicts, side, m, p, ALWAYS_SWEEP), 1e-3
        out[name, "walk"] = partial(walks, side, m, p, walk_loops), 1e-3 * walk_loops
        out[name, "per_flip"] = partial(verdicts, side, m, p, -1), 1e-3
    loops = TABLE_LOOPS[small]
    out["image_columns", "cold_us"] = partial(cold_tables, side, loops), 1e-6 * loops
    for name, shape, p in long_tables(side[0], LONG_TABLES[small]):
        out[name, "cold_ms"] = partial(cold_table, side, shape, p), 1e-3
    for name, m, p in flip_hosts(side[0], FLIP_GRID[small]):
        side[0].contains(m, p)  # builds the line table each flip carries, and the plan
        zeros = list(m.iter_zeros())
        flipped = [m.flip(z) for z in zeros]
        out[name, "anchored_us"] = partial(anchored, side, flipped, p, zeros), 1e-6 * len(zeros)
    for name, verdict, m, p in verdict_hosts(side[0], VERDICT_HOSTS[small]):
        out[name, "verdict_ms"] = partial(per_flip, side, verdict, m, p), 1e-3
    return {**out, **exact_tasks(side, small)}


def describe(side, grid, flip_grid, tables, verdict_grid) -> dict[str, dict[str, object]]:
    """Per verdict row: its sizes, and the path the library takes by default;
    per long-table row: its sizes; per anchored row: its sizes, and the
    searches per flip; per per-flip row: its sizes, and the side's kernel
    searches of one verdict."""
    sm, saturation, containment = side
    built = []
    columns = saturation.image_columns

    def counted(*args):
        built.append(args)
        return columns(*args)

    out = {}
    for name, m, p in hosts(sm, grid):
        built.clear()
        containment.image_columns.cache_clear()
        saturation.image_columns = counted
        try:
            sm.is_saturating(m, p)
        finally:
            saturation.image_columns = columns
        cells, zeros = m.shape.cell_count, m.shape.cell_count - m.weight
        count = containment.embeddings_count(m.shape, p)
        out[name] = {
            "selections": count, "cells": cells, "zeros": zeros,
            "bits_per_search": round(count * cells / (zeros + 1)),
            "chosen": "sweep" if built else "per-flip",
        }
    for name, shape, p in long_tables(sm, tables):
        out[name] = {"host": "x".join(map(str, shape.extents)), "ones": p.weight,
                     "selections": containment.embeddings_count(shape, p),
                     "cells": shape.cell_count}
    for name, m, p in flip_hosts(sm, flip_grid):
        zeros = list(m.iter_zeros())
        ext, l_ext = m.shape.extents, p.shape.extents
        pinnable = sum(
            all(o_i <= z_i and l - o_i <= n - z_i for o_i, z_i, l, n in zip(o, z, l_ext, ext))
            for z in zeros for o in p.iter_ones()
        )
        out[name] = {"entries": p.weight, "zeros": len(zeros),
                     "searches_per_flip": round(pinnable / len(zeros), 2)}
    search, calls = containment._search, []

    def counted(*args):
        calls.append(None)
        return search(*args)

    for name, verdict, m, p in verdict_hosts(sm, verdict_grid):
        calls.clear()
        containment._search = counted
        try:
            per_flip(side, verdict, m, p)
        finally:
            containment._search = search
        out[name] = {"cells": m.shape.cell_count, "zeros": m.shape.cell_count - m.weight,
                     "searches": len(calls)}
    return out


def one_round(sides, grid, r: int, repeat: int, small: bool) -> list[dict]:
    """Per side, (row, figure) -> the best of ``repeat`` runs in its unit.

    The sides take turns run by run, the first side first in even runs of
    even rounds and odd runs of odd rounds.
    """
    work = [tasks(side, grid, small) for side in sides]
    best: list[dict] = [{} for _ in sides]
    reports: list[dict] = [{} for _ in sides]
    for key, (_, unit) in work[0].items():
        for run in range(repeat):
            order = list(range(len(sides)))
            for i in order if (r + run) % 2 == 0 else order[::-1]:
                call = work[i][key][0]
                start = time.perf_counter()
                rep = call()
                took = time.perf_counter() - start
                if isinstance(rep, Timed):
                    took, rep = rep
                reports[i][key] = rep
                best[i][key] = min(best[i].get(key, took / unit), took / unit)
    for side_reports in reports:
        for (name, fig), rep in side_reports.items():
            if fig in ("walk", "per_flip") and rep != side_reports[name, "sweep"]:
                raise Disagree(f"{name}: the sweep and {fig} reports differ")
            if fig == "after_us" and rep != side_reports[name, "cold_us"]:
                raise Disagree(f"{name}: the reports after the search and cold differ")
            if fig == "anchored_us" and rep != reports[0][name, fig]:
                raise Disagree(f"{name}: the sides' anchored witnesses differ")
            if fig == "verdict_ms" and rep != reports[0][name, fig]:
                raise Disagree(f"{name}: the sides' per-flip reports differ")
            if fig in ("pass_ms", "search_ms") and answers(rep) != answers(
                    reports[0][name, fig]):
                raise Disagree(f"{name}: the sides' values or witnesses differ")
    return best


def answers(found):
    """The (value, witness bits) of each exact search, without its nodes."""
    return [r[:2] for r in found]


def summary(values: list[float]) -> dict[str, object]:
    q1, mid, q3 = spread(values)
    return {"median": mid, "quartiles": [q1, q3]}


def describe_exact(side, small: bool) -> dict[str, dict[str, object]]:
    """Per exact row: its sizes, and the side's ``nodes`` of a C07 pass or
    of the ``exact_sat`` search."""
    sm, exact = side[0], side[0].exact
    out: dict[str, dict[str, object]] = {}
    patterns = c07_patterns(sm, small)
    for n in C07_SIZES[small]:
        _, found = ssat_pass(side, patterns, n, False)
        out[f"exact_ssat C07 n={n}"] = {"n": n, "patterns": len(patterns),
                                        "nodes": sum(r[2] for r in found)}
    for n in WITNESS_SIZES[small]:
        out[f"is_semisaturating C07 n={n}"] = {"n": n, "patterns": len(patterns)}
    for name, shape, p in exact_hosts(sm, SUPPORT_HOSTS[small], "_support_tables"):
        supports = exact._support_tables(shape, p, exact._Meter(sm.SearchBudget()))
        out[name] = {"selections": side[2].embeddings_count(shape, p),
                     "supports": sum(map(len, supports))}
    for name, shape, p in exact_hosts(sm, SAT_HOSTS[small], "exact_sat"):
        [(value, _, nodes)] = sat_search(side, shape, p)
        out[name] = {"value": value, "nodes": nodes}
    return out


# described figures that each side reports
PER_SIDE = ("chosen", "nodes", "searches")


def report(srcs, runs, described, rounds: int, repeat: int) -> dict[str, object]:
    """Per row and figure, each side's summary, and the second side's ratio."""
    rows, flips, verdicts, exact = [], [], [], []
    names = dict.fromkeys(name for name, _ in runs[0][0])
    for name in names:
        figures = [fig for row, fig in runs[0][0] if row == name]
        row: dict[str, object] = {"row": name}
        if name == "image_columns":
            row.update(host="4x4", pattern="I3", unit="us")
        else:
            row.update({k: v for k, v in described[0][name].items() if k not in PER_SIDE})
            row["unit"] = "us" if figures[0].endswith("_us") else "ms"
        sides = []
        for src, side_runs, desc in zip(srcs, runs, described):
            side: dict[str, object] = {"src": str(src)}  # as given
            for fig in figures:
                side[fig] = summary([r[name, fig] for r in side_runs])
            side.update({k: v for k, v in desc.get(name, {}).items() if k in PER_SIDE})
            if "setup_ms" in side:
                side["setup_share"] = round(
                    side["setup_ms"]["median"] / side["pass_ms"]["median"], 3)
            if "search_ms" in side:
                side["nodes_per_s"] = round(side["nodes"] / side["search_ms"]["median"] * 1e3)
            sides.append(side)
        if len(srcs) == 2:
            for fig in figures:
                old, new = ([r[name, fig] for r in side_runs] for side_runs in runs)
                sides[1][fig]["ratio"] = round(
                    sides[1][fig]["median"] / sides[0][fig]["median"], 3)
                sides[1][fig]["rounds_faster"] = sum(b < a for a, b in zip(old, new))
        row["sides"] = sides
        if figures == ["anchored_us"]:
            flips.append(row)
        elif figures == ["verdict_ms"]:
            verdicts.append(row)
        else:
            exact_row = name.startswith(("exact_", "is_semisaturating", "_support_tables"))
            (exact if exact_row else rows).append(row)
    return {"layer": "verdict", "rounds": rounds, "repeat": repeat,
            "environment": environment(), "rows": rows, "anchored": flips,
            "per_flip": verdicts, "exact": exact}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, nargs="+", help="one or two src directories")
    parser.add_argument("--small", action="store_true", help="tiny instances, once")
    args = parser.parse_args(argv)
    if len(args.src) > 2:
        parser.error("at most two src directories")
    rounds, repeat = ROUNDS[args.small], REPEAT[args.small]
    grid = SMALL_GRID if args.small else GRID
    runs: list[list[dict]] = [[] for _ in args.src]
    try:
        for r in range(rounds):
            sides = [load(src) for src in args.src]
            if r == 0:
                described = [{**describe(side, grid, FLIP_GRID[args.small],
                                         LONG_TABLES[args.small],
                                         VERDICT_HOSTS[args.small]),
                              **describe_exact(side, args.small)} for side in sides]
            for side_runs, best in zip(runs, one_round(sides, grid, r, repeat,
                                                       args.small)):
                side_runs.append(best)
    except Disagree as err:
        print(err, file=sys.stderr)
        return 1
    print(json.dumps(report(args.src, runs, described, rounds, repeat), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
