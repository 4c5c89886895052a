#!/usr/bin/env python3
"""Time the verdict and anchored-search layers of one or two satmat sources.

    python3 scripts/bench_layers.py SRC [SRC2] [--small]

SRC is a ``src`` directory holding the ``satmat`` package.  Each of 7 rounds
imports satmat afresh from every source and keeps them all loaded; then,
figure by figure, the sources take turns run by run, alternating which goes
first, so a drift in machine speed falls on both sides alike.

The verdict rows are identity patterns I_s on their nested layers
(``identity_layers`` with k = s − 1), on both sides of the switch between the
two paths of ``is_saturating``/``is_semisaturating``:

- ``sweep``: the selection table built cold, then both verdicts walking it
  (1 build + 2 walks);
- ``per_flip``: both verdicts by one pinned search per 0-cell, with a cold
  kernel plan.

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

With two sources every figure also has the ratio of the second side's
median to the first's and the rounds in which the second was faster.

The JSON report goes to stdout.  The exit status is 1 if the two paths of a
side disagree on a verdict report, or the two sides on an anchored witness.
``--small`` runs tiny instances in 1 round of 1 run, as a smoke test.  Only
the standard library, satmat and ``bench_pairs.py`` are used.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from functools import partial
from pathlib import Path

from bench_pairs import environment, spread  # scripts/ is sys.path[0]

# (size s of I_s, d, n): I_s on the nested layers of the n^d host
GRID = [
    (2, 3, 8), (2, 2, 20), (2, 2, 16), (3, 2, 10), (4, 2, 9),
    (4, 2, 11), (3, 2, 14), (3, 2, 12), (4, 2, 10), (2, 2, 26), (2, 3, 10),
]
SMALL_GRID = [(2, 2, 6), (3, 2, 5), (2, 3, 3)]
# (size s of I_s, d, n, greedy): I_s on the n^d host's nested layers, or on
# its greedy host in the cell order of GREEDY_SEED, every 0-cell flipped
FLIP_GRID = {
    False: [(2, 3, 14, False), (2, 3, 12, True), (3, 2, 18, True),
            (4, 2, 14, False), (5, 2, 12, False), (2, 4, 5, False)],
    True: [(2, 3, 4, False), (3, 2, 6, True)],
}
GREEDY_SEED = 1
TABLE_LOOPS = {False: 200, True: 2}
ROUNDS = {False: 7, True: 1}
REPEAT = {False: 3, True: 1}  # runs per figure in a round
# (host extents, pattern as nested rows): the long-dimension table rows
LONG_TABLES = {
    False: [((363,), [1, 1]), ((37,), [1] * 4), ((18,), [1] * 9), ((2, 256), [[1, 1]])],
    True: [((40,), [1, 1]), ((2, 12), [[1, 1]])],
}
ALWAYS_SWEEP = 1 << 62  # above any table's bits per search


class Disagree(Exception):
    pass


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


def hosts(sm, grid):
    """(row name, host, pattern) per grid entry."""
    for s, d, n in grid:
        shape = sm.Shape((n,) * d)
        m, p = sm.identity_layers(shape, s - 1), sm.identity_pattern(d, s)
        yield f"I{s} layers {n}^{d}", m, p


def flip_hosts(sm, grid):
    """(row name, host, pattern) per flip grid entry."""
    for s, d, n, greedy in grid:
        shape, p = sm.Shape((n,) * d), sm.identity_pattern(d, s)
        if greedy:
            m = sm.greedy_saturate(p, shape, sm.cell_order(shape, GREEDY_SEED))
            yield f"I{s} on greedy {n}^{d}", m, p
        else:
            yield f"I{s} on layers {n}^{d}", sm.identity_layers(shape, s - 1), p


def anchored(side, flipped, p, zeros):
    """The anchored witness of each flipped host at its flipped cell."""
    search = side[0].anchored_contains
    return [e and e.selections for e in map(search, flipped, [p] * len(zeros), zeros)]


def tasks(side, grid, small: bool):
    """(row, figure) -> (a call that runs it once, its unit in seconds)."""
    out = {}
    for name, m, p in hosts(side[0], grid):
        out[name, "sweep"] = partial(verdicts, side, m, p, ALWAYS_SWEEP), 1e-3
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
    return out


def describe(side, grid, flip_grid, tables) -> dict[str, dict[str, object]]:
    """Per verdict row: its sizes, and the path the library takes by default;
    per long-table row: its sizes; per anchored row: its sizes, and the
    searches per flip."""
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
                reports[i][key] = call()
                took = (time.perf_counter() - start) / unit
                best[i][key] = min(best[i].get(key, took), took)
    for side_reports in reports:
        for (name, fig), rep in side_reports.items():
            if fig == "per_flip" and rep != side_reports[name, "sweep"]:
                raise Disagree(f"{name}: the sweep and per-flip reports differ")
            if fig == "anchored_us" and rep != reports[0][name, fig]:
                raise Disagree(f"{name}: the sides' anchored witnesses differ")
    return best


def summary(values: list[float]) -> dict[str, object]:
    q1, mid, q3 = spread(values)
    return {"median": mid, "quartiles": [q1, q3]}


def report(srcs, runs, described, rounds: int, repeat: int) -> dict[str, object]:
    """Per row and figure, each side's summary, and the second side's ratio."""
    rows, flips = [], []
    names = dict.fromkeys(name for name, _ in runs[0][0])
    for name in names:
        figures = [fig for row, fig in runs[0][0] if row == name]
        row: dict[str, object] = {"row": name}
        if name == "image_columns":
            row.update(host="4x4", pattern="I3", unit="us")
        else:
            row.update({k: v for k, v in described[0][name].items() if k != "chosen"})
            row["unit"] = "us" if figures == ["anchored_us"] else "ms"
        sides = []
        for src, side_runs, desc in zip(srcs, runs, described):
            side: dict[str, object] = {"src": str(src)}  # as given
            for fig in figures:
                side[fig] = summary([r[name, fig] for r in side_runs])
            if "chosen" in desc.get(name, {}):
                side["chosen"] = desc[name]["chosen"]
            sides.append(side)
        if len(srcs) == 2:
            for fig in figures:
                old, new = ([r[name, fig] for r in side_runs] for side_runs in runs)
                sides[1][fig]["ratio"] = round(
                    sides[1][fig]["median"] / sides[0][fig]["median"], 3)
                sides[1][fig]["rounds_faster"] = sum(b < a for a, b in zip(old, new))
        row["sides"] = sides
        (flips if figures == ["anchored_us"] else rows).append(row)
    return {"layer": "verdict", "rounds": rounds, "repeat": repeat,
            "environment": environment(), "rows": rows, "anchored": flips}


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
                described = [describe(side, grid, FLIP_GRID[args.small],
                                      LONG_TABLES[args.small]) for side in sides]
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
