#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload exact_oracles \\
        [--pairs 10] [--seed 1] [--seconds 30] [--smoke] [--json PATH]

Each pair runs ``satbench/run.py`` of both checkouts once, one process at a
time, from the root of that checkout; odd pairs run the parent first and
even pairs the change.  Bytecode goes to a temporary cache per side, so no
file in either checkout changes.  ``--seconds`` defaults to the
``run_seconds`` of the change's ``BENCHMARK.json``.

One line is printed per run.  Then, for each end-to-end metric of the
change's ``BENCHMARK.json``, the line gives each side's median and
quartiles, the ratio of the change's median to the parent's, and the number
of pairs in which the change was strictly better, by the metric's
``better``.  ``--json`` also writes these figures to PATH, with each run's
value, the workload, seed, seconds and pairs, and the environment (Python,
``nproc``, platform).  The exit status is 1, naming the side and the pair,
if a run exits non-zero, if its last line is not a result, or if the
result has ``"correct": false``.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

SIDES = ("parent", "change")


class RunFailed(Exception):
    pass


def run_once(root: Path, side: str, pair: int, args, cache: str) -> dict[str, float]:
    """One benchmark run of the checkout at ``root``: its metric values."""
    cmd = [sys.executable, "satbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=False)
    where = f"{side} run of pair {pair}"
    if out.returncode != 0:
        raise RunFailed(f"{where} exited {out.returncode}: {out.stderr.strip()[-500:]}")
    lines = out.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, TypeError, KeyError, AttributeError):
        raise RunFailed(f"{where}: the last line is not a result") from None
    if result.get("correct") is not True:
        raise RunFailed(f"{where}: the result is not correct: {lines[-1]}")
    return metrics


def spread(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, median(values), q3


def environment() -> dict[str, object]:
    """The interpreter, the usable processors and the platform of this run."""
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(usable) if usable else os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json", type=Path, help="also write the figures to this file")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    roots = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    runs: dict[str, list[dict[str, float]]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                try:
                    metrics = run_once(roots[side], side, pair, args, f"{tmp}/{side}")
                except RunFailed as err:
                    print(err, file=sys.stderr)
                    return 1
                runs[side].append(metrics)
                shown = " ".join(f"{k} {v:.4g}" for k, v in metrics.items())
                print(f"pair {pair} {side}: {shown}", flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s:"
          " median [quartiles] parent -> change, ratio, pairs the change won")
    figures = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        old, new = ([run[name] for run in runs[side]] for side in SIDES)
        (o1, om, o3), (n1, nm, n3) = spread(old), spread(new)
        won = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        figures[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": {"median": om, "quartiles": [o1, o3], "runs": old},
            "change": {"median": nm, "quartiles": [n1, n3], "runs": new},
            "ratio": nm / om if om else None,
            "won": won,
        }
        ratio = f"{nm / om:.3f}" if om else "-"
        print(f"  {name:<12} {om:.4g} [{o1:.4g}, {o3:.4g}] -> {nm:.4g} [{n1:.4g}, {n3:.4g}]"
              f"  x{ratio}  {won}/{args.pairs}")
    if args.json:
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "pairs": args.pairs, "smoke": args.smoke, "environment": environment(),
                  "metrics": figures}
        args.json.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
