"""Run one satmat benchmark workload, check every answer, print the metrics.

Run from the root of a checkout:

    python3 satbench/run.py --workload verdict_sweep --seed 1 --seconds 30 --trace 0
    python3 satbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 satbench/run.py --workload large_hosts --seed 1 --seconds 2 --trace 1 --smoke
    python3 satbench/run.py --write-spec

A run is one process, one thread and a closed loop of one caller.  It repeats
rounds until ``--seconds`` have passed (at least one round; two when traced).
Each round imports satmat afresh, builds the workload's question set from
the seed (the set-up, timed as ``setup_s``), then answers the whole set (the
timed phase, ``wall_s``).  A fresh import per round gives every round the same
cold caches.  End-to-end metrics are medians over rounds, with op latencies
pooled over rounds; ``peak_rss_mb`` is read after the first round, so it does
not grow with the number of rounds a fast machine fits in.  With
``--trace 1`` every second round is traced, the per-layer metrics are medians
over the traced rounds, and ``trace_overhead_s`` is the traced minus the
untraced median ``wall_s``.

The machine this runs on is shared, and its speed drifts by tens of percent
over seconds to minutes.  A speed probe (``speed.py``) samples a fixed
reference kernel every 0.05 s during each pass and around each set-up;
every reported time is the measured time, without the samples, scaled by
the speed factors of the samples taken during it: seconds on a machine where
the kernel takes 1 ms.  The info line keeps each round's factor, so a noisy
machine can be seen.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the round and op counts and any failed ops.  Traced runs write
their spans to ``.satbench/spans-<workload>.jsonl`` in the checkout.
``--workload all`` runs every workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spec
import tracing
import workloads
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".satbench"
MIN_SETUPS = 5
MAX_FAILURES_SHOWN = 20


def fresh_import():
    """Import satmat (and its CLI) from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "satmat" or n.startswith("satmat.")]:
        del sys.modules[name]
    sm = importlib.import_module("satmat")
    importlib.import_module("satmat.cli")
    if SRC.resolve() not in Path(sm.__file__).resolve().parents:
        raise ImportError(f"satmat was imported from {sm.__file__}, not from {SRC}")
    return sm


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return " ".join(f"{x:.2f}" for x in os.getloadavg())


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "loadavg_start": loadavg(),
    }


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024 * 1024) if sys.platform == "darwin" else rss / 1024


def run_pass(sm, ops, tracer):
    """Answer every op once, with the speed probe running.

    Returns (wall_s, latencies, speeds, failures, factor): the pass's time
    and each op's time, both scaled to the reference machine and without the
    probe's samples, each op's speed factor and the pass's.
    """
    clock = time.perf_counter
    raw: list[float] = []
    intervals: list[tuple[float, float]] = []
    failures = []
    with SpeedProbe() as probe:
        start, spent0 = clock(), probe.spent
        for i, (kind, op) in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(i, kind)
            t0, s0 = clock(), probe.spent
            try:
                op()
            except Exception as err:  # every failure is recorded, none stops the run
                failures.append(
                    {
                        "op": i,
                        "kind": kind,
                        "error": f"{type(err).__name__}: {err}"[:300],
                        "nodes": getattr(err, "nodes", None)
                        if isinstance(err, sm.BudgetExceededError)
                        else None,
                    }
                )
            t1, s1 = clock(), probe.spent
            if tracer is not None:
                tracer.end_op()
            raw.append(t1 - t0 - (s1 - s0))
            intervals.append((t0, t1))
        end, spent1 = clock(), probe.spent
    if tracer is not None:
        tracer.add_probes(probe.starts, probe.ends)
    speeds = [probe.factor(t0, t1) for t0, t1 in intervals]
    factor = probe.factor(start, end)
    wall = (end - start - (spent1 - spent0)) * factor
    return wall, [t * f for t, f in zip(raw, speeds)], speeds, failures, factor


def timed_setup(build, seed: int, smoke: bool):
    """Fresh import plus question set; returns (sm, ops, scaled seconds)."""
    with SpeedProbe() as probe:
        t0, s0 = time.perf_counter(), probe.spent
        sm = fresh_import()
        ops = build(sm, seed, smoke)
        t1, s1 = time.perf_counter(), probe.spent
    return sm, ops, (t1 - t0 - (s1 - s0)) * probe.factor(t0, t1)


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    env = environment(seed)
    build = workloads.BUILDERS[name]
    clock = time.perf_counter
    deadline = clock() + seconds
    setups: list[float] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    factors: list[float] = []
    latencies: list[float] = []
    failures: list[dict] = []
    layer_rounds: list[dict] = []
    traced_spans: list[tuple[int, list]] = []
    attempted = ops_per_round = 0
    round_no = 0
    while True:
        traced = trace and round_no % 2 == 1
        sm, ops, setup = timed_setup(build, seed, smoke)
        setups.append(setup)
        tracer = None
        if traced:
            tracer = tracing.Tracer(sm)
            tracing.instrument(sm, tracer)
        gc.collect()
        wall, lat, speeds, fails, factor = run_pass(sm, ops, tracer)
        if round_no == 0:
            # later rounds add only the benchmark's own records
            peak_rss = peak_rss_mb()
        walls[traced].append(wall)
        factors.append(factor)
        if not traced:
            latencies += lat
        for f in fails:
            failures.append({"round": round_no, **f})
        attempted += len(ops)
        ops_per_round = len(ops)
        if tracer is not None:
            layer_rounds.append(tracing.layer_metrics(tracer.spans, wall, speeds))
            traced_spans.append((round_no, tracer.spans))
        del sm, ops, tracer
        gc.collect()
        round_no += 1
        if clock() >= deadline and round_no >= (2 if trace else 1):
            break
    while len(setups) < MIN_SETUPS:
        sm, _, setup = timed_setup(build, seed, smoke)
        setups.append(setup)
        del sm
        gc.collect()

    failed = len({(f["round"], f["op"]) for f in failures})
    if trace:
        metrics = tracing.median_metrics(layer_rounds)
        metrics["trace_overhead_s"] = median(walls[True]) - median(walls[False])
        units = {n: u for n, u, _ in spec.PER_LAYER}
    else:
        latencies.sort()
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(walls[False]),
            "op_p50_ms": median(latencies) * 1e3,
            "op_p99_ms": quantile(latencies, 0.99) * 1e3,
            "peak_rss_mb": peak_rss,
            "ok_rate": (attempted - failed) / attempted,
        }
        units = {n: u for n, u, _, _ in spec.END_TO_END}
    env["loadavg_end"] = loadavg()

    spans_file = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{name}.jsonl"
        with open(spans_file, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": name, "env": env}) + "\n")
            for r, spans in traced_spans:
                for rec in tracing.span_records(spans, r):
                    fh.write(json.dumps(rec) + "\n")

    info = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "env": env,
        "rounds": round_no,
        "traced_rounds": len(layer_rounds),
        "ops_per_round": ops_per_round,
        "latency_samples": len(latencies),
        "setups": len(setups),
        "error_rate": failed / attempted,
        "speed_factor_per_round": factors,
        "failures": failures[:MAX_FAILURES_SHOWN],
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
    }
    print(json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in workloads.BUILDERS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"# {name}", flush=True)
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="satmat benchmark")
    parser.add_argument("--workload", choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny question sets, for tests")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json(), encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        fresh_import()
    except ImportError as err:
        print(f"cannot import satmat from {SRC}: {err}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
