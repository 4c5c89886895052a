"""What the satmat benchmark measures, and what each measurement should show.

This module is the single source of the benchmark's definition: the
workloads and why each was chosen, the end-to-end metrics with their
regression bounds, the per-layer metrics, and the predictions of which
layer metric should move which end-to-end metric on which workload.
``python3 satbench/run.py --write-spec`` renders ``BENCHMARK.json`` from
it; the smoke tests check that the committed file matches.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "satbench/run.py"]
PATHS = ["satbench"]
RUN_SECONDS = 30

WORKLOADS = [
    (
        "verdict_sweep",
        "many small offset-block and corner-band hosts per (shape, pattern), so "
        "verdicts reuse selection tables: the work sits in constructions and "
        "saturation, almost none in exact",
    ),
    (
        "exact_oracles",
        "named ex/sat/ssat instances, C07 ssat growth and the table CLI: "
        "branch and bound dominates, constructions and verdicts are a small "
        "share",
    ),
    (
        "large_hosts",
        "a few large 2-D and 3-D hosts on both sides of the sweep/per-flip "
        "switch, every 0-cell flipped: each selection table is built once and "
        "used at most twice",
    ),
]

# (name, unit, better, bound).  ok_rate is 1 - error_rate: a metric that is
# 0 on a correct program cannot carry a relative bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.10),
    ("op_p50_ms", "ms", "lower", 0.10),
    ("op_p99_ms", "ms", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("ok_rate", "ratio", "higher", 0.01),
]

LAYERS = [
    "core",
    "containment",
    "saturation",
    "constructions",
    "classification",
    "exact",
    "cli",
]

CONSTRUCTIONS_TIMED = ["offset_block", "greedy_saturate", "identity_layers", "corner_block"]
CONTAINMENT_TIMED = ["contains", "anchored_contains"]
EXACT_QUANTITIES = ["ex", "sat", "ssat"]


def _per_layer() -> list[tuple[str, str, str]]:
    out: list[tuple[str, str, str]] = []
    for layer in LAYERS:
        out += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.busy_s", "s", "lower"),
            (f"{layer}.share", "ratio", "lower"),
        ]
    out += [(f"constructions.{f}.busy_s", "s", "lower") for f in CONSTRUCTIONS_TIMED]
    out += [
        ("constructions.cells_per_s", "1/s", "higher"),
        ("saturation.cold_calls", "count", "lower"),
        ("saturation.cold_busy_s", "s", "lower"),
        ("saturation.warm_busy_s", "s", "lower"),
        ("saturation.selections", "count", "lower"),
        ("saturation.selections_per_s", "1/s", "higher"),
    ]
    out += [(f"containment.{f}.busy_s", "s", "lower") for f in CONTAINMENT_TIMED]
    out += [
        ("containment.found_ratio", "ratio", "higher"),
        ("exact.nodes", "count", "lower"),
        ("exact.nodes_per_s", "1/s", "higher"),
    ]
    for q in EXACT_QUANTITIES:
        out += [(f"exact.{q}.busy_s", "s", "lower"), (f"exact.{q}.nodes", "count", "lower")]
    out += [
        ("exact.budget_exceeded", "count", "lower"),
        ("cli.exit_nonzero", "count", "lower"),
        ("trace_overhead_s", "s", "lower"),
    ]
    return out


PER_LAYER = _per_layer()

# Written down before any optimisation is measured: which end-to-end metric
# each layer metric should move, on which workloads, and where it should
# stay flat.  Busy times are self times, so cli.busy_s already excludes the
# exact and constructions spans a CLI call parents.
PREDICTIONS = [
    {
        "metric": "constructions.offset_block.busy_s",
        "moves": ["wall_s", "op_p50_ms"],
        "on": ["verdict_sweep"],
        "flat_on": ["exact_oracles"],
    },
    {
        "metric": "constructions.greedy_saturate.busy_s, constructions.identity_layers.busy_s, "
        "constructions.corner_block.busy_s, constructions.cells_per_s",
        "moves": ["wall_s"],
        "on": ["large_hosts", "exact_oracles (small share, via the sat incumbent and the table CLI)"],
        "flat_on": [],
    },
    {
        "metric": "saturation.cold_calls, saturation.cold_busy_s",
        "moves": ["wall_s", "peak_rss_mb", "op_p99_ms (verdict_sweep only: on large_hosts the "
                  "slowest 1% of ops are anchored flips)"],
        "on": ["large_hosts", "verdict_sweep"],
        "flat_on": [],
    },
    {
        "metric": "saturation.warm_busy_s",
        "moves": ["op_p50_ms"],
        "on": ["verdict_sweep"],
        "flat_on": [],
    },
    {
        "metric": "saturation.selections, saturation.selections_per_s",
        "moves": ["wall_s"],
        "on": ["verdict_sweep", "large_hosts"],
        "flat_on": [],
    },
    {
        "metric": "containment.contains.busy_s, containment.anchored_contains.busy_s, "
        "containment.found_ratio",
        "moves": ["wall_s", "op_p99_ms"],
        "on": ["large_hosts"],
        "flat_on": ["exact_oracles (little)"],
    },
    {
        "metric": "exact.nodes, exact.nodes_per_s, exact.{ex,sat,ssat}.busy_s, "
        "exact.{ex,sat,ssat}.nodes, exact.budget_exceeded",
        "moves": ["wall_s", "op_p99_ms"],
        "on": ["exact_oracles"],
        "flat_on": ["verdict_sweep"],
    },
    {
        "metric": "cli.exit_nonzero, cli.busy_s",
        "moves": ["wall_s"],
        "on": ["exact_oracles"],
        "flat_on": [],
    },
    {
        "metric": "core.busy_s",
        "moves": ["op_p50_ms"],
        "on": ["verdict_sweep"],
        "flat_on": [],
    },
    {
        "metric": "classification.busy_s",
        "moves": [],
        "on": [],
        "flat_on": ["verdict_sweep"],
    },
    {
        "metric": "trace_overhead_s",
        "moves": [],
        "on": [],
        "flat_on": ["verdict_sweep", "exact_oracles", "large_hosts"],
    },
]


def benchmark_json() -> str:
    """The text of BENCHMARK.json; its keys and their order are fixed."""
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
