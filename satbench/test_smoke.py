"""Smoke tests for the benchmark: every workload at a tiny size.

Run from the root of a checkout:

    python3 -m pytest -q satbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

WORKLOADS = [name for name, _ in spec.WORKLOADS]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "satbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    out = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--smoke",
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == json.loads(spec.benchmark_json())


def test_spec_within_contract_limits():
    names = [n for n, _ in spec.WORKLOADS]
    names += [m[0] for m in spec.END_TO_END] + [m[0] for m in spec.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    assert all(UNIT_RE.match(m[1]) for m in spec.END_TO_END + spec.PER_LAYER)
    assert all(len(why) <= 200 and "\n" not in why for _, why in spec.WORKLOADS)
    bounds = {m[0]: m[3] for m in spec.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(spec.WORKLOADS) <= 8 and 1 <= spec.RUN_SECONDS <= 60


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    info, result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("python", "nproc", "platform", "seed", "loadavg_start", "loadavg_end"):
        assert key in info["env"]
    assert info["error_rate"] == 0


def _check_round(spans: list[dict]) -> None:
    by_id = {s["id"]: s for s in spans}
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    op_total = op_own = layer_busy = probe = 0.0
    for s in spans:
        if s["layer"] == "op":
            assert s["parent"] is None
            op_total += s["end"] - s["start"]
            op_own += own[s["id"]]
            continue
        parent = by_id[s["parent"]]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        assert s["op"] == parent["op"] >= 0
        if s["layer"] == "probe":
            probe += s["end"] - s["start"]
        else:
            layer_busy += own[s["id"]]
    assert layer_busy > 0
    # layer self times, the benchmark's own check code and the speed-probe
    # samples together account for the ops' whole time
    assert layer_busy + op_own + probe == pytest.approx(op_total, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_spans(workload):
    info, result = smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    units = {name: unit for name, unit, _ in spec.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert info["traced_rounds"] >= 1

    rounds: dict[int, list[dict]] = defaultdict(list)
    with open(ROOT / info["spans_file"], encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        assert header["workload"] == workload
        for line in fh:
            rec = json.loads(line)
            rounds[rec["round"]].append(rec)
    assert len(rounds) == info["traced_rounds"]
    for spans in rounds.values():
        _check_round(spans)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "satbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
