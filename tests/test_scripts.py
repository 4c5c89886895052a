import ast
import json
import re
import runpy
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_classify_universe_verify_smoke(capsys):
    main = runpy.run_path(str(SCRIPTS / "classify_universe.py"))["main"]
    argv = ["--max-2d", "2", "--max-3d", "1", "--verify", "--sample", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2D up to extent 2:" in out
    assert "unbounded growth spot checks: 3 ok" in out


def test_exact_dump_small(capsys):
    main = runpy.run_path(str(SCRIPTS / "exact_dump.py"))["main"]
    assert main(["--small"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "('ex', (4, 4), ((2, 2), 9), None, 7, 63624, 105)"
    calls = [ast.literal_eval(text) for text in lines]
    assert {c[0] for c in calls} == {"ex", "sat", "ssat"}
    # node-capped calls abort with their reason
    capped = [c for c in calls if c[3] == 1]
    assert capped and all(c[-1] == "node budget exceeded" for c in capped)


def test_exact_dump_small_without_nodes(capsys):
    main = runpy.run_path(str(SCRIPTS / "exact_dump.py"))["main"]
    assert main(["--small"]) == 0
    full = [ast.literal_eval(text) for text in capsys.readouterr().out.splitlines()]
    assert main(["--small", "--no-nodes"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "('ex', (4, 4), ((2, 2), 9), None, 7, 63624)"
    # the uncapped calls, each without its node count
    assert [ast.literal_eval(text) for text in lines] == [
        c[:-1] for c in full if c[3] is None
    ]


def test_verdict_dump_small(capsys):
    main = runpy.run_path(str(SCRIPTS / "verdict_dump.py"))["main"]
    assert main(["--small"]) == 0
    rows = [ast.literal_eval(text) for text in capsys.readouterr().out.splitlines()]
    assert rows[0][:2] == ("sweep", "sat")
    # every section, one after the other
    paths = [r[0] for r in rows]
    order = ["sweep", "per-flip", "rows", "large"]
    assert list(dict.fromkeys(paths)) == order and paths == sorted(paths, key=order.index)
    # each section answers every instance, the rows section after a search
    assert paths.count("sweep") == paths.count("per-flip") == paths.count("rows")
    assert [r[1:] for r in rows if r[0] == "rows"] == [r[1:] for r in rows if r[0] == "sweep"]
    # the larger per-flip hosts, 2-D and 3-D, some failing
    large = [r for r in rows if r[0] == "large"]
    assert {len(r[2][0]) for r in large} == {2, 3}
    assert {r[5] for r in large} == {None, "dead_flip", "contains_pattern"}
    # (path, verdict, host, pattern, verdict, failure kind, counterexample)
    assert all(len(r) == 7 and isinstance(r[4], bool) for r in rows)


def test_containment_dump_small(capsys):
    main = runpy.run_path(str(SCRIPTS / "containment_dump.py"))["main"]
    assert main(["--small"]) == 0
    rows = [ast.literal_eval(text) for text in capsys.readouterr().out.splitlines()]
    assert {r[0] for r in rows} == {"contains", "anchored", "potential", "greedy", "flip"}
    # ("contains", host, pattern, witness), ("anchored", host, pattern,
    # anchor, witness), ("potential", host, pattern, cell, entry, bool),
    # ("greedy", pattern, extents, seed, bits) and ("flip", host, pattern,
    # cell, witness)
    width = {"contains": 4, "anchored": 5, "potential": 6, "greedy": 5, "flip": 5}
    assert all(len(r) == width[r[0]] for r in rows)
    assert {len(r[1][0]) for r in rows} == {1, 2, 3, 4}
    assert {len(r[1][0]) for r in rows if r[0] == "flip"} == {3, 4}
    # both answers, in every dimension
    assert {r[5] for r in rows if r[0] == "potential"} == {False, True}
    assert {len(r[1][0]) for r in rows if r[0] == "potential"} == {1, 2, 3, 4}


def _files(directory):
    return {p: p.stat().st_mtime_ns for p in directory.rglob("*")}


def test_bench_pairs_smoke(tmp_path, capsys):
    # one pair of the repo against itself: every metric gets its line and
    # its figures in the JSON file, and no file under satbench/ is written
    root = SCRIPTS.parent
    before = _files(root / "satbench")
    main = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["main"]
    report = tmp_path / "bench.json"
    argv = [str(root), str(root), "--workload", "exact_oracles", "--pairs", "1",
            "--seconds", "0.2", "--smoke", "--json", str(report)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "pair 1 parent: " in out and "pair 1 change: " in out
    metrics = ("setup_s", "wall_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb", "ok_rate")
    for metric in metrics:
        assert re.search(rf"^  {metric} +\S+ \[\S+, \S+\] -> .* x\S+  [01]/1$", out, re.M), metric
    assert _files(root / "satbench") == before
    data = json.loads(report.read_text())
    assert (data["workload"], data["seed"], data["seconds"], data["pairs"]) == (
        "exact_oracles", 1, 0.2, 1)
    assert set(data["environment"]) == {"python", "nproc", "platform"}
    assert set(data["metrics"]) == set(metrics)
    for figures in data["metrics"].values():
        for side in ("parent", "change"):
            q1, q3 = figures[side]["quartiles"]
            assert q1 == figures[side]["median"] == q3 == figures[side]["runs"][0]
        assert figures["won"] in (0, 1)
    ok = data["metrics"]["ok_rate"]
    assert ok["ratio"] == 1.0 and ok["parent"]["median"] == 1.0


def test_bench_pairs_names_a_failed_run(tmp_path, capsys):
    # a checkout whose benchmark reports a wrong answer
    (tmp_path / "satbench").mkdir()
    (tmp_path / "satbench" / "run.py").write_text(
        'print(\'{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}\')\n'
    )
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 1, "end_to_end": []}')
    main = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["main"]
    assert main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "2"]) == 1
    assert "parent run of pair 1: the result is not correct" in capsys.readouterr().err


def test_bench_layers_small():
    # the repo's sources against themselves, in a process of their own, as
    # the script imports satmat afresh for every side
    src = str(SCRIPTS.parent / "src")
    out = subprocess.run([sys.executable, str(SCRIPTS / "bench_layers.py"), src, src,
                          "--small"], capture_output=True, text=True, check=True).stdout
    data = json.loads(out)
    assert (data["layer"], data["rounds"], data["repeat"]) == ("verdict", 1, 1)
    rows = {row["row"]: row for row in data["rows"]}
    assert set(rows) == {"I2 layers 6^2", "I3 layers 5^2", "I2 layers 3^3", "I2 offset 6^2",
                         "I2 offset 6^3", "image_columns", "image_columns 40",
                         "image_columns 2x12"}
    i2 = rows["I2 layers 6^2"]
    assert (i2["selections"], i2["cells"], i2["zeros"]) == (225, 36, 25)
    offset = rows["I2 offset 6^3"]
    assert (offset["selections"], offset["cells"], offset["zeros"]) == (3375, 216, 125)
    long = rows["image_columns 2x12"]
    assert (long["ones"], long["selections"], long["cells"], long["unit"]) == (2, 132, 24, "ms")
    for name, row in rows.items():
        first, second = row["sides"]
        assert first["src"] == second["src"] == src
        if name == "image_columns":
            figures = ["cold_us"]
        elif name.startswith("image_columns "):
            figures = ["cold_ms"]
        else:
            figures = ["sweep", "walk", "per_flip"]
        assert [k for k in first if k not in ("src", "chosen")] == figures
        for fig in figures:
            assert first[fig]["median"] > 0 and second[fig]["ratio"] > 0
            assert second[fig]["rounds_faster"] in (0, 1)
        if not name.startswith("image_columns"):
            # tiny tables: the library sweeps them
            assert first["chosen"] == second["chosen"] == "sweep"
    # the anchored rows: per flipped 0-cell, the searches of the entries
    # that can be pinned there
    flips = {row["row"]: row for row in data["anchored"]}
    assert set(flips) == {"I2 on layers 4^3", "I3 on greedy 6^2"}
    i2 = flips["I2 on layers 4^3"]
    assert (i2["entries"], i2["zeros"], i2["unit"]) == (2, 27, "us")
    for row in flips.values():
        first, second = row["sides"]
        assert 1 <= row["searches_per_flip"] <= row["entries"]
        assert first["anchored_us"]["median"] > 0 and second["anchored_us"]["ratio"] > 0
    # the per-flip verdict rows, with each side's kernel searches per verdict
    verdicts = {row["row"]: row for row in data["per_flip"]}
    assert set(verdicts) == {"is_semisaturating I2 on corner 7^2",
                             "is_semisaturating I3 on greedy 6^2",
                             "is_saturating I2 on layers 12^2"}
    corner = verdicts["is_semisaturating I2 on corner 7^2"]
    assert (corner["cells"], corner["zeros"], corner["unit"]) == (49, 45, "ms")
    for row in verdicts.values():
        first, second = row["sides"]
        assert [k for k in first if k != "src"] == ["verdict_ms", "searches"]
        assert first["verdict_ms"]["median"] > 0 and second["verdict_ms"]["ratio"] > 0
        # a search per 0-cell at most, and one more for is_saturating's contains
        assert 0 < first["searches"] == second["searches"] <= row["zeros"] + 1
    # the exact rows: a C07 ssat pass and its set-up, the verdicts on its
    # witnesses, a support walk, a sat search, with each side's nodes
    exact = {row["row"]: row for row in data["exact"]}
    assert set(exact) == {"exact_ssat C07 n=3", "is_semisaturating C07 n=3",
                          "_support_tables I2 4x4", "exact_sat I2 4x4"}
    c07 = exact["exact_ssat C07 n=3"]
    assert (c07["n"], c07["patterns"], c07["unit"]) == (3, 20, "ms")
    witness = exact["is_semisaturating C07 n=3"]
    assert (witness["n"], witness["patterns"], witness["unit"]) == (3, 20, "us")
    walk = exact["_support_tables I2 4x4"]
    assert (walk["selections"], walk["supports"], walk["unit"]) == (36, 72, "us")
    sat = exact["exact_sat I2 4x4"]
    assert (sat["value"], sat["unit"]) == (7, "ms")
    figures = {"exact_ssat C07 n=3": ["pass_ms", "setup_ms"],
               "is_semisaturating C07 n=3": ["after_us", "cold_us"],
               "_support_tables I2 4x4": ["walk_us"], "exact_sat I2 4x4": ["search_ms"]}
    for name, row in exact.items():
        first, second = row["sides"]
        assert [k for k in first if k.endswith(("_ms", "_us"))] == figures[name]
        for fig in figures[name]:
            assert first[fig]["median"] > 0 and second[fig]["ratio"] > 0
            assert second[fig]["rounds_faster"] in (0, 1)
    for row in (c07, sat):
        first, second = row["sides"]
        assert first["nodes"] == second["nodes"] > 0
    assert all(side["setup_share"] > 0 for side in c07["sides"])
    assert all(side["nodes_per_s"] > 0 for side in sat["sides"])
