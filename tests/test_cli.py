import json
import sys

import pytest

from satmat import Matrix01, Shape, format_01m, identity_pattern, parse_01m
from satmat.cli import main
from satmat.core import _STACK_RESERVE

I2 = identity_pattern(2, 2)


@pytest.fixture
def files(tmp_path):
    def write(name, matrix):
        path = tmp_path / name
        path.write_text(format_01m(matrix))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestContains:
    def test_found(self, files, capsys):
        host = files("m.01m", Matrix01.from_ones(Shape((3, 3)), [(1, 1), (2, 3), (3, 2)]))
        pat = files("p.01m", I2)
        code, out, _ = run(capsys, ["contains", host, pat])
        assert code == 0
        payload = json.loads(out)
        assert payload["format_version"] == 1
        assert payload["found"] is True
        assert payload["selections"] == [[1, 2], [1, 3]]

    def test_not_found(self, files, capsys):
        host = files("m.01m", Matrix01.zeros(Shape((3, 3))))
        pat = files("p.01m", I2)
        code, out, _ = run(capsys, ["contains", host, pat])
        assert code == 1
        assert json.loads(out)["found"] is False

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.01m"
        bad.write_text("dims: 2 2\n10")
        pat = tmp_path / "p.01m"
        pat.write_text(format_01m(I2))
        code, _, err = run(capsys, ["contains", str(bad), str(pat)])
        assert code == 2
        assert json.loads(err)["status"] == "error"

    def test_missing_file(self, files, capsys):
        pat = files("p.01m", I2)
        code, _, err = run(capsys, ["contains", "/nonexistent.01m", pat])
        assert code == 2


class TestVerify:
    def test_sat_true(self, files, capsys):
        m = Matrix01.from_ones(Shape((2, 2)), [(1, 2), (2, 1), (2, 2)])
        code, out, _ = run(capsys, ["verify", "sat", files("m.01m", m), files("p.01m", I2)])
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_sat_dead_flip(self, files, capsys):
        m = Matrix01.zeros(Shape((3, 3)))
        code, out, _ = run(capsys, ["verify", "sat", files("m.01m", m), files("p.01m", I2)])
        assert code == 1
        payload = json.loads(out)
        assert payload["failure_kind"] == "dead_flip"
        assert payload["counterexample"] == {"coord": [1, 1]}

    def test_sat_contains(self, files, capsys):
        m = Matrix01.filled(Shape((2, 2)))
        code, out, _ = run(capsys, ["verify", "sat", files("m.01m", m), files("p.01m", I2)])
        assert code == 1
        payload = json.loads(out)
        assert payload["failure_kind"] == "contains_pattern"
        assert payload["counterexample"] == {"selections": [[1, 2], [1, 2]]}

    def test_ssat_true(self, files, capsys):
        m = Matrix01.from_ones(Shape((5, 5)), [(1, 1), (1, 5), (5, 1), (5, 5)])
        code, out, _ = run(capsys, ["verify", "ssat", files("m.01m", m), files("p.01m", I2)])
        assert code == 0
        assert json.loads(out)["verdict"] is True


# the containment kernel recurses once per dimension; deeper inputs are
# refused as input errors
@pytest.mark.parametrize("command", [["contains"], ["verify", "sat"], ["verify", "ssat"]])
def test_dimension_ceiling(files, capsys, command):
    d = sys.getrecursionlimit() - _STACK_RESERVE + 1
    unit = files("unit.01m", Matrix01.filled(Shape((1,) * d)))
    code, out, err = run(capsys, [*command, unit, unit])
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["status"] == "error"
    assert "recursion ceiling" in payload["reason"]
    assert "Traceback" not in err


class TestConstruct:
    def test_identity_layers(self, capsys):
        code, out, _ = run(
            capsys, ["construct", "--kind", "identity-layers", "--shape", "4", "4", "--k", "1"]
        )
        assert code == 0
        m = parse_01m(out)
        assert m.weight == 7

    def test_greedy_with_seed(self, files, capsys):
        pat = files("p.01m", I2)
        code, out, _ = run(
            capsys,
            ["--seed", "7", "construct", "--kind", "greedy", "--pattern", pat, "--shape", "3", "3"],
        )
        assert code == 0
        assert parse_01m(out).weight == 5

    def test_offset_block_json(self, files, capsys):
        pat = files("p.01m", I2)
        code, out, _ = run(
            capsys,
            ["--json", "construct", "--kind", "offset-block", "--pattern", pat, "--n", "4"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix"]["weight"] == 7
        assert payload["matrix"]["dims"] == [4, 4]

    def test_corner_block_to_file(self, files, capsys, tmp_path):
        pat = files("p.01m", I2)
        out_path = tmp_path / "out.01m"
        code, _, _ = run(
            capsys,
            ["construct", "--kind", "corner-block", "--pattern", pat, "--n", "5", "-o", str(out_path)],
        )
        assert code == 0
        assert parse_01m(out_path.read_text()).weight == 4

    def test_host_over_cell_cap_is_input_error(self, files, capsys):
        # 4097**2 cells is just over DEFAULT_CELL_LIMIT; refused unbuilt
        pat = files("p.01m", I2)
        code, out, err = run(
            capsys, ["construct", "--kind", "corner-block", "--pattern", pat, "--n", "4097"]
        )
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["status"] == "error"
        assert "exceeds the cap" in payload["reason"]

    @pytest.mark.parametrize(
        "args",
        [
            ["--kind", "greedy", "--shape", "4097", "4097"],
            ["--kind", "identity-layers", "--shape", "4097", "4097", "--k", "1"],
            ["--kind", "offset-block", "--n", "4097"],
            ["--kind", "corner-block", "--n", "4097"],
        ],
    )
    def test_cap_reason_has_no_override_advice(self, files, capsys, monkeypatch, args):
        # a missing check would fail here instead of listing 16.8M cells
        monkeypatch.setattr(Shape, "cells", lambda self: pytest.fail("cells listed"))
        pat = files("p.01m", I2)
        code, out, err = run(capsys, ["construct", *args, "--pattern", pat])
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["status"] == "error"
        assert "exceeds the cap" in payload["reason"]
        assert "cell_limit" not in payload["reason"]

    def test_greedy_nonfitting_is_input_error(self, files, capsys):
        pat = files("p.01m", identity_pattern(2, 3))
        code, _, err = run(
            capsys, ["construct", "--kind", "greedy", "--pattern", pat, "--shape", "2", "2"]
        )
        assert code == 2

    def test_missing_flags(self, files, capsys):
        code, _, err = run(capsys, ["construct", "--kind", "greedy"])
        assert code == 2


class TestClassify:
    def test_bounded(self, files, capsys):
        code, out, _ = run(capsys, ["classify", files("p.01m", I2)])
        assert code == 0
        payload = json.loads(out)
        assert payload["bounded"] is True
        assert payload["witness_entry"] == [1, 1]

    def test_unbounded_reports_face(self, files, capsys):
        p = Matrix01.from_nested([[1, 0], [0, 0]])
        code, out, _ = run(capsys, ["classify", files("p.01m", p)])
        assert code == 1
        payload = json.loads(out)
        assert payload["bounded"] is False
        assert payload["failing_face"] == {"fixed": [[1, 2]]}

    def test_one_cell_pattern_of_many_dimensions(self, files, capsys):
        # 2^1000 - 2 faces: answered without walking them
        p = Matrix01.filled(Shape((1,) * 1000))
        code, out, _ = run(capsys, ["classify", files("p.01m", p)])
        assert code == 0
        assert json.loads(out)["bounded"] is True


class TestExact:
    def test_values(self, files, capsys):
        pat = files("p.01m", I2)
        for quantity, want in (("ex", 5), ("sat", 5), ("ssat", 4)):
            code, out, _ = run(
                capsys, ["exact", quantity, "--shape", "3", "3", "--pattern", pat]
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["value"] == want
            assert payload["status"] == "ok"
            witness = payload["witness"]
            assert witness["dims"] == [3, 3]
            assert witness["cells"].count("1") == want

    def test_budget_exceeded(self, files, capsys):
        pat = files("p.01m", I2)
        code, out, _ = run(
            capsys,
            ["--budget-cells", "4", "exact", "ex", "--shape", "3", "3", "--pattern", pat],
        )
        assert code == 3
        assert json.loads(out)["status"] == "budget_exceeded"

    def test_budget_exceeded_reports_bounds(self, files, capsys):
        pat = files("p.01m", I2)
        # I2 on 7x7 has two forced corners and sat 13; the search takes
        # seconds, so the time budget runs out in the branch and bound
        code, out, _ = run(
            capsys,
            ["exact", "sat", "--shape", "7", "7", "--pattern", pat,
             "--budget-cells", "49", "--budget-seconds", "0.3"],
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["format_version"] == 1
        assert payload["status"] == "budget_exceeded"
        assert payload["value"] is None
        bounds = payload["bounds"]
        assert bounds["lower"] == 2
        assert bounds["upper"] is None or bounds["upper"] >= 13
        # an expired budget stops on the first node, before any bound exists
        code, out, _ = run(
            capsys,
            ["exact", "ex", "--shape", "3", "3", "--pattern", pat, "--budget-seconds", "0"],
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["value"] is None and payload["bounds"] is None
        assert payload["nodes"] == 1

    def test_support_cap(self, files, capsys):
        pat = files("p.01m", identity_pattern(2, 3))
        code, out, _ = run(
            capsys,
            ["exact", "sat", "--shape", "28", "28", "--pattern", pat, "--budget-cells", "784"],
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["status"] == "budget_exceeded"
        assert payload["bounds"] is None
        assert "enumeration cap" in payload["reason"]

    def test_recursion_ceiling(self, files, capsys):
        n = str(sys.getrecursionlimit() - _STACK_RESERVE + 1)
        unit = files("unit.01m", Matrix01.from_nested([[1]]))
        pat = files("p.01m", I2)
        for quantity, p in (("ex", unit), ("sat", pat), ("ssat", pat)):
            code, out, err = run(
                capsys,
                ["exact", quantity, "--shape", "1", n, "--pattern", p, "--budget-cells", n],
            )
            assert code == 3
            payload = json.loads(out)
            assert payload["status"] == "budget_exceeded"
            assert "recursion" in payload["reason"]
            assert "Traceback" not in err


class TestStaircases:
    def test_extract(self, files, capsys):
        m = Matrix01.from_ones(Shape((2, 2)), [(1, 2), (2, 1), (2, 2)])
        code, out, _ = run(capsys, ["staircases", "extract", files("m.01m", m)])
        assert code == 0
        payload = json.loads(out)
        assert payload["coords"] == [[1, 2], [2, 1], [2, 2]]

    def test_extract_absent(self, files, capsys):
        m = Matrix01.zeros(Shape((2, 2)))
        code, out, _ = run(capsys, ["staircases", "extract", files("m.01m", m)])
        assert code == 1

    def test_decompose(self, files, capsys):
        from satmat import identity_layers

        m = identity_layers(Shape((4, 4)), 2)
        code, out, _ = run(
            capsys, ["staircases", "decompose", files("m.01m", m), "--k", "2"]
        )
        assert code == 0
        assert json.loads(out)["weights"] == [7, 5]

    def test_decompose_failure(self, files, capsys):
        m = Matrix01.zeros(Shape((2, 2)))
        code, out, _ = run(capsys, ["staircases", "decompose", files("m.01m", m), "--k", "1"])
        assert code == 1


class TestTable:
    def test_identity_sweep_csv(self, capsys):
        code, out, _ = run(
            capsys, ["table", "--d", "2", "--k", "1", "--n-lo", "2", "--n-hi", "6"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# format_version=1"
        assert lines[1] == "n,closed_form,greedy_weight,layers_weight,oracle_sat,oracle_ex"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[1] for r in rows] == ["3", "5", "7", "9", "11"]
        assert [r[2] for r in rows] == ["3", "5", "7", "9", "11"]
        assert [r[3] for r in rows] == ["3", "5", "7", "9", "11"]
        # oracle columns computed within the default 16-cell budget
        assert [r[4] for r in rows] == ["3", "5", "7", "skipped", "skipped"]
        assert [r[5] for r in rows] == ["3", "5", "7", "skipped", "skipped"]

    def test_cube_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            ["--budget-cells", "8", "table", "--d", "3", "--k", "1", "--n-lo", "2", "--n-hi", "4"],
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert [r[1] for r in rows] == ["7", "19", "37"]
        assert [r[4] for r in rows] == ["7", "skipped", "skipped"]

    def test_json_table(self, capsys):
        code, out, _ = run(
            capsys,
            ["--json", "table", "--d", "2", "--k", "2", "--n-lo", "3", "--n-hi", "4"],
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["closed_form"] for r in payload["rows"]] == [8, 12]

    def test_bad_range(self, capsys):
        code, _, err = run(
            capsys, ["table", "--d", "2", "--k", "2", "--n-lo", "2", "--n-hi", "4"]
        )
        assert code == 2
