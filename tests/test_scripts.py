import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_classify_universe_verify_smoke(capsys):
    main = runpy.run_path(str(SCRIPTS / "classify_universe.py"))["main"]
    argv = ["--max-2d", "2", "--max-3d", "1", "--verify", "--sample", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2D up to extent 2:" in out
    assert "unbounded growth spot checks: 3 ok" in out
