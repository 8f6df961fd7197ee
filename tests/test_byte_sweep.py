"""tools/byte_sweep.py: one fixed command list through two source trees, digests compared."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "byte_sweep.py"


def test_a_tree_against_itself_differs_nowhere():
    run = subprocess.run(
        [sys.executable, str(TOOL), "--base-tree", str(ROOT), "--smoke"],
        capture_output=True, text=True, check=False,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "6 commands, 0 differ"


def test_a_changed_digest_is_reported(capsys):
    spec = importlib.util.spec_from_file_location("byte_sweep", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    base = {"bound --family uniform --n 3": "aa", "check-graph --family bow-tie": "bb"}
    assert tool.report(base, dict(base)) == 0
    assert tool.report(base, {**base, "check-graph --family bow-tie": "bc"}) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["DIFFERENT check-graph --family bow-tie", "2 commands, 1 differ"]
    # the same output gives the same digest, a changed exit code another
    assert tool.digest(("{}\n", "", 0)) == tool.digest(("{}\n", "", 0)) != tool.digest(("{}\n", "", 3))
