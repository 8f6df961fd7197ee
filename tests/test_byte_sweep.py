"""tools/byte_sweep.py: one fixed command list through two source trees, digests compared."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "byte_sweep.py"


def _tool():
    spec = importlib.util.spec_from_file_location("byte_sweep", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_tree_against_itself_differs_nowhere():
    run = subprocess.run(
        [sys.executable, str(TOOL), "--base-tree", str(ROOT), "--smoke"],
        capture_output=True, text=True, check=False,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "6 commands, 0 differ"


def test_a_changed_digest_is_reported(capsys):
    tool = _tool()
    base = {"bound --family uniform --n 3": "aa", "check-graph --family bow-tie": "bb"}
    assert tool.report(base, dict(base)) == 0
    assert tool.report(base, {**base, "check-graph --family bow-tie": "bc"}) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["DIFFERENT check-graph --family bow-tie", "2 commands, 1 differ"]
    # the same output gives the same digest, a changed exit code another
    assert tool.digest(("{}\n", "", 0)) == tool.digest(("{}\n", "", 0)) != tool.digest(("{}\n", "", 3))


def test_one_thread_count_against_itself_differs_nowhere():
    run = subprocess.run(
        [sys.executable, str(TOOL), "--smoke", "--threads", "1,1"],
        capture_output=True, text=True, check=False,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "6 commands, 1 vs 1 threads: 0 differ in bytes, 0 in decisions"


def test_decisions_leave_out_float_digits():
    tool = _tool()
    doc = '{"connected": true, "hamiltonian": {"value": %s, "verdict": "%s", "saturated": true}, "distance": null}\n'
    base = tool.decisions((doc % ("4.53e-14", "excluded"), "", 0))
    assert base == [0, "", ("0.connected", True), ("0.hamiltonian.verdict", "excluded"),
                    ("0.hamiltonian.saturated", True), ("0.distance", None)]
    assert tool.decisions((doc % ("1.73e-14", "excluded"), "", 0)) == base
    assert tool.decisions((doc % ("1.73e-14", "not_excluded"), "", 0)) != base
    assert tool.decisions(("", "error: bad\n", 2)) == [2, "error: bad\n"]
