"""tools/interleave.py: two source trees timed in one process, outputs compared bit for bit."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "interleave.py"


def test_outputs_are_compared_bit_for_bit():
    spec = importlib.util.spec_from_file_location("interleave", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    canon = tool.canon
    from spectral_tsp.solvers import Tour

    one = 1.0
    assert canon(Tour([0, 1, 2], one)) == canon(Tour([0, 1, 2], 1.0))
    assert canon(Tour([0, 1, 2], one)) != canon(Tour([0, 1, 2], np.nextafter(one, 2.0)))
    assert canon(Tour([0, 1, 2], one)) != canon(Tour([0, 2, 1], one))
    assert canon(np.zeros(3)) != canon(np.zeros(3, dtype=np.float32))
    assert canon(np.zeros(3)) != canon(-np.zeros(3))
    assert canon(ValueError("n")) == canon(ValueError("n")) != canon(TypeError("n"))


def test_a_tree_against_itself_reports_equal_outputs():
    run = subprocess.run(
        [sys.executable, str(TOOL), "--base-tree", str(ROOT), "--call", "solvers.brute_force",
         "--case", "instances.random_symmetric(6, s)", "--case", "instances.random_symmetric(13, s)",
         "--seeds", "0:2", "--rounds", "2"],
        capture_output=True, text=True, check=False,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    rows = run.stdout.splitlines()[2:]
    # brute_force raises TooLarge at n = 13 in both trees: the same error is an equal output
    assert len(rows) == 2 and all(row.split()[-1].endswith("/4") for row in rows)


def test_different_outputs_fail():
    run = subprocess.run(
        [sys.executable, str(TOOL), "--base-tree", str(ROOT), "--call", "lambda D: solvers.__name__",
         "--case", "instances.uniform_instance(4)", "--seeds", "0", "--rounds", "1"],
        capture_output=True, text=True, check=False,
    )
    assert run.returncode == 1 and "DIFFERENT OUTPUT" in run.stdout


def test_cli_mode_times_subprocesses_and_compares_their_output(tmp_path):
    argv = [sys.executable, str(TOOL), "--cli", "bound --family line --n 9", "--rounds", "2"]
    run = subprocess.run([*argv, "--base-tree", str(ROOT)], capture_output=True, text=True, check=False)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("new won ") and "/2 pairs" in run.stdout
    # each tree's median peak RSS, the child's own ru_maxrss: an interpreter
    # that has imported numpy holds more than 10 MB
    header, *rows = run.stdout.splitlines()[1:4]
    assert header.split()[-3:] == ["peak", "RSS", "MB"]
    assert [row.split()[0] for row in rows] == ["base", "new"]
    assert all(10.0 < float(row.split()[-1]) < 1000.0 for row in rows), rows
    # a base tree whose bound document differs by one byte fails the comparison
    shutil.copytree(ROOT / "src" / "spectral_tsp", tmp_path / "src" / "spectral_tsp")
    cli = tmp_path / "src" / "spectral_tsp" / "cli.py"
    cli.write_text(cli.read_text().replace('{"kind": "bound", "instance"', '{"kind": "bounds", "instance"', 1))
    run = subprocess.run([*argv, "--base-tree", str(tmp_path)], capture_output=True, text=True, check=False)
    assert run.returncode == 1 and "DIFFERENT OUTPUT" in run.stdout
