"""tools/loc.py: every line of each package module is counted in exactly one class."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "loc.py"


def _tool():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_each_module_total_is_its_line_count():
    tool = _tool()
    modules = sorted((ROOT / "src" / "spectral_tsp").glob("*.py"))
    assert modules
    for path in modules:
        c = tool.count(path)
        assert c["lines"] == len(path.read_text().splitlines()), path.name
        assert sum(c[kind] for kind in tool.KINDS) == c["lines"], path.name


def test_lines_are_classified():
    source = (
        '"""Module\ndocstring."""\n\n# a comment\nx = """two\n\nlines"""  # trailing\n\n\n'
        'def f():\n    """Doc."""\n    return x\n'
    )
    assert _tool().classify(source) == [
        "docstring", "docstring", "blank", "comment", "code", "code", "code", "blank", "blank",
        "code", "docstring", "code",
    ]


def test_prints_one_row_per_module_and_a_total():
    run = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, check=True)
    rows = run.stdout.splitlines()
    assert rows[0].split() == ["module", "lines", "code", "docstring", "comment", "blank"]
    names = [row.split()[0] for row in rows[1:]]
    assert names[-1] == "total" and "bounds.py" in names
    total = [int(x) for x in rows[-1].split()[1:]]
    assert total[0] == sum(total[1:])
