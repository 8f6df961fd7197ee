import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as stn

from spectral_tsp import cli, graphs, tsplib
from spectral_tsp.errors import InputFormatError

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures" / "tsplib"

BOUND_KEYS = [
    "kind", "instance", "symmetric", "normal", "psd", "phi", "phi_symmetric",
    "phi_normal", "phi_general", "n2", "euclidean_floor", "mean_distance",
    "mu", "optimum", "ratio", "timing_ms",
]


def run_cli(*args: str, env_extra: dict | None = None):
    env = os.environ.copy()
    env.pop("SPECTRAL_TSP_TOL", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "spectral_tsp.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


def doc_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) == 1
    return json.loads(lines[0])


def test_bound_family_circle():
    doc = doc_of(run_cli("bound", "--family", "circle", "--n", "12"))
    assert list(doc.keys()) == BOUND_KEYS
    assert doc["kind"] == "bound"
    assert doc["instance"]["n"] == 12
    assert abs(doc["phi"] - 12.0) < 1e-6
    assert doc["psd"] is True
    assert doc["timing_ms"] is None
    assert doc["optimum"] is None and doc["ratio"] is None


def test_bound_fixture_with_sidecar_ratio():
    doc = doc_of(
        run_cli(
            "bound",
            str(FIXTURES / "gr17.tsp"),
            "--sidecar",
            str(FIXTURES / "gr17.opt"),
        )
    )
    assert doc["optimum"] == 2085.0
    assert abs(doc["ratio"] - 0.591) < 2e-3
    assert doc["psd"] is True


def test_bound_output_is_byte_deterministic():
    a = run_cli("bound", "--family", "random-symmetric", "--n", "9", "--seed", "7")
    b = run_cli("bound", "--family", "random-symmetric", "--n", "9", "--seed", "7")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_timing_flag_only_touches_timing_field():
    plain = doc_of(run_cli("bound", "--family", "circle", "--n", "8"))
    timed = doc_of(run_cli("bound", "--family", "circle", "--n", "8", "--timing"))
    assert plain["timing_ms"] is None
    assert isinstance(timed["timing_ms"], (int, float))
    del plain["timing_ms"], timed["timing_ms"]
    assert plain == timed


def test_pretty_goes_to_stderr_only():
    plain = run_cli("bound", "--family", "circle", "--n", "8")
    pretty = run_cli("bound", "--family", "circle", "--n", "8", "--pretty")
    assert pretty.stdout == plain.stdout
    assert plain.stderr == "" and pretty.stderr != ""


def test_solve_brute_on_line():
    doc = doc_of(run_cli("solve", "--family", "line", "--n", "8", "--method", "brute"))
    assert doc["kind"] == "solve"
    assert doc["length"] == 14.0
    assert doc["order"][0] == 0 and sorted(doc["order"]) == list(range(8))


def test_solve_held_karp_against_sidecar():
    doc = doc_of(
        run_cli(
            "solve",
            str(FIXTURES / "gr17.tsp"),
            "--sidecar",
            str(FIXTURES / "gr17.opt"),
            "--method",
            "held-karp",
        )
    )
    assert doc["length"] == 2085.0
    assert doc["optimum"] == 2085.0


def test_solve_two_opt_circle_reaches_optimum():
    doc = doc_of(run_cli("solve", "--family", "circle", "--n", "25", "--method", "two-opt"))
    assert doc["length"] == pytest.approx(25.0)


def test_check_graph_family_and_file_agree(tmp_path):
    fam = doc_of(run_cli("check-graph", "--family", "bow-tie"))
    assert fam["hamiltonian"]["verdict"] == "excluded"
    assert abs(fam["hamiltonian"]["value"] - 0.658) < 1e-3
    assert fam["traceable"]["verdict"] == "not_excluded"

    f = tmp_path / "bt.txt"
    f.write_text("5\n0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n")
    from_file = doc_of(run_cli("check-graph", str(f)))
    for key in ("connected", "regular", "hamiltonian", "traceable", "distance_hamiltonian"):
        assert from_file[key] == fam[key]


def test_check_graph_disconnected_reports_null_distance_screen(tmp_path):
    f = tmp_path / "two_triangles.txt"
    f.write_text("6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    doc = doc_of(run_cli("check-graph", str(f)))
    assert doc["connected"] is False
    assert doc["distance_hamiltonian"] is None
    assert doc["hamiltonian"]["verdict"] == "excluded"


def test_tolerance_env_var_and_flag(tmp_path):
    # K_{3,2} sits 0.658 above the cycle threshold; a huge tolerance
    # swallows that margin, and the flag must beat the environment
    strict = doc_of(run_cli("check-graph", "--family", "complete-bipartite", "--n", "3", "--m", "2"))
    assert strict["hamiltonian"]["verdict"] == "excluded"
    loose = doc_of(
        run_cli(
            "check-graph", "--family", "complete-bipartite", "--n", "3", "--m", "2",
            env_extra={"SPECTRAL_TSP_TOL": "1.0"},
        )
    )
    assert loose["hamiltonian"]["verdict"] == "not_excluded"
    overridden = doc_of(
        run_cli(
            "--tol", "1e-8",
            "check-graph", "--family", "complete-bipartite", "--n", "3", "--m", "2",
            env_extra={"SPECTRAL_TSP_TOL": "1.0"},
        )
    )
    assert overridden["hamiltonian"]["verdict"] == "excluded"


def test_exit_codes():
    missing = run_cli("bound", "no_such_file.tsp")
    assert missing.returncode == 2
    bad_family_args = run_cli("bound", "--family", "circle")  # --n missing
    assert bad_family_args.returncode == 2
    numeric = run_cli("solve", "--family", "random-asymmetric", "--n", "6", "--method", "two-opt")
    assert numeric.returncode == 3


def test_batch_order_error_capture_and_jobs(tmp_path):
    good = tmp_path / "three.tsp"
    good.write_text(
        "NAME: three\nTYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 2\n1 0 3\n2 3 0\nEOF\n"
    )
    (tmp_path / "three.opt").write_text("optimum: 6\n")
    bare = tmp_path / "bare.tsp"
    bare.write_text(good.read_text())
    manifest = tmp_path / "run.manifest"
    manifest.write_text("three.tsp,three.opt\nmissing.tsp\nthree.tsp\nbare.tsp\n")

    proc = run_cli("batch", str(manifest))
    assert proc.returncode == 2  # one row failed to parse
    rows = [json.loads(l) for l in proc.stdout.splitlines()]
    assert len(rows) == 4
    assert rows[0]["instance"]["name"] == "three" and rows[0]["ratio"] == pytest.approx(1.0)
    assert "error" in rows[1] and rows[1]["error_kind"] == "input"
    assert rows[2]["optimum"] == 6.0  # sidecar found by naming convention
    assert rows[3]["optimum"] is None  # no sidecar anywhere

    par = run_cli("batch", str(manifest), "--jobs", "3")
    assert par.stdout == proc.stdout and par.returncode == proc.returncode


@pytest.mark.parametrize("value", ["abc", "-4"])
def test_bad_dimension_exits_2_and_batch_keeps_going(tmp_path, value):
    bad = tmp_path / "bad.tsp"
    bad.write_text(f"NAME: bad\nTYPE: TSP\nDIMENSION: {value}\nEDGE_WEIGHT_TYPE: EUC_2D\nEOF\n")
    proc = run_cli("bound", str(bad))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    (tmp_path / "run.manifest").write_text(f"bad.tsp\n{FIXTURES / 'gr17.tsp'}\n")
    proc = run_cli("batch", str(tmp_path / "run.manifest"))
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    rows = [json.loads(l) for l in proc.stdout.splitlines()]
    assert rows[0]["error_kind"] == "input" and "DIMENSION" in rows[0]["error"]
    assert rows[1]["instance"]["name"] == "gr17" and "error" not in rows[1]


def test_batch_empty_manifest(tmp_path):
    manifest = tmp_path / "empty.manifest"
    manifest.write_text("# nothing active\n\n")
    proc = run_cli("batch", str(manifest))
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_batch_shipped_manifest_is_clean():
    proc = run_cli("batch", str(FIXTURES / "table1.manifest"))
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(l) for l in proc.stdout.splitlines()]
    names = [r["instance"]["name"] for r in rows]
    assert names == ["gr17", "dantzig42", "att48"]
    assert all(r["ratio"] is not None for r in rows)


@pytest.mark.parametrize(
    "section",
    [
        "NODE_COORD_SECTION\n1 0 0\n2 nan 1\n3 1 1",
        "NODE_COORD_SECTION\n1 0 0\n2 inf 1\n3 1 1",
        "NODE_COORD_SECTION\n1 -1e308 0\n2 1e308 0\n3 1 1",  # finite, but the distance overflows
        "EDGE_WEIGHT_SECTION\n0 1 2\n1 0 inf\n2 inf 0",
    ],
)
def test_non_finite_numbers_exit_2_and_batch_keeps_going(tmp_path, section):
    kind = "EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX" if section.startswith("EDGE") else "EUC_2D"
    bad = tmp_path / "bad.tsp"
    bad.write_text(f"NAME: bad\nTYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: {kind}\n{section}\nEOF\n")
    proc = run_cli("bound", str(bad))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    (tmp_path / "run.manifest").write_text(f"bad.tsp\n{FIXTURES / 'gr17.tsp'}\n")
    proc = run_cli("batch", str(tmp_path / "run.manifest"))
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    rows = [json.loads(l) for l in proc.stdout.splitlines()]
    assert rows[0]["error_kind"] == "input"
    assert "not a finite number" in rows[0]["error"] or "overflow" in rows[0]["error"]
    assert rows[1]["instance"]["name"] == "gr17" and "error" not in rows[1]


def test_distances_whose_tour_lengths_overflow_exit_3_and_batch_keeps_going(tmp_path):
    # every weight is finite, but four of them overflow a tour length
    big = tmp_path / "big.tsp"
    rows = "\n".join(" ".join("0" if i == j else "1e308" for j in range(4)) for i in range(4))
    big.write_text(
        "NAME: big\nTYPE: TSP\nDIMENSION: 4\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
        f"EDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n{rows}\nEOF\n"
    )
    runs = [("bound", str(big))] + [("solve", str(big), "--method", m) for m in ("brute", "held-karp", "two-opt")]
    for args in runs:
        proc = run_cli(*args)
        assert proc.returncode == 3 and proc.stdout == "", args
        assert proc.stderr.startswith("error: ") and "overflow" in proc.stderr, args

    (tmp_path / "run.manifest").write_text(f"big.tsp\n{FIXTURES / 'gr17.tsp'}\n")
    proc = run_cli("batch", str(tmp_path / "run.manifest"))
    assert proc.returncode == 3 and "Traceback" not in proc.stderr
    rows = [json.loads(l) for l in proc.stdout.splitlines()]
    assert rows[0]["error_kind"] == "numeric" and "overflow" in rows[0]["error"]
    assert rows[1]["instance"]["name"] == "gr17" and "error" not in rows[1]


def test_a_ratio_that_is_not_finite_exits_3_and_batch_keeps_going(tmp_path):
    # phi / 1e-320 overflows; JSON has no Infinity to print it as
    (tmp_path / "tiny.opt").write_text("optimum: 1e-320\n")
    proc = run_cli("bound", str(FIXTURES / "att48.tsp"), "--sidecar", str(tmp_path / "tiny.opt"))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "not a finite number" in proc.stderr

    (tmp_path / "run.manifest").write_text(f"{FIXTURES / 'att48.tsp'},tiny.opt\n{FIXTURES / 'gr17.tsp'}\n")
    proc = run_cli("batch", str(tmp_path / "run.manifest"))
    assert proc.returncode == 3 and "Traceback" not in proc.stderr
    rows = [json.loads(l) for l in proc.stdout.splitlines()]
    assert rows[0]["error_kind"] == "numeric" and "not a finite number" in rows[0]["error"]
    assert rows[1]["instance"]["name"] == "gr17" and "error" not in rows[1]


def test_check_graph_rejects_entries_outside_zero_one(tmp_path):
    f = tmp_path / "wide.adj"
    f.write_text("0 256 1\n256 0 1\n1 1 0\n")
    proc = run_cli("check-graph", str(f))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "0 or 1" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "flags, env",
    [
        (["--tol=-1e-3"], None),
        (["--tol", "nan"], None),
        (["--tol", "inf"], None),
        (["--tol", "abc"], None),
        ([], {"SPECTRAL_TSP_TOL": "nan"}),
        ([], {"SPECTRAL_TSP_TOL": "-1"}),
        ([], {"SPECTRAL_TSP_TOL": "inf"}),
        ([], {"SPECTRAL_TSP_TOL": "abc"}),
    ],
)
def test_bad_tolerance_exits_2(flags, env):
    proc = run_cli(*flags, "check-graph", "--family", "cycle", "--n", "10", env_extra=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "finite number >= 0" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [["bound", "--family", "circle", "--n", "8"], ["batch", "missing.manifest"]])
def test_bad_tolerance_exits_2_before_any_work(command):
    # the library raises InvalidTolerance too; the command line names its flag first
    proc = run_cli("--tol", "-1", *command)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--tol must be a finite number >= 0" in proc.stderr and "Traceback" not in proc.stderr


def test_zero_tolerance_is_accepted():
    doc = doc_of(run_cli("--tol", "0", "bound", "--family", "circle", "--n", "8"))
    assert doc["symmetric"] is True


def test_zero_tolerance_reports_exactly_symmetric_input_normal():
    # roundoff in the compression made this report "normal": false, "phi_normal": null
    doc = doc_of(run_cli("--tol", "0", "bound", "--family", "circle", "--n", "40"))
    assert doc["symmetric"] is True and doc["normal"] is True
    assert doc["phi_normal"] == doc["phi_symmetric"] == doc["phi_general"] == doc["phi"]


def test_bound_reads_a_short_display_section(tmp_path):
    f = tmp_path / "display.tsp"
    f.write_text(
        "NAME: display\nTYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\n"
        "DISPLAY_DATA_SECTION\n1 0 0\nNODE_COORD_SECTION\n1 0 0\n2 3 4\n3 6 8\nEOF\n"
    )
    doc = doc_of(run_cli("bound", str(f)))
    assert doc["instance"]["n"] == 3 and doc["mean_distance"] == pytest.approx(20.0 / 3)


def test_batch_runs_every_jobs_value_in_process(tmp_path, monkeypatch, capsys):
    # --jobs changes nothing: no value may reach a process pool, and every
    # value prints the same rows
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("batch started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    (tmp_path / "three.tsp").write_text(
        "NAME: three\nTYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 2\n1 0 3\n2 3 0\nEOF\n"
    )
    outputs = {}
    for rows in (1, 4):
        manifest = tmp_path / f"rows{rows}.manifest"
        manifest.write_text("three.tsp\n" * rows)
        for jobs in ("1", "2", "4", "100000"):
            assert cli.main(["batch", str(manifest), "--jobs", jobs]) == 0, (rows, jobs)
            outputs.setdefault(rows, set()).add(capsys.readouterr().out)
    assert len(outputs[1]) == len(outputs[4]) == 1 and outputs[1] != outputs[4]
    assert len(next(iter(outputs[4])).splitlines()) == 4


@pytest.mark.parametrize("jobs", ["0", "-1", "-100000"])
def test_batch_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    manifest = tmp_path / "m.manifest"
    manifest.write_text("missing.tsp\n")
    assert cli.main(["batch", str(manifest), "--jobs", jobs]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--jobs must be at least 1, got {jobs}" in err


def test_cli_import_leaves_the_process_pool_out_and_batch_jobs_2_works():
    # scipy.sparse.csgraph alone takes longer to import than the whole CLI;
    # a batch, --jobs 2 included, runs in process and loads no pool module
    pool = "print('multiprocessing' in sys.modules, 'concurrent.futures.process' in sys.modules)"
    probe = (
        f"import sys, spectral_tsp.cli; {pool}; "
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules)); "
        f"code = spectral_tsp.cli.main(['batch', {str(FIXTURES / 'table1.manifest')!r}, '--jobs', '2']); "
        f"print(code); {pool}"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split()[:3] == ["False", "False", "False"]
    assert done.stdout.split()[-3:] == ["0", "False", "False"]
    one = run_cli("batch", str(FIXTURES / "table1.manifest"))
    two = run_cli("batch", str(FIXTURES / "table1.manifest"), "--jobs", "2")
    assert two.returncode == one.returncode == 0 and two.stdout == one.stdout != ""


@pytest.mark.parametrize("command", ["bound", "solve"])
def test_m_is_a_check_graph_option_only(command, capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main([command, "--family", "circle", "--n", "5", "--m", "3"])
    assert exited.value.code == 2 and "--m" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, edge_list",
    [
        (["check-graph"], "1000000000000"),
        (["check-graph"], "40000\n0 1\n"),
        (["check-graph", "--format", "edges"], f"{graphs.SIZE_CAP + 1}\n"),
        (["bound", "--family", "uniform", "--n", "1000000000000"], None),
        (["bound", "--family", "circle", "--n", "30000"], None),
        (["solve", "--family", "line", "--n", str(graphs.SIZE_CAP + 1)], None),
        (["bound", "--family", "random-euclidean", "--n", "5", "--dim", "10000000000"], None),
        (["check-graph", "--family", "complete", "--n", "5000"], None),
        (["check-graph", "--family", "complete-bipartite", "--n", "3", "--m", "2049"], None),
        (["check-graph", "--family", "dihedral-reflection", "--m", "1000000000000"], None),
        pytest.param(["check-graph"], "0 1\n" * (graphs.SIZE_CAP + 1), id="adjacency-rows-auto"),
        pytest.param(["check-graph", "--format", "adjacency"], "0\n" * (graphs.SIZE_CAP + 1), id="adjacency-rows"),
    ],
)
def test_sizes_past_the_cap_exit_3_before_allocating(tmp_path, capsys, argv, edge_list):
    if edge_list is not None:
        (tmp_path / "big.txt").write_text(edge_list)
        argv = [*argv, str(tmp_path / "big.txt")]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "capped at 2048" in err


@pytest.mark.parametrize(
    "form, flags",
    [("edges", []), ("edges", ["--format", "edges"]), ("adjacency", []), ("adjacency", ["--format", "adjacency"])],
    ids=["edges-auto", "edges", "adjacency-auto", "adjacency"],
)
def test_graph_files_of_both_formats_past_the_cap_exit_3(tmp_path, capsys, monkeypatch, form, flags):
    monkeypatch.setattr(graphs, "SIZE_CAP", 4)
    for n in (4, 5):
        if form == "edges":
            text = f"{n}\n" + "".join(f"{i} {(i + 1) % n}\n" for i in range(n))
        else:
            text = "".join(" ".join(str(int((j - i) % n in (1, n - 1))) for j in range(n)) + "\n" for i in range(n))
        (tmp_path / f"c{n}.txt").write_text(text)
    assert cli.main(["check-graph", *flags, str(tmp_path / "c4.txt")]) == 0
    assert json.loads(capsys.readouterr().out)["instance"]["n"] == 4
    assert cli.main(["check-graph", *flags, str(tmp_path / "c5.txt")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "capped at 4 vertices, got 5" in err


def test_tsplib_order_past_the_cap_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tsplib, "SIZE_CAP", 3)
    for n in (6, 7):
        coords = "\n".join(f"{k + 1} {k} {k * k % 5}" for k in range(n))
        (tmp_path / f"c{n}.tsp").write_text(
            f"NAME: c{n}\nTYPE: TSP\nDIMENSION: {n}\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n{coords}\nEOF\n"
        )
    assert cli.main(["bound", str(tmp_path / "c6.tsp")]) == 0
    assert json.loads(capsys.readouterr().out)["instance"]["n"] == 6
    assert cli.main(["bound", str(tmp_path / "c7.tsp")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "capped at 6 cities" in err and "Traceback" not in err
    (tmp_path / "rows.manifest").write_text("c6.tsp\nc7.tsp\n")
    assert cli.main(["batch", str(tmp_path / "rows.manifest")]) == 3
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert "error" not in rows[0] and rows[1]["error_kind"] == "numeric"


def test_undecodable_and_nul_inputs_exit_2(tmp_path, capsys):
    (tmp_path / "bin.tsp").write_bytes(b"NAME: x\xff\n")
    (tmp_path / "bin.txt").write_bytes(b"3\n0 1\xff\n")
    for argv in (["bound", str(tmp_path / "bin.tsp")], ["check-graph", str(tmp_path / "bin.txt")]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
    (tmp_path / "bin.manifest").write_bytes(b"\xff\n")
    (tmp_path / "nul.manifest").write_text("gr17.tsp\x00\n")
    for name in ("bin.manifest", "nul.manifest"):
        assert cli.main(["batch", str(tmp_path / name)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
    (tmp_path / "rows.manifest").write_text(f"bin.tsp\n{FIXTURES / 'gr17.tsp'}\n")
    assert cli.main(["batch", str(tmp_path / "rows.manifest")]) == 2
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[0]["error_kind"] == "input" and rows[1]["instance"]["name"] == "gr17"


# ---------------------------------------------------------------- fuzzing


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stn.text(alphabet=stn.sampled_from([*"ab./,# \t\r\n\x00", "é", " "]), max_size=60) | stn.text(max_size=30))
def test_manifest_reader_fails_only_with_input_errors(tmp_path, text):
    path = tmp_path / "fuzz.manifest"
    path.write_text(text, encoding="utf-8")
    try:
        rows = cli._manifest_rows(path)
    except InputFormatError:
        return
    for problem, sidecar in rows:
        assert problem and "\0" not in problem and "," not in problem
        assert sidecar is None or ("\0" not in sidecar and "," not in sidecar)


_PROBLEMS = [
    "NAME: t\nTYPE: TSP\nDIMENSION: 4\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 3 0\n3 3 4\n4 0 4\nEOF\n",
    "NAME: e\nTYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: UPPER_ROW\n"
    "EDGE_WEIGHT_SECTION\n1 2\n3\nEOF\n",
    "NAME: g\nTYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: GEO\nNODE_COORD_SECTION\n1 10.30 20.15\n2 11 21\n3 -5.5 0\n",
]
_GRAPHS = ["5\n0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n", "0 1 1\n1 0 1\n1 1 0\n", "4\n0 1\n2 3\n", "1\n", "0\n"]
_SIDECARS = ["optimum: 14\n", "optimum: 0\n", "optimum: -3\n", "optimum: nan\n", "best: 1\n"]


def _mangled(texts):
    """One of `texts` (half the time), cut short with bytes spliced in, or plain random bytes."""
    whole = stn.sampled_from(texts).map(str.encode)
    cut = stn.tuples(whole, stn.integers(0, 200), stn.binary(max_size=4)).map(
        lambda t: t[0][: t[1]] + t[2] + t[0][t[1] :]
    )
    return stn.one_of(whole, whole, cut, stn.binary(max_size=24))


_VALUES = stn.one_of(
    stn.integers(3, 9).map(str),
    stn.integers(-2, 9).map(str),
    stn.sampled_from(["x", "", "1.5", "2049", str(10**12)]),
)
_FLAGS = {
    "--n": _VALUES,
    "--m": _VALUES,
    "--dim": _VALUES,
    "--seed": _VALUES,
    "--method": stn.sampled_from(["brute", "held-karp", "two-opt", "exact"]),
    "--format": stn.sampled_from(["auto", "edges", "adjacency", "csv"]),
    "--jobs": stn.sampled_from(["-1", "0", "1", "2", "100000"]),
    "--sidecar": stn.just("p.opt"),
}
# command: (its input file, its families, the flags it takes)
_COMMANDS = {
    "bound": ("p.tsp", sorted(cli._MATRIX_FAMILIES), ["--n", "--dim", "--seed", "--sidecar"]),
    "solve": ("p.tsp", sorted(cli._MATRIX_FAMILIES), ["--n", "--dim", "--seed", "--sidecar", "--method"]),
    "check-graph": ("g.txt", sorted(cli._GRAPH_FAMILIES), ["--n", "--m", "--format"]),
    "batch": ("m.manifest", [], ["--jobs"]),
}


@stn.composite
def cli_runs(draw):
    files = {
        "p.tsp": draw(_mangled(_PROBLEMS)),
        "p.opt": draw(_mangled(_SIDECARS)),
        "g.txt": draw(_mangled(_GRAPHS)),
        "m.manifest": draw(_mangled(["p.tsp\n", "p.tsp,p.opt\n# c\nq.tsp\n", "p.tsp,p.opt,x\n", ",\n"])),
    }
    command = draw(stn.sampled_from(sorted(_COMMANDS)))
    own_file, families, own_flags = _COMMANDS[command]
    argv = []
    if draw(stn.booleans()):
        argv += ["--tol", draw(stn.sampled_from(["0", "1e-8", "0.5", "1", "1e300", "-1", "x"]))]
    argv.append(command)
    if families and draw(stn.booleans()):
        argv += ["--family", draw(stn.sampled_from(families)), "--n", draw(_VALUES)]
    else:
        argv.append(draw(stn.sampled_from([own_file] * 4 + ["p.tsp", "g.txt", "missing.tsp"])))
    flags = draw(stn.lists(stn.sampled_from(own_flags), max_size=3, unique=True))
    if draw(stn.integers(0, 9)) == 0:  # now and then a flag of another command, or a repeated one
        flags.append(draw(stn.sampled_from(sorted(_FLAGS))))
    for flag in flags:
        argv += [flag, draw(_FLAGS[flag])]
    argv += draw(stn.lists(stn.sampled_from(["--pretty", "--timing"]), max_size=2, unique=True))
    return files, argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_runs())
def test_cli_exits_0_2_or_3_and_never_raises(tmp_path, capsys, run):
    files, argv = run
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = [str(tmp_path / a) if a in files or a == "missing.tsp" else a for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exited:  # argparse rejecting the flags
        code = exited.code
        assert code == 2
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code != 0 and "batch" not in argv:  # a batch prints the rows it could run
        assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound"], "give a problem file or --family"),
        (["solve", "--family", "circle"], "--family needs --n"),
        (["check-graph"], "give a graph file or --family"),
        (["check-graph", "--family", "dihedral-reflection"], "--family dihedral-reflection needs --m"),
    ],
)
def test_a_missing_instance_exits_2(capsys, argv, message):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
