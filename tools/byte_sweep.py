"""Run one fixed list of CLI commands through two source trees and compare their bytes.

Both trees are imported into one process (interleave.load_tree), and each
command runs through its tree's cli.main(argv) with stdout and stderr
captured; a command's digest is the sha256 of its stdout, stderr and exit
code.  BLAS runs on one thread unless the environment says otherwise, and
SPECTRAL_TSP_TOL is unset.  The list, run at the default tol, --tol 1 and
--tol 0:

  - bound, and every solve method whose cap admits n, on each --family at
    n = 3, 7, 40 and 300 with --seed 0, 3 and 2^64 - 1;
  - solve --method brute on each --family at n = 9..12 (seed 0);
  - bound on the fixtures, and on EUC_2D, ATT, GEO and EXPLICIT files (all
    five packings) at n = 7 and 40, written for the run as the cli-tsplib
    benchmark workload writes them;
  - batch --jobs 1 and --jobs 2 on the fixtures and the n = 7 files;
  - check-graph on every graph family, invalid sizes included, and at
    n = 200 on complete (--n 200), complete-bipartite (--n 100 --m 100),
    dihedral-reflection (--m 100), cycle (--n 200) and path (--n 200), and
    on cycle and path at --n 500, whose hop distances take 8 and 9 squarings;
  - check-graph on graph files written for the run (GRAPH_FILES), in both
    formats: valid ones (a G(200, p) edge list with both orientations and
    repeated edges, the same graph as a matrix, comments and tabs) and
    malformed ones (tokens int() reads but plain digits do not spell, such
    as +1 and 1_0, tokens it rejects, endpoints out of range, self-loops,
    capped sizes, ragged or asymmetric matrices), some with --format given;
  - with --pretty, whose summary goes to stderr: bound on gr17 with its
    sidecar, solve --method held-karp on random-euclidean at n = 9,
    check-graph on disconnected.edges, and batch on the fixtures and the
    n = 7 files.

    python tools/byte_sweep.py --base HEAD~1           # HEAD~1 against this checkout
    python tools/byte_sweep.py --base A --new B --show # two revisions, differences shown
    python tools/byte_sweep.py --threads 1,2           # this checkout at 1 and 2 BLAS threads

The base tree is a git revision (--base, extracted with `git archive`) or a
directory holding src/spectral_tsp (--base-tree); the new tree is this
checkout unless --new names a revision.  --smoke runs six commands only.
Each command whose digest differs is printed; the exit status is 1 if any
differ.

--threads runs this checkout alone, once per BLAS thread count, each run in
a child process started with OPENBLAS_NUM_THREADS set to that count (BLAS
reads it once, at load; nothing pins threads inside the package).  The list
adds THREAD_EDGES, graphs whose verdicts sit within roundoff of their
thresholds: cycles, and K_{a,a}, which saturates them, built both as
complete-bipartite and as dihedral-reflection.  Each later run is compared
with the first: the commands whose bytes differ are printed and counted,
which float digits alone can cause, and so are the commands whose decisions
differ (decisions()); the exit status is 1 if any decision differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # BLAS reads its thread count once, when numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from interleave import ROOT, extract, load_tree  # noqa: E402

sys.path.insert(0, str(ROOT / "bench"))
from probes import _openblas  # noqa: E402  (the thread count BLAS read)
from workloads import FIXTURES, write_round  # noqa: E402  (the cli-tsplib workload's files)

MATRIX_FAMILIES = (
    "uniform", "circle", "line", "two-cluster",
    "random-euclidean", "random-symmetric", "random-asymmetric", "random-circulant",
)
SEEDS = ("0", "3", str(2**64 - 1))
TOLS = ((), ("--tol", "1"), ("--tol", "0"))
GRAPHS = [
    *(("--family", "path", "--n", n) for n in ("-1", "0", "1", "2", "3", "40")),
    *(("--family", "cycle", "--n", n) for n in ("2", "3", "40")),
    *(("--family", "complete", "--n", n) for n in ("0", "1", "2", "3", "40", "2049")),
    *(("--family", "complete-bipartite", "--n", n, "--m", m) for n, m in (("0", "2"), ("1", "1"), ("2", "3"), ("20", "20"))),
    ("--family", "complete-bipartite", "--n", "3"),
    ("--family", "bow-tie"),
    *(("--family", "dihedral-reflection", "--m", m) for m in ("0", "1", "2", "3", "20")),
    ("--family", "cycle"),
    *(("--family", family, "--n", "200") for family in ("complete", "cycle", "path")),
    *(("--family", family, "--n", "500") for family in ("cycle", "path")),
    ("--family", "complete-bipartite", "--n", "100", "--m", "100"),
    ("--family", "dihedral-reflection", "--m", "100"),
]
GRAPH_FILES = {  # name: text; .edges files are edge lists, .adj files adjacency rows
    "bow-tie.edges": "# two triangles\n5\n0 1\n0\t2  # a tab\n1 2\n\n2 3\n2 4\n3 4\n",
    "disconnected.edges": "6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n",
    "no-edges.edges": "4\n",
    "plus.edges": "3\n0 +1\n1 2\n2 0\n",
    "underscore.edges": "12\n0 1_0\n10 11\n",
    "leading-zeros.edges": "3\n0 0000000000000000001\n001 2\n",
    "float.edges": "3\n0 1\n0 1.0\n",
    "out-of-range.edges": "3\n0 1\n0 5\n",
    "past-int64.edges": "3\n0 9223372036854775808\n",
    "negative.edges": "3\n0 1\n-1 2\n",
    "self-loop.edges": "3\n0 1\n1 1\n",
    "three-tokens.edges": "3\n0 1\n0 1 2\n",
    "bad-head.edges": "x\n0 1\n",
    "capped.edges": "2049\n0 1\n",
    "zero.edges": "0\n",
    "empty.edges": "# nothing\n\n",
    "k3.adj": "0 1 1\n1 0 1  # comment\n1\t1 0\n",
    "plus.adj": "0 +1\n1 0\n",
    "underscore.adj": "0 1_0\n1_0 0\n",
    "float.adj": "0 1.0\n1.0 0\n",
    "two.adj": "0 2\n2 0\n",
    "ragged.adj": "0 1 0\n1 0\n0 0 0\n",
    "asymmetric.adj": "0 1\n0 0\n",
    "diagonal.adj": "1 1\n1 0\n",
    "past-int64.adj": "0 9223372036854775808\n9223372036854775808 0\n",
}
THREAD_EDGES = [  # --threads only: hamiltonian values within roundoff of 0, at three tols
    ("--tol", tol, "check-graph", *graph)
    for graph in (
        *(("--family", "cycle", "--n", n) for n in ("5", "600", "1000", "1500")),
        *(("--family", "complete-bipartite", "--n", a, "--m", a) for a in ("4", "50", "300")),
        *(("--family", "dihedral-reflection", "--m", a) for a in ("4", "50", "300")),
    )
    for tol in ("0", "3e-14", "1e-13")
]
DECISION_KEYS = {"symmetric", "normal", "psd", "connected", "regular", "verdict", "saturated", "order"}
SMOKE = [
    ("bound", "--family", "random-symmetric", "--n", "7", "--seed", "3"),
    ("bound", "--family", "random-circulant", "--n", "7", "--seed", "3"),
    ("solve", "--family", "random-asymmetric", "--n", "9", "--method", "brute"),
    ("solve", "--family", "random-euclidean", "--n", "40", "--method", "two-opt"),
    ("check-graph", "--family", "complete-bipartite", "--n", "3", "--m", "4"),
    ("check-graph", "--family", "path", "--n", "1"),
]


def commands(directory: Path) -> list[tuple[str, ...]]:
    """The full list, each command once per tol; files are written under directory."""
    listed = []
    for family in MATRIX_FAMILIES:
        for n in (3, 7, 40, 300):
            for seed in SEEDS:
                instance = ("--family", family, "--n", str(n), "--seed", seed)
                listed.append(("bound", *instance))
                methods = [m for m, cap in (("brute", 12), ("held-karp", 20), ("two-opt", math.inf)) if n <= cap]
                listed += [("solve", *instance, "--method", m) for m in methods]
        listed += [("solve", "--family", family, "--n", str(n), "--method", "brute") for n in range(9, 13)]
    listed += [("bound", str(f), "--sidecar", str(f.with_suffix(".opt"))) for f in FIXTURES]
    small, large = (write_round(directory / str(n), np.random.default_rng(n), n, n) for n in (7, 40))
    listed += [("bound", str(f)) for f in (*small, *large)]
    manifest = directory / "batch.manifest"
    manifest.write_text("".join(f"{f},{f.with_suffix('.opt')}\n" for f in FIXTURES) + "".join(f"{f}\n" for f in small))
    listed += [("batch", str(manifest), "--jobs", jobs) for jobs in ("1", "2")]
    listed += [("check-graph", *g) for g in GRAPHS]
    listed += [("check-graph", *argv) for argv in write_graph_files(directory / "graphs")]
    pretty = [  # one per subcommand, so that the stderr summaries are compared too
        ("bound", str(FIXTURES[0]), "--sidecar", str(FIXTURES[0].with_suffix(".opt"))),
        ("solve", "--family", "random-euclidean", "--n", "9", "--method", "held-karp"),
        ("check-graph", str(directory / "graphs" / "disconnected.edges")),
        ("batch", str(manifest)),
    ]
    listed += [(*argv, "--pretty") for argv in pretty]
    return [(*tol, *argv) for tol in TOLS for argv in listed]


def write_graph_files(directory: Path) -> list[tuple[str, ...]]:
    """check-graph arguments on GRAPH_FILES and on files of a G(200, p), of C_40 and of P_500,
    written under directory."""
    directory.mkdir()
    rng = np.random.default_rng(21)
    upper = np.triu(rng.random((200, 200)) < 6 / 199, 1) | np.eye(200, k=1, dtype=bool)  # a spanning path
    edges = np.argwhere(upper)
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]  # both orientations
    edges = np.concatenate([edges, edges[rng.permutation(len(edges))[:20]]])  # and 20 edges twice
    texts = {
        **GRAPH_FILES,
        "gnp200.edges": "200\n" + "".join(f"{u} {v}\n" for u, v in edges),
        "gnp200.adj": _rows(upper | upper.T),
        "cycle40.adj": _rows(np.roll(np.eye(40, dtype=int), 1, axis=1) + np.roll(np.eye(40, dtype=int), -1, axis=1)),
        "path500.edges": "500\n" + "".join(f"{i} {i + 1}\n" for i in range(499)),
    }
    paths = {name: directory / name for name in texts}
    for name, text in texts.items():
        paths[name].write_text(text, encoding="utf-8")
    listed = [(str(path),) for path in paths.values()]
    listed += [(str(paths["gnp200.edges"]), "--format", "edges"), (str(paths["k3.adj"]), "--format", "adjacency")]
    return listed + [(str(paths["k3.adj"]), "--format", "edges"), (str(paths["bow-tie.edges"]), "--format", "adjacency")]


def _rows(A: np.ndarray) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in A.astype(int).tolist())


def run(cli, argv) -> tuple[str, str, object]:
    """stdout, stderr and exit code of cli.main(argv); a crash is an output too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse's own errors
            code = e.code
        except Exception as e:  # noqa: BLE001 - an uncaught error is an output to compare
            code = f"raised {type(e).__name__}: {e}"
    return out.getvalue(), err.getvalue(), code


def digest(output: tuple[str, str, object]) -> str:
    return hashlib.sha256(json.dumps(output).encode()).hexdigest()


def decisions(output: tuple[str, str, object]) -> list:
    """What a command decided: its exit code and stderr, then, by path in each JSON line of stdout,
    every DECISION_KEYS value and every null field.  Float values are left out."""
    stdout, stderr, code = output
    found = [code, stderr]

    def walk(x, path):
        if x is None:
            found.append((path, None))
        elif isinstance(x, dict):
            for k, v in x.items():
                if k in DECISION_KEYS:
                    found.append((f"{path}.{k}", v))
                else:
                    walk(v, f"{path}.{k}")
        elif isinstance(x, list):
            for i, v in enumerate(x):
                walk(v, f"{path}[{i}]")

    for i, line in enumerate(stdout.splitlines()):
        try:
            walk(json.loads(line), str(i))
        except ValueError:  # not JSON: the line is the decision
            found.append((str(i), line))
    return found


def report(base: dict, new: dict) -> int:
    """Print each command whose digest differs between base and new (command -> digest); 1 if any do."""
    differ = [cmd for cmd in base if base[cmd] != new.get(cmd)]
    for cmd in differ:
        print(f"DIFFERENT {cmd}")
    print(f"{len(base)} commands, {len(differ)} differ")
    return 1 if differ else 0


CHILD = (
    f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
    "import byte_sweep; byte_sweep._child()"
)


def _child() -> None:
    """Run the commands listed in the file argv[1] through this checkout; write the thread count
    BLAS read and their outputs to the file argv[2]."""
    cli = load_tree(ROOT, "sweep_threads")["cli"]
    argvs = json.loads(Path(sys.argv[1]).read_text())
    outputs = [run(cli, a) for a in argvs]
    Path(sys.argv[2]).write_text(json.dumps({"threads": _openblas()["threads"], "outputs": outputs}))


def sweep_threads(threads: list[int], argvs: list[tuple[str, ...]], tmp: Path) -> int:
    """Run argvs through this checkout once per thread count, each in a child process, and print the
    commands whose bytes and whose decisions differ from the first run's; 1 if any decision does."""
    (tmp / "argvs.json").write_text(json.dumps(argvs))
    runs = []
    for i, k in enumerate(threads):
        out = tmp / f"run{i}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(k)}
        subprocess.run([sys.executable, "-c", CHILD, str(tmp / "argvs.json"), str(out)], env=env, check=True)
        doc = json.loads(out.read_text())
        print(f"run {i}: OPENBLAS_NUM_THREADS={k}, BLAS read {doc['threads']}")
        runs.append([tuple(o) for o in doc["outputs"]])
    names = [" ".join(a) for a in argvs]
    status = 0
    for k, run_k in zip(threads[1:], runs[1:]):
        pairs = list(zip(names, runs[0], run_k))
        differ = [name for name, a, b in pairs if digest(a) != digest(b)]
        decide = [name for name, a, b in pairs if decisions(a) != decisions(b)]
        for name in differ:
            print(f"BYTES {threads[0]} vs {k} threads: {name}")
        for name in decide:
            print(f"DECISION {threads[0]} vs {k} threads: {name}")
        print(f"{len(names)} commands, {threads[0]} vs {k} threads: "
              f"{len(differ)} differ in bytes, {len(decide)} in decisions")
        status |= bool(decide)
    return status


def _first_difference(a: str, b: str, context: int = 80) -> str:
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    lo = max(0, k - context)
    return f"    base ...{a[lo : k + context]!r}\n    new  ...{b[lo : k + context]!r}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD", help="git revision of the base tree (default HEAD)")
    p.add_argument("--base-tree", type=Path, help="directory holding src/spectral_tsp, in place of --base")
    p.add_argument("--new", help="git revision of the new tree (default: this checkout)")
    p.add_argument("--smoke", action="store_true", help="run six commands only")
    p.add_argument("--show", action="store_true", help="print where each differing output first differs")
    p.add_argument("--threads", help="BLAS thread counts, e.g. 1,2: run this checkout once per count and compare")
    args = p.parse_args(argv)
    os.environ.pop("SPECTRAL_TSP_TOL", None)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "files").mkdir()
        argvs = SMOKE if args.smoke else commands(tmp / "files")
        if args.threads:
            print(f"this checkout {ROOT}, numpy {np.__version__}")
            threads = [int(k) for k in args.threads.split(",")]
            return sweep_threads(threads, argvs if args.smoke else argvs + THREAD_EDGES, tmp)
        base_tree = args.base_tree or extract(args.base, tmp / "base")
        new_tree = extract(args.new, tmp / "new") if args.new else ROOT
        clis = [load_tree(tree, alias)["cli"] for tree, alias in ((base_tree, "sweep_base"), (new_tree, "sweep_new"))]
        print(f"base {args.base_tree or args.base}, new {args.new or ROOT}, numpy {np.__version__}, "
              f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
        outputs = [{" ".join(a): run(cli, a) for a in argvs} for cli in clis]
    status = report(*({cmd: digest(out) for cmd, out in side.items()} for side in outputs))
    if args.show:
        base, new = outputs
        for cmd in base:
            for label, a, b in zip(("stdout", "stderr", "exit"), base[cmd], new[cmd]):
                if a != b:
                    print(f"{cmd}: {label}\n" + _first_difference(str(a), str(b)))
    return status


if __name__ == "__main__":
    sys.exit(main())
