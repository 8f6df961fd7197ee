"""The four benchmark workloads.

Each workload is a closed loop with one client.  Operation k draws its input
from numpy's Generator seeded with (workload seed, k), so every operation
gets a distinct input and the same seed always gives the same inputs.
Operations run in fixed cycles that repeat the workload's mix exactly; the
runner stops only at cycle boundaries so every run measures the same mix.

A workload provides:
  setup()      deterministic preparation plus an untimed warm-up
  make(k)      the input of operation k (untimed)
  call(inp)    the timed call into spectral_tsp
  check(...)   the output checks (untimed), returning an Outcome
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = [ROOT / "fixtures" / "tsplib" / f"{name}.tsp" for name in ("gr17", "dantzig42", "att48")]


@dataclass
class Outcome:
    ok: bool
    tightness: list[float] = field(default_factory=list)
    tour_ratio: list[float] = field(default_factory=list)


FAILED = Outcome(False)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _euclidean(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _bound_outcome(checks: ref.BoundChecks, rep, metric: bool) -> Outcome:
    """Outcome of the bound checks; only metric instances contribute to tightness.

    On uniform random matrices the bound is far below zero and its ratio to a
    tour is dominated by how short that tour happens to be, so averaging it
    would measure the reference tour, not the bound.
    """
    if not checks.holds(rep.n, rep.phi, rep.mean_distance):
        return FAILED
    return Outcome(True, [rep.phi / checks.tour] if metric else [])


class Workload:
    name = ""
    schedule: tuple = ()
    via_subprocess = False  # then run.py reads the peak RSS of the children, not of itself

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    @property
    def cycle(self) -> int:
        return len(self.schedule)

    def kind(self, k: int):
        return self.schedule[k % self.cycle]

    def setup(self) -> None:
        """Warm up on one operation of each kind; warm-up inputs use k < 0."""
        seen = set()
        for k in range(-1, -1 - self.cycle, -1):
            if self.kind(k) not in seen:
                seen.add(self.kind(k))
                self.call(self.make(k))


class BoundApi(Workload):
    """bound_report on a distinct matrix per operation, mix 3:1:1 symmetric:circulant:asymmetric."""

    name = "bound-api"
    schedule = ("euclidean", "circulant", "euclidean", "asymmetric", "euclidean")

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        from spectral_tsp import bounds

        self.bounds = bounds
        self.sizes = {"euclidean": 400, "circulant": 300, "asymmetric": 400}
        if small:
            self.sizes = {"euclidean": 40, "circulant": 30, "asymmetric": 40}

    def make(self, k):
        kind = self.kind(k)
        n = self.sizes[kind]
        rng = _rng(self.seed, abs(k), int(k < 0))
        if kind == "euclidean":
            D = _euclidean(rng.random((n, 2)) * 1000.0)
        elif kind == "circulant":
            r = rng.random(n)
            r[0] = 0.0
            idx = np.arange(n)
            D = r[(idx[None, :] - idx[:, None]) % n]
        else:
            D = rng.random((n, n))
            np.fill_diagonal(D, 0.0)
        return kind, D

    def call(self, inp):
        return self.bounds.bound_report(inp[1])

    def check(self, inp, rep) -> Outcome:
        kind, D = inp
        return _bound_outcome(ref.BoundChecks(D, symmetric=kind == "euclidean"), rep, kind == "euclidean")


class SolveVerify(Workload):
    """Generate an instance with spectral_tsp.instances, solve it, bound it, compare."""

    name = "solve-verify"
    # brute_force at n=10 does fixed work and is the middle class by cost; with 3 of
    # 7 operations it holds p50, and two_opt on random_symmetric holds p90
    schedule = (
        ("brute_force", "random_symmetric", 10),
        ("held_karp", "random_symmetric", 14),
        ("two_opt", "random_euclidean", 250),
        ("brute_force", "random_symmetric", 10),
        ("brute_force", "random_asymmetric", 9),
        ("two_opt", "random_symmetric", 250),
        ("brute_force", "random_symmetric", 10),
    )

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        from spectral_tsp import bounds, instances, solvers

        self.bounds, self.instances, self.solvers = bounds, instances, solvers
        if small:
            self.schedule = tuple((s, f, min(n, 8) if s != "two_opt" else 30) for s, f, n in self.schedule)

    def make(self, k):
        rng = _rng(self.seed, abs(k), int(k < 0))
        return (*self.kind(k), int(rng.integers(2**63)))

    def call(self, inp):
        solver, family, n, seed = inp
        made = getattr(self.instances, family)(n, seed)
        D = made[0] if family == "random_euclidean" else made
        if solver == "two_opt":
            tour = self.solvers.two_opt(D, seed=seed)
        else:
            tour = getattr(self.solvers, solver)(D)
        return D, tour, self.bounds.bound_report(D)

    def check(self, inp, out) -> Outcome:
        solver, family, n, _seed = inp
        D, tour, rep = out
        if D.shape != (n, n) or not ref.is_permutation(tour.order, n):
            return FAILED
        if not ref.close(tour.length, ref.tour_length(D, tour.order), tour.length):
            return FAILED
        checks = ref.BoundChecks(D, symmetric=family != "random_asymmetric")
        outcome = _bound_outcome(checks, rep, family == "random_euclidean")
        if not outcome.ok or not ref.not_above(rep.phi, tour.length, checks.frob):
            return FAILED
        if solver == "brute_force":
            exact = self.solvers.held_karp(D)
            if not ref.close(exact.length, tour.length, tour.length):
                return FAILED
        if solver == "held_karp" and not ref.not_above(tour.length, checks.tour, checks.tour):
            return FAILED
        outcome.tour_ratio.append(tour.length / checks.tour)
        return outcome


class GraphScreen(Workload):
    """What check-graph computes, per graph: connectivity, regularity and the three screens."""

    name = "graph-screen"
    # G(n, p) at n=120 is the middle class by cost and takes 6 of 16 operations, and
    # n=160 the top 4, so that p50 and p90 each fall inside one class
    schedule = (
        ("gnp", 80, True),
        ("gnp", 120, True),
        ("gnp", 160, True),
        ("cycle",),
        ("gnp", 120, False),
        ("gnp", 160, False),
        ("gnp", 120, True),
        ("path",),
        ("gnp", 80, False),
        ("gnp", 120, False),
        ("gnp", 160, True),
        ("bipartite",),
        ("gnp", 120, True),
        ("gnp", 160, False),
        ("gnp", 120, False),
        ("dihedral",),
    )
    MEAN_DEGREE = 6.0

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        from spectral_tsp import graphs

        self.graphs = graphs
        lo, hi = (80, 160) if not small else (8, 16)
        self.scale = 1 if not small else 10
        # family parameters are drawn without replacement, so no two operations repeat a graph
        rng = _rng(seed, 2**32)
        self.cycle_ns = rng.permutation(np.arange(lo, hi + 1))
        self.path_ns = rng.permutation(np.arange(lo, hi + 1))
        pairs = [(a, b) for a in range(lo // 4, hi // 3 + 1) for b in range(a, hi // 3 + 1)]
        self.bipartite = [pairs[i] for i in rng.permutation(len(pairs))]
        self.dihedral_ms = rng.permutation(np.arange(lo * 3 // 8, hi * 3 // 8 + 1))

    def _gnp(self, rng, n: int, planted: bool):
        """Connected G(n, p) with mean degree about 6, optionally with a planted Hamiltonian cycle."""
        p = self.MEAN_DEGREE / (n - 1)
        while True:
            A = np.triu(rng.random((n, n)) < p, 1)
            if planted:
                perm = rng.permutation(n)
                u, v = perm, np.roll(perm, -1)
                A[np.minimum(u, v), np.maximum(u, v)] = True
            A = A | A.T
            if ref.is_connected(A):
                return A.astype(np.int8)

    def make(self, k):
        kind = self.kind(k)
        q = k // self.cycle  # warm-up inputs (k < 0) take the last parameters
        rng = _rng(self.seed, abs(k), int(k < 0))
        if kind[0] == "gnp":
            n = max(6, kind[1] // self.scale)
            A = self._gnp(rng, n, kind[2])
            edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(A, 1)))]
            return ("edges", (n, edges), A, kind[2], kind[2])
        if kind[0] == "cycle":
            n = int(self.cycle_ns[q % len(self.cycle_ns)])
            idx = np.arange(n)
            A = np.zeros((n, n), dtype=np.int8)
            A[idx, (idx + 1) % n] = A[(idx + 1) % n, idx] = 1
            return ("cycle", (n,), A, True, True)
        if kind[0] == "path":
            n = int(self.path_ns[q % len(self.path_ns)])
            idx = np.arange(n - 1)
            A = np.zeros((n, n), dtype=np.int8)
            A[idx, idx + 1] = A[idx + 1, idx] = 1
            return ("path", (n,), A, False, True)
        if kind[0] == "bipartite":
            a, b = self.bipartite[q % len(self.bipartite)]
            A = np.zeros((a + b, a + b), dtype=np.int8)
            A[:a, a:] = A[a:, :a] = 1
            return ("bipartite", (a, b), A, a == b, abs(a - b) <= 1)
        # the Cayley graph of D_m on its reflections is K_{m,m}: rotations 0..m-1, reflections m..2m-1
        m = int(self.dihedral_ms[q % len(self.dihedral_ms)])
        A = np.zeros((2 * m, 2 * m), dtype=np.int8)
        A[:m, m:] = A[m:, :m] = 1
        return ("dihedral", (m,), A, True, True)

    def call(self, inp):
        g = self.graphs
        builder = {
            "edges": g.from_edges,
            "cycle": g.cycle_graph,
            "path": g.path_graph,
            "bipartite": g.complete_bipartite,
            "dihedral": g.dihedral_reflection_cayley,
        }[inp[0]]
        graph = builder(*inp[1])
        connected = g.is_connected(graph)
        return (
            graph,
            connected,
            g.is_regular(graph),
            g.hamiltonian_screen(graph),
            g.traceable_screen(graph),
            g.distance_hamiltonian_screen(graph) if connected else None,
        )

    @staticmethod
    def _screen_checks(screen, M: np.ndarray) -> ref.BoundChecks | None:
        checks = ref.BoundChecks(M, symmetric=True)
        n = M.shape[0]
        return checks if checks.holds(n, screen.value, M.sum() / (n * (n - 1))) else None

    def check(self, inp, out) -> Outcome:
        kind, _args, A, hamiltonian, traceable = inp
        graph, connected, regular, ham, trace, dist = out
        n = A.shape[0]
        if not np.array_equal(np.asarray(graph.adjacency), A):
            return FAILED
        deg = A.sum(axis=1)
        if connected != ref.is_connected(A) or regular != bool((deg == deg[0]).all()) or dist is None:
            return FAILED
        C = (1 - A - np.eye(n, dtype=np.int8)).astype(float)
        H = ref.hop_distances(A)
        hop = self._screen_checks(dist, H)
        if hop is None or self._screen_checks(ham, C) is None or not ref.close(ham.value, trace.value, n):
            return FAILED
        if hamiltonian and "excluded" in (ham.verdict, trace.verdict, dist.verdict):
            return FAILED
        if traceable and trace.verdict == "excluded":
            return FAILED
        # sparse random graphs have a negative hop-distance bound; see _bound_outcome
        return Outcome(True, [dist.value / hop.tour] if kind != "edges" else [])


# --- cli-tsplib ---------------------------------------------------------------

EXPLICIT_FORMATS = ("FULL_MATRIX", "UPPER_ROW", "LOWER_ROW", "UPPER_DIAG_ROW", "LOWER_DIAG_ROW")


def _explicit_rows(W: np.ndarray, fmt: str):
    n = W.shape[0]
    for i in range(n):
        row = {
            "FULL_MATRIX": W[i],
            "UPPER_ROW": W[i, i + 1 :],
            "LOWER_ROW": W[i, :i],
            "UPPER_DIAG_ROW": W[i, i:],
            "LOWER_DIAG_ROW": W[i, : i + 1],
        }[fmt]
        if row.size:
            yield " ".join(str(int(x)) for x in row)


def write_round(directory: Path, rng: np.random.Generator, coord_n: int, explicit_n: int) -> list[Path]:
    """Write one round of TSPLIB files: EUC_2D, ATT and GEO, then EXPLICIT in all five packings."""
    directory.mkdir(parents=True, exist_ok=True)
    files = []

    def write(name: str, header: list[str], body: list[str]) -> None:
        path = directory / f"{name}.tsp"
        path.write_text("\n".join([f"NAME: {name}", "TYPE: TSP", *header, *body, "EOF", ""]))
        files.append(path)

    for wtype in ("EUC_2D", "ATT", "GEO"):
        if wtype == "GEO":
            # DDD.MM: whole degrees, then minutes 0..59 after the point
            deg = rng.integers([-60, -180], [61, 181], size=(coord_n, 2))
            minutes = rng.integers(0, 60, size=(coord_n, 2))
            xy = np.sign(deg) * (np.abs(deg) + minutes / 100.0)
            coords = [f"{i + 1} {x:.2f} {y:.2f}" for i, (x, y) in enumerate(xy)]
        else:
            xy = rng.integers(0, 10000, size=(coord_n, 2))
            coords = [f"{i + 1} {x} {y}" for i, (x, y) in enumerate(xy)]
        header = [f"DIMENSION: {coord_n}", f"EDGE_WEIGHT_TYPE: {wtype}", "NODE_COORD_SECTION"]
        write(wtype.lower(), header, coords)
    for fmt in EXPLICIT_FORMATS:
        W = np.floor(_euclidean(rng.random((explicit_n, 2)) * 1000.0) + 0.5)
        header = [
            f"DIMENSION: {explicit_n}",
            "EDGE_WEIGHT_TYPE: EXPLICIT",
            f"EDGE_WEIGHT_FORMAT: {fmt}",
            "EDGE_WEIGHT_SECTION",
        ]
        write(fmt.lower(), header, list(_explicit_rows(W, fmt)))
    return files


def write_manifest(directory: Path, files: list[Path]) -> Path:
    lines = []
    for f in files:
        sidecar = f.with_suffix(".opt")
        lines.append(f"{f},{sidecar}" if sidecar.exists() else str(f))
    path = directory / "batch.manifest"
    path.write_text("\n".join(lines) + "\n")
    return path


# EXPLICIT files of a round that `batch` runs on, besides the fixtures
BATCH_EXPLICIT = 1


def batch_files(files: list[Path], explicit: int = BATCH_EXPLICIT) -> list[Path]:
    """What `batch` runs on: the first `explicit` EXPLICIT files of a round and the fixtures.

    In the timed loop a batch holds one n=200 file, so it costs about what a
    `bound` on an n=400 coordinate file costs and p90 falls inside that top
    class.  Heavier batches are too noisy for a bound: two pool workers, each
    with the machine's BLAS threads, share its two cores.  With all five
    EXPLICIT files a batch took 1.9-3.7 s, and with the n=400 files 8-12 s.
    cli.batch_jobs2_speedup measures that heavier manifest.
    """
    return [f for f in files if f.stem.upper() in EXPLICIT_FORMATS][:explicit] + FIXTURES


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


class CliTsplib(Workload):
    """`python -m spectral_tsp.cli bound <file>` per file and `batch --jobs 2` once per round."""

    name = "cli-tsplib"
    # per round: 3 coordinate files, 5 explicit packings, 3 fixtures, then one batch
    # over one explicit file and the fixtures; see batch_files
    schedule = (
        ("fixture", 0),
        ("round", 3),
        ("round", 0),
        ("round", 4),
        ("fixture", 1),
        ("round", 1),
        ("round", 5),
        ("round", 6),
        ("fixture", 2),
        ("round", 2),
        ("round", 7),
        ("batch", None),
    )
    via_subprocess = True

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        from spectral_tsp import cli, tsplib

        self.cli, self.tsplib = cli, tsplib
        self.coord_n, self.explicit_n = (400, 200) if not small else (30, 20)
        self.env = cli_env()
        self.rounds: dict[int, tuple[list[Path], Path]] = {}
        self.refs: dict[str, ref.BoundChecks] = {}

    def _add_refs(self, files: list[Path]) -> None:
        for f in files:
            # the program's own parse defines the matrix its bound must hold on
            self.refs[str(f.resolve())] = ref.BoundChecks(self.tsplib.load_tsplib(f).matrix, symmetric=True)

    def _round(self, r: int) -> tuple[list[Path], Path]:
        if r not in self.rounds:
            directory = self.workdir / f"round{r}"
            files = write_round(directory, _rng(self.seed, r % 2**32, 2), self.coord_n, self.explicit_n)
            self._add_refs(files)
            self.rounds[r] = (files, write_manifest(directory, batch_files(files)))
        return self.rounds[r]

    def setup(self) -> None:
        self.rounds.clear()
        self.refs.clear()
        shutil.rmtree(self.workdir / "round0", ignore_errors=True)
        self._add_refs(FIXTURES)
        self._round(0)
        self.call(("bound", str(FIXTURES[0])))

    def make(self, k):
        kind, idx = self.kind(k)
        files, manifest = self._round(k // self.cycle)
        if kind == "batch":
            return ("batch", str(manifest), "--jobs", "2")
        return ("bound", str(FIXTURES[idx] if kind == "fixture" else files[idx]))

    def call(self, argv):
        if self.via_subprocess:
            done = subprocess.run(
                [sys.executable, "-m", "spectral_tsp.cli", *argv],
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
            )
            return done.returncode, done.stdout
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(argv))
        return code, buf.getvalue()

    def check(self, argv, out) -> Outcome:
        code, stdout = out
        want = len(FIXTURES) + BATCH_EXPLICIT if argv[0] == "batch" else 1
        try:
            docs = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        except json.JSONDecodeError:
            return FAILED
        if code != 0 or len(docs) != want:
            return FAILED
        outcome = Outcome(True)
        for doc in docs:
            checks = self.refs.get(str(Path(doc.get("instance", {}).get("source") or "").resolve()))
            if "error" in doc or checks is None or not checks.holds(doc["instance"]["n"], doc["phi"], doc["mean_distance"]):
                return FAILED
            outcome.tightness.append(doc["phi"] / checks.tour)
        return outcome


WORKLOADS = {w.name: w for w in (BoundApi, CliTsplib, GraphScreen, SolveVerify)}
