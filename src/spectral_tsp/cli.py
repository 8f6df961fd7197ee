"""Command line front end.

Four subcommands, all emitting one JSON document per result on stdout:

  bound        spectral lower bounds for one instance (file or --family)
  solve        exact or heuristic tour for one instance
  check-graph  spectral Hamiltonicity screens for a graph
  batch        bound reports for every line of a manifest file

Output is deterministic byte for byte: fields appear in fixed order and
timing is reported as null unless --timing is given.  --pretty adds a
human-readable summary on stderr, leaving stdout machine-clean.  The
decision tolerance defaults to 1e-8, can be set for a whole shell via the
SPECTRAL_TSP_TOL environment variable, and per-run via --tol; either must
be a finite number >= 0, else the run exits 2.

Exit codes: 0 success, 2 unreadable or unparseable input, 3 valid input
rejected by a numeric precondition (asymmetry, size caps, and so on).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import bounds, graphs, instances, solvers, tsplib
from .errors import InputFormatError, SpectralTspError

_MATRIX_FAMILIES = {
    "uniform": lambda a: instances.uniform_instance(a.n),
    "circle": lambda a: instances.circle_instance(a.n),
    "line": lambda a: instances.line_instance(a.n),
    "two-cluster": lambda a: instances.two_cluster_instance(a.n),
    "random-euclidean": lambda a: instances.random_euclidean(a.n, a.seed, a.dim)[0],
    "random-symmetric": lambda a: instances.random_symmetric(a.n, a.seed),
    "random-asymmetric": lambda a: instances.random_asymmetric(a.n, a.seed),
    "random-circulant": lambda a: instances.random_circulant(a.n, a.seed),
}

_GRAPH_FAMILIES = {
    "path": lambda a: graphs.path_graph(a.n),
    "cycle": lambda a: graphs.cycle_graph(a.n),
    "complete": lambda a: graphs.complete_graph(a.n),
    "complete-bipartite": lambda a: graphs.complete_bipartite(a.n, a.m),
    "bow-tie": lambda a: graphs.bow_tie(),
    "dihedral-reflection": lambda a: graphs.dihedral_reflection_cayley(a.m),
}

_GRAPH_FAMILY_PARAMS = {
    "path": ("n",),
    "cycle": ("n",),
    "complete": ("n",),
    "complete-bipartite": ("n", "m"),
    "bow-tie": (),
    "dihedral-reflection": ("m",),
}


def _tolerance(flag: str | None) -> float:
    """--tol, else a non-empty SPECTRAL_TSP_TOL, else 1e-8; each must be a finite number >= 0."""
    env = os.environ.get("SPECTRAL_TSP_TOL") or "1e-8"
    source, raw = ("--tol", flag) if flag is not None else ("SPECTRAL_TSP_TOL", env)
    try:
        tol = float(raw)
    except ValueError:
        tol = np.nan
    if not 0.0 <= tol < np.inf:
        raise InputFormatError(f"{source} must be a finite number >= 0, got {raw!r}")
    return tol


def _load_matrix(args) -> tuple[np.ndarray, dict, float | None]:
    """Resolve the instance a subcommand names: a file path or a family."""
    if args.family:
        if args.n is None:
            raise InputFormatError("--family needs --n")
        D = _MATRIX_FAMILIES[args.family](args)
        name = f"{args.family}-{args.n}"
        if args.family.startswith("random"):
            name += f"-s{args.seed}"
        return D, {"name": name, "n": D.shape[0], "source": "generated"}, None
    if not args.input:
        raise InputFormatError("give a problem file or --family")
    problem, optimum = tsplib.load_with_optimum(args.input, args.sidecar)
    meta = {"name": problem.name, "n": problem.dimension, "source": str(args.input)}
    return problem.matrix, meta, optimum


def _emit(doc: dict, pretty_lines: list[str] | None, args) -> None:
    print(json.dumps(doc))
    if args.pretty and pretty_lines:
        print("\n".join(pretty_lines), file=sys.stderr)


def _bound_doc(D: np.ndarray, meta: dict, optimum: float | None, tol: float) -> dict:
    rep = bounds.bound_report(D, tol)
    doc = {
        "kind": "bound",
        "instance": meta,
        "symmetric": rep.symmetric,
        "normal": rep.normal,
        "psd": rep.psd,
        "phi": rep.phi,
        "phi_symmetric": rep.phi_symmetric,
        "phi_normal": rep.phi_normal,
        "phi_general": rep.phi_general,
        "n2": rep.n2,
        "euclidean_floor": rep.euclidean_floor,
        "mean_distance": rep.mean_distance,
        "mu": rep.mu,
        "optimum": optimum,
        "ratio": (rep.phi / optimum) if optimum else None,
    }
    return doc


def _cmd_bound(args) -> int:
    t0 = time.perf_counter()
    D, meta, optimum = _load_matrix(args)
    doc = _bound_doc(D, meta, optimum, args.tol)
    doc["timing_ms"] = round((time.perf_counter() - t0) * 1e3, 3) if args.timing else None
    lines = [
        f"{meta['name']}: n={meta['n']} phi={doc['phi']:.6f} psd={'yes' if doc['psd'] else 'no'}"
    ]
    if doc["ratio"] is not None:
        lines.append(f"  optimum={optimum:g} ratio={doc['ratio']:.3f}")
    _emit(doc, lines, args)
    return 0


def _cmd_solve(args) -> int:
    t0 = time.perf_counter()
    D, meta, optimum = _load_matrix(args)
    method = {
        "brute": solvers.brute_force,
        "held-karp": solvers.held_karp,
        "two-opt": lambda M: solvers.two_opt(M, seed=args.seed),
    }[args.method]
    tour = method(D)
    doc = {
        "kind": "solve",
        "instance": meta,
        "method": args.method,
        "length": tour.length,
        "order": tour.order,
        "optimum": optimum,
        "timing_ms": round((time.perf_counter() - t0) * 1e3, 3) if args.timing else None,
    }
    _emit(doc, [f"{meta['name']}: {args.method} length={tour.length:g}"], args)
    return 0


def _screen_doc(s: graphs.ScreenResult) -> dict:
    return {
        "value": s.value,
        "threshold": s.threshold,
        "verdict": s.verdict,
        "saturated": s.saturated,
    }


def _cmd_check_graph(args) -> int:
    t0 = time.perf_counter()
    if args.family:
        for param in _GRAPH_FAMILY_PARAMS[args.family]:
            if getattr(args, param) is None:
                raise InputFormatError(f"--family {args.family} needs --{param}")
        g = _GRAPH_FAMILIES[args.family](args)
        meta = {"name": args.family, "n": g.n, "source": "generated"}
    elif args.input:
        g = graphs.graph_from_text(Path(args.input).read_text(), args.format)
        meta = {"name": Path(args.input).stem, "n": g.n, "source": str(args.input)}
    else:
        raise InputFormatError("give a graph file or --family")

    connected = graphs.is_connected(g)
    doc = {
        "kind": "graph-screen",
        "instance": meta,
        "connected": connected,
        "regular": graphs.is_regular(g),
        "hamiltonian": _screen_doc(graphs.hamiltonian_screen(g, args.tol)),
        "traceable": _screen_doc(graphs.traceable_screen(g, args.tol)),
        "distance_hamiltonian": (
            _screen_doc(graphs.distance_hamiltonian_screen(g, args.tol)) if connected else None
        ),
        "timing_ms": round((time.perf_counter() - t0) * 1e3, 3) if args.timing else None,
    }
    lines = [f"{meta['name']}: n={g.n}"]
    for label in ("hamiltonian", "traceable", "distance_hamiltonian"):
        s = doc[label]
        if s is None:
            lines.append(f"  {label}: skipped (disconnected)")
        else:
            sat = " (saturated)" if s["saturated"] else ""
            lines.append(f"  {label}: {s['verdict']} value={s['value']:.6f} threshold={s['threshold']:g}{sat}")
    _emit(doc, lines, args)
    return 0


def _manifest_rows(path: Path) -> list[tuple[str, str | None]]:
    rows = []
    for lineno, raw in enumerate(path.read_text().splitlines()):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) > 2 or not parts[0]:
            raise InputFormatError(f"{path}, line {lineno + 1}: expected 'problem[,sidecar]'")
        base = path.parent
        problem = str(base / parts[0])
        sidecar = str(base / parts[1]) if len(parts) == 2 and parts[1] else None
        rows.append((problem, sidecar))
    return rows


def _batch_row(job) -> dict:
    problem_path, sidecar_path, tol = job
    try:
        problem, optimum = tsplib.load_with_optimum(problem_path, sidecar_path)
        meta = {"name": problem.name, "n": problem.dimension, "source": problem_path}
        return _bound_doc(problem.matrix, meta, optimum, tol)
    except (SpectralTspError, OSError) as e:
        return {
            "kind": "bound",
            "instance": {"name": None, "n": None, "source": problem_path},
            "error": str(e),
            "error_kind": "input" if isinstance(e, (InputFormatError, OSError)) else "numeric",
        }


def _cmd_batch(args) -> int:
    rows = _manifest_rows(Path(args.manifest))
    jobs = [(p, s, args.tol) for p, s in rows]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            docs = list(pool.map(_batch_row, jobs))
    else:
        docs = [_batch_row(j) for j in jobs]

    worst = 0
    pretty = [f"{'name':<12} {'n':>4} {'phi':>14} {'optimum':>10} {'ratio':>7}  psd"]
    for doc in docs:
        print(json.dumps(doc))
        if "error" in doc:
            worst = max(worst, 2 if doc["error_kind"] == "input" else 3)
            pretty.append(f"{doc['instance']['source']}: ERROR {doc['error']}")
            continue
        m = doc["instance"]
        ratio = f"{doc['ratio']:.3f}" if doc["ratio"] is not None else "-"
        opt = f"{doc['optimum']:g}" if doc["optimum"] is not None else "-"
        pretty.append(
            f"{m['name']:<12} {m['n']:>4} {doc['phi']:>14.6f} {opt:>10} {ratio:>7}  "
            + ("yes" if doc["psd"] else "no")
        )
    if args.pretty:
        print("\n".join(pretty), file=sys.stderr)
    return worst


def _add_instance_options(p: argparse.ArgumentParser, families: dict) -> None:
    p.add_argument("input", nargs="?", help="problem file (omit when using --family)")
    p.add_argument("--family", choices=sorted(families), help="generate a stock instance")
    p.add_argument("--n", type=int, help="instance size for --family")
    p.add_argument("--m", type=int, help="second size parameter, where the family takes one")
    p.add_argument("--dim", type=int, default=2, help="dimension for random-euclidean")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized families")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spectral-tsp", description=__doc__.split("\n\n")[0])
    ap.add_argument("--tol", default=None, help="decision tolerance >= 0 (default 1e-8, or SPECTRAL_TSP_TOL)")
    ap.add_argument("--pretty", action="store_true", help="also print a human summary to stderr")
    ap.add_argument("--timing", action="store_true", help="fill timing_ms (off by default so output is deterministic)")
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # subcommand parse from clobbering a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    common.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    common.add_argument("--timing", action="store_true", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", parents=[common], help="spectral lower bounds for one instance")
    _add_instance_options(p, _MATRIX_FAMILIES)
    p.add_argument("--sidecar", help="file holding 'optimum: <value>'")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("solve", parents=[common], help="run a tour solver on one instance")
    _add_instance_options(p, _MATRIX_FAMILIES)
    p.add_argument("--sidecar", help="file holding 'optimum: <value>'")
    p.add_argument("--method", choices=("brute", "held-karp", "two-opt"), default="held-karp")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check-graph", parents=[common], help="spectral Hamiltonicity screens for a graph")
    p.add_argument("input", nargs="?", help="graph file (omit when using --family)")
    p.add_argument("--family", choices=sorted(_GRAPH_FAMILIES), help="generate a stock graph")
    p.add_argument("--n", type=int, help="vertex count parameter")
    p.add_argument("--m", type=int, help="second parameter (bipartite part, polygon size)")
    p.add_argument("--format", choices=("auto", "edges", "adjacency"), default="auto")
    p.set_defaults(func=_cmd_check_graph)

    p = sub.add_parser("batch", parents=[common], help="bound reports for a manifest of problem files")
    p.add_argument("manifest", help="text file: one 'problem[,sidecar]' per line, paths relative to it")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (output order is still manifest order)")
    p.set_defaults(func=_cmd_batch)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.tol = _tolerance(args.tol)
        return args.func(args)
    except (InputFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SpectralTspError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
