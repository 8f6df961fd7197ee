"""Command line front end.

bound, solve and check-graph report on one instance or graph; batch runs
bound on each 'problem[,sidecar]' row of a manifest, in order, in this
process (--jobs N >= 1 changes nothing).  Each result is one JSON document
on stdout, the same byte for byte on every run: fields in fixed order
(bounds.BoundReport's and graphs.ScreenResult's in declaration order, plus
kind, instance, optimum, ratio and timing_ms), timing_ms null without
--timing.  --pretty adds a summary on stderr.  The tolerance is --tol, else
SPECTRAL_TSP_TOL, else 1e-8, and must be a finite number >= 0.  --n, --m,
--dim and graph files are capped at graphs.SIZE_CAP (2048) vertices, a
TSPLIB DIMENSION at twice that.

Exit codes: 0 success, 2 unreadable or unparseable input (a bad tolerance
too), 3 valid input rejected by a numeric precondition (asymmetry, size
caps, tour lengths that overflow, a bound or ratio JSON cannot carry as a
finite number, and so on).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds, graphs, instances, solvers, tsplib
from .errors import InputFormatError, InvalidTolerance, SpectralTspError, TooLarge
from .linalg import check_tol

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

# errors that exit 2 (a file that cannot be read or parsed); other SpectralTspErrors exit 3
_INPUT_ERRORS = (InputFormatError, OSError, UnicodeDecodeError)

# family: (builder, the flags it takes as positional arguments)
_GRAPH_FAMILIES = {
    "path": (graphs.path_graph, ("n",)),
    "cycle": (graphs.cycle_graph, ("n",)),
    "complete": (graphs.complete_graph, ("n",)),
    "complete-bipartite": (graphs.complete_bipartite, ("n", "m")),
    "bow-tie": (graphs.bow_tie, ()),
    "dihedral-reflection": (graphs.dihedral_reflection_cayley, ("m",)),
}


def _tolerance(flag: str | None) -> float:
    """--tol, else a non-empty SPECTRAL_TSP_TOL, else 1e-8; each must be a finite number >= 0."""
    env = os.environ.get("SPECTRAL_TSP_TOL") or "1e-8"
    source, raw = ("--tol", flag) if flag is not None else ("SPECTRAL_TSP_TOL", env)
    try:
        return check_tol(float(raw))
    except (ValueError, InvalidTolerance):
        raise InputFormatError(f"{source} must be a finite number >= 0, got {raw!r}") from None


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
    return _load_problem(str(args.input), args.sidecar)


def _load_problem(path: str, sidecar: str | None) -> tuple[np.ndarray, dict, float | None]:
    """A problem file's matrix, its `instance` entry and its optimum (None without a sidecar)."""
    problem, optimum = tsplib.load_with_optimum(path, sidecar)
    return problem.matrix, {"name": problem.name, "n": problem.dimension, "source": path}, optimum


def _emit(doc: dict, pretty_lines: list[str], args) -> None:
    doc["timing_ms"] = round((time.perf_counter() - args.t0) * 1e3, 3) if args.timing else None
    print(json.dumps(doc, allow_nan=False))
    if args.pretty:
        print("\n".join(pretty_lines), file=sys.stderr)


def _bound_doc(D: np.ndarray, meta: dict, optimum: float | None, tol: float) -> dict:
    fields = dataclasses.asdict(bounds.bound_report(D, tol))
    del fields["n"]  # the instance entry carries it
    ratio = fields["phi"] / optimum if optimum else None
    if not np.isfinite([x for x in (*fields.values(), *fields["mu"], ratio) if isinstance(x, float)]).all():
        raise SpectralTspError("a bound or ratio is not a finite number, which JSON cannot carry")
    return {"kind": "bound", "instance": meta, **fields, "optimum": optimum, "ratio": ratio}


def _cmd_bound(args) -> int:
    D, meta, optimum = _load_matrix(args)
    doc = _bound_doc(D, meta, optimum, args.tol)
    lines = [
        f"{meta['name']}: n={meta['n']} phi={doc['phi']:.6f} psd={'yes' if doc['psd'] else 'no'}"
    ]
    if doc["ratio"] is not None:
        lines.append(f"  optimum={optimum:g} ratio={doc['ratio']:.3f}")
    _emit(doc, lines, args)
    return 0


def _cmd_solve(args) -> int:
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
    }
    _emit(doc, [f"{meta['name']}: {args.method} length={tour.length:g}"], args)
    return 0


def _cmd_check_graph(args) -> int:
    if args.family:
        build, params = _GRAPH_FAMILIES[args.family]
        for param in params:
            if getattr(args, param) is None:
                raise InputFormatError(f"--family {args.family} needs --{param}")
        g = build(*(getattr(args, param) for param in params))
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
        "hamiltonian": dataclasses.asdict(graphs.hamiltonian_screen(g, args.tol)),
        "traceable": dataclasses.asdict(graphs.traceable_screen(g, args.tol)),
        "distance_hamiltonian": (
            dataclasses.asdict(graphs.distance_hamiltonian_screen(g, args.tol)) if connected else None
        ),
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
        if len(parts) > 2 or not parts[0] or "\0" in line:
            raise InputFormatError(f"{path}, line {lineno + 1}: expected 'problem[,sidecar]'")
        base = path.parent
        problem = str(base / parts[0])
        sidecar = str(base / parts[1]) if len(parts) == 2 and parts[1] else None
        rows.append((problem, sidecar))
    return rows


def _batch_row(problem_path: str, sidecar_path: str | None, tol: float) -> dict:
    try:
        return _bound_doc(*_load_problem(problem_path, sidecar_path), tol)
    except (SpectralTspError, *_INPUT_ERRORS) as e:
        return {
            "kind": "bound",
            "instance": {"name": None, "n": None, "source": problem_path},
            "error": str(e),
            "error_kind": "input" if isinstance(e, _INPUT_ERRORS) else "numeric",
        }


def _cmd_batch(args) -> int:
    if args.jobs < 1:
        raise InputFormatError(f"--jobs must be at least 1, got {args.jobs}")
    docs = [_batch_row(p, s, args.tol) for p, s in _manifest_rows(Path(args.manifest))]
    worst = 0
    pretty = [f"{'name':<12} {'n':>4} {'phi':>14} {'optimum':>10} {'ratio':>7}  psd"]
    for doc in docs:
        print(json.dumps(doc, allow_nan=False))
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


def _add_instance_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", help="problem file (omit when using --family)")
    p.add_argument("--family", choices=sorted(_MATRIX_FAMILIES), help="generate a stock instance")
    p.add_argument("--n", type=int, help="instance size for --family")
    p.add_argument("--dim", type=int, default=2, help="dimension for random-euclidean")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized families")
    p.add_argument("--sidecar", help="file holding 'optimum: <value>'")


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
    _add_instance_options(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("solve", parents=[common], help="run a tour solver on one instance")
    _add_instance_options(p)
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
    p.add_argument("--jobs", type=int, default=1, help="at least 1; rows run in order in this process whatever its value")
    p.set_defaults(func=_cmd_batch)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.t0 = time.perf_counter()
    try:
        args.tol = _tolerance(args.tol)
        for flag in ("n", "m", "dim"):
            value = getattr(args, flag, None)
            if value is not None and value > graphs.SIZE_CAP:
                raise TooLarge(f"--{flag} is capped at {graphs.SIZE_CAP}, got {value}")
        return args.func(args)
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SpectralTspError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
