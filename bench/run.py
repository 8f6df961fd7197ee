"""Benchmark of spectral_tsp: four closed-loop workloads, one client each.

    python3 bench/run.py --workload bound-api --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  Set-up is repeated SETUP_REPS times and its median
reported.  Operations then run in whole cycles until --seconds of operation
time have passed, and every output is checked (see reference.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs TRACE_CYCLES
cycles twice on the same inputs, untraced and then traced (see tracer.py),
and prints the per-layer metrics, the tracing overhead and the probes of
probes.py; the spans are written to .bench_run/ in the checkout.  The last line of stdout is the
result object; the line before it records the run and its environment.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_run"
SETUP_REPS = 5
MIN_CYCLES = 2
# the traced run measures a fixed number of cycles, so its per-operation counts repeat exactly
TRACE_CYCLES = 4
# a run gives up on whole cycles after this much wall time, to stay inside its time limit
WALL_CAP_FACTOR = 2.5


# Machine-speed correction.  On the 2-vCPU reference machine the speed of
# single-threaded code drifts by 15-25 % over tens of seconds and between
# minutes.  So before every operation the run times a fixed calibration, and
# the end-to-end times are scaled by CALIBRATION_REF_S / (the run's median
# calibration time): they read as times on the reference machine at its
# usual speed.  The unscaled values are printed on the run line.
#
# The calibration is the geometric mean of two timings.  A pure-Python loop
# tracks the Python-bound work (graphs, solvers, CLI start-up), but it
# swings about twice as far as numpy/BLAS-bound work such as bound_report,
# which it over-corrects.  A single-threaded numpy loop (element-wise work
# and a sort) tracks that work; no BLAS call is in it, so BLAS thread
# settings that a program change may make do not move it.  Over 18 windows
# of 20 s, the spread of log op time left after scaling went from 0.070 to
# 0.044 for bound_report (n=400), 0.053 to 0.037 for brute_force (n=10),
# 0.050 to 0.046 for a graph screen (n=160), stayed 0.038 for two_opt
# (n=250), and went from 0.089 to 0.092 for a CLI `bound`.
CALIBRATION_ITERS = 30000
CALIBRATION_REF_S = 0.0062


@functools.cache
def _calibration_arrays():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.random((400, 400)), rng.random(100_000)


def calibrate() -> float:
    import numpy as np

    X, Y = _calibration_arrays()
    start = perf_counter()
    acc = 0
    table = {}
    for i in range(CALIBRATION_ITERS):
        acc += i * i % 7
        table[i & 1023] = acc
    python_s = perf_counter() - start
    start = perf_counter()
    for _ in range(3):
        np.sqrt((X * X).sum(axis=1))
        np.sort(Y)
        np.abs(X - X.T).max()
    return math.sqrt(python_s * (perf_counter() - start))


@dataclass
class Record:
    kind: str
    latency: float
    ok: bool
    tightness: list
    tour_ratio: list
    calibration: float


def run_ops(wl, wall_cap: float, seconds: float | None = None, ops: int | None = None, tracer=None) -> list[Record]:
    """Run whole cycles of operations until `seconds` of operation time, or exactly `ops` operations.

    A timed run takes at least MIN_CYCLES cycles.  Past `wall_cap` seconds of
    wall time the run stops even inside a cycle.
    """
    from workloads import FAILED

    records: list[Record] = []
    busy = 0.0
    start = perf_counter()
    k = 0
    while True:
        if k % wl.cycle == 0 and (
            (busy >= seconds and k >= MIN_CYCLES * wl.cycle) if ops is None else k >= ops
        ):
            break
        if perf_counter() - start > wall_cap:
            break
        inp = wl.make(k)
        calibration = calibrate()
        if tracer is not None:
            tracer.begin_op(k)
        t0 = perf_counter()
        try:
            out = wl.call(inp)
            error = False
        except Exception:
            traceback.print_exc(file=sys.stderr)
            error = True
        latency = perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        try:
            outcome = FAILED if error else wl.check(inp, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcome = FAILED
        busy += latency
        records.append(Record(str(wl.kind(k)), latency, outcome.ok, outcome.tightness, outcome.tour_ratio, calibration))
        k += 1
    return records


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def end_to_end(
    records: list[Record], cycle: int, setups: list[tuple[float, float]], peak_rss_mb: float
) -> tuple[dict, dict]:
    """The end-to-end metrics, scaled to reference speed, and the unscaled times.

    `setups` holds (set-up time, calibration time just before it) per set-up.
    """
    import numpy as np

    lat = np.array([r.latency for r in records])
    failed = sum(not r.ok for r in records)
    # throughput of each whole cycle, so that one stalled stretch moves the median little
    cycles = lat[: len(lat) // cycle * cycle].reshape(-1, cycle).sum(axis=1)
    raw = {
        "setup_s": statistics.median(t for t, _ in setups),
        "ops_per_s": cycle / float(np.median(cycles)) if len(cycles) else len(lat) / lat.sum(),
        "latency_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "latency_p90_ms": 1e3 * float(np.percentile(lat, 90)),
    }
    calibration = statistics.median(r.calibration for r in records)
    scale = CALIBRATION_REF_S / calibration
    metrics = {
        "setup_s": (statistics.median(t * CALIBRATION_REF_S / c for t, c in setups), "s"),
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] * scale, "ms"),
        "latency_p90_ms": (raw["latency_p90_ms"] * scale, "ms"),
        "success_rate": (1.0 - failed / len(records), "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "bound_tightness": (_mean([t for r in records for t in r.tightness]), "ratio"),
    }
    return metrics, {"calibration_ms": 1e3 * calibration, "scale": scale, "unscaled": raw}


PER_LAYER_UNITS = {
    "calls": "calls/op",
    "self_ms": "ms/op",
    "share": "frac",
    "calls_per_op": "calls/op",
    "eigensolves_per_op": "calls/op",
    "validations_per_op": "calls/op",
    "lsap_calls_per_op": "calls/op",
    "phi_calls_per_graph": "calls/op",
    "builder_ms": "ms/op",
    "overhead_frac": "frac",
    "batch_jobs2_speedup": "x",
    "report_per_eigvalsh": "x",
    "report_per_eigvalsh_n1000": "x",
    "tour_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    parts = name.split(".")
    for part in reversed(parts):
        if part in PER_LAYER_UNITS:
            return PER_LAYER_UNITS[part]
    return "ms"


def traced_run(wl, seconds: float, small: bool, spans_path: Path) -> tuple[list[Record], dict]:
    import numpy as np

    import probes
    from tracer import Tracer, layer_metrics

    untraced = run_ops(wl, WALL_CAP_FACTOR * seconds, ops=TRACE_CYCLES * wl.cycle)
    base = sum(r.latency for r in untraced)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(wl, WALL_CAP_FACTOR * max(base, 1.0), ops=len(untraced), tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    busy = sum(r.latency for r in traced)
    metrics = layer_metrics(tracer.spans, len(traced), busy)
    metrics["trace.overhead_frac"] = busy / sum(r.latency for r in untraced[: len(traced)]) - 1.0
    metrics["solvers.tour_ratio"] = _mean([t for r in traced for t in r.tour_ratio])

    rng = np.random.default_rng([wl.seed, 2**33])
    metrics["cli.import_ms"] = probes.cli_import_ms(1 if small else 5)
    explicit_n = 20 if small else 200
    metrics["cli.batch_jobs2_speedup"] = probes.batch_jobs2_speedup(wl.workdir, rng, explicit_n, 1 if small else 3)
    metrics["bounds.report_per_eigvalsh"] = probes.report_per_eigvalsh(rng, 60 if small else 400, 1 if small else 5)
    metrics["bounds.report_per_eigvalsh_n1000"] = probes.report_per_eigvalsh(rng, 100 if small else 1000, 1)
    return untraced + traced, {name: (value, per_layer_unit(name)) for name, value in metrics.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke check")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import spectral_tsp
    except ImportError as exc:
        print(f"bench: cannot import spectral_tsp from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(spectral_tsp.__file__).resolve().parent != (ROOT / "src" / "spectral_tsp").resolve():
        print(f"bench: spectral_tsp imported from {spectral_tsp.__file__}, not this checkout", file=sys.stderr)
        return 2

    import probes
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = RUN_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        if args.trace:
            wl.via_subprocess = False  # spans are recorded in this process
        setups = []
        for _ in range(SETUP_REPS):
            calibration = calibrate()
            t0 = perf_counter()
            wl.setup()
            setups.append((perf_counter() - t0, calibration))
        speed = None
        if args.trace:
            spans_path = RUN_DIR / f"spans-{args.workload}-s{args.seed}.jsonl"
            records, metrics = traced_run(wl, args.seconds, args.smoke, spans_path)
        else:
            records = run_ops(wl, WALL_CAP_FACTOR * args.seconds, seconds=args.seconds)
            who = resource.RUSAGE_CHILDREN if wl.via_subprocess else resource.RUSAGE_SELF
            rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            metrics, speed = end_to_end(records, wl.cycle, setups, rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    by_kind = defaultdict(list)
    for r in records:
        by_kind[r.kind].append(r.latency)
    failed = sum(not r.ok for r in records)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {"latency": len(records), "setup": SETUP_REPS, "cycle": wl.cycle},
        "median_ms_by_kind": {k: round(1e3 * statistics.median(v), 3) for k, v in by_kind.items()},
        "speed": speed,
        "env": probes.environment(),
    }
    print(json.dumps({"run": details}))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
