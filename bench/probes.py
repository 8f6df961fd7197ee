"""Layer measurements taken outside the workload loop, and the environment record.

These run in every traced run, untraced, so every per-layer metric has a
value on every workload.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from workloads import EXPLICIT_FORMATS, ROOT, batch_files, cli_env, write_manifest, write_round


def _wall(argv: list[str], env: dict) -> float:
    start = perf_counter()
    subprocess.run(argv, check=True, capture_output=True, env=env, cwd=ROOT)
    return perf_counter() - start


def cli_import_ms(reps: int) -> float:
    """`import spectral_tsp.cli` in a fresh interpreter, minus a bare interpreter start."""
    env = cli_env()
    bare, full = [], []
    for _ in range(reps):
        bare.append(_wall([sys.executable, "-c", "pass"], env))
        full.append(_wall([sys.executable, "-c", "import spectral_tsp.cli"], env))
    return 1e3 * (statistics.median(full) - statistics.median(bare))


def batch_jobs2_speedup(workdir: Path, rng: np.random.Generator, explicit_n: int, reps: int) -> float:
    """Wall time of `batch --jobs 1` over that of `--jobs 2`, on a round's five EXPLICIT files and the fixtures."""
    files = write_round(workdir / "batch-probe", rng, 3, explicit_n)
    manifest = write_manifest(workdir / "batch-probe", batch_files(files, len(EXPLICIT_FORMATS)))
    env = cli_env()
    cmd = [sys.executable, "-m", "spectral_tsp.cli", "batch", str(manifest), "--jobs"]
    one, two = [], []
    for _ in range(reps):
        one.append(_wall(cmd + ["1"], env))
        two.append(_wall(cmd + ["2"], env))
    return statistics.median(one) / statistics.median(two)


def report_per_eigvalsh(rng: np.random.Generator, n: int, reps: int) -> float:
    """bound_report time over one np.linalg.eigvalsh time, on the same Euclidean matrix."""
    from spectral_tsp import bounds

    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    D = np.sqrt((diff * diff).sum(axis=2))

    def median_time(fn, k: int) -> float:
        times = []
        for _ in range(k):
            start = perf_counter()
            fn(D)
            times.append(perf_counter() - start)
        return statistics.median(times)

    return median_time(bounds.bound_report, reps) / median_time(np.linalg.eigvalsh, 2 * reps + 1)


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS numpy loaded, read from the library itself."""
    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")))
    out = {"library": os.path.basename(libs[0]) if libs else None, "threads": None, "config": None}
    if not libs:
        return out
    lib = ctypes.CDLL(libs[0])
    # numpy wheels rename the symbols with a scipy_ prefix and a 64_ suffix; plain builds keep them
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        config = getattr(lib, f"{prefix}get_config{suffix}", None)
        if threads is not None and config is not None:
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            out["threads"] = threads()
            out["config"] = config().decode()
            break
    return out


def environment() -> dict:
    model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas": _openblas(),
        "thread_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
