"""Time one callable, or one CLI command, from two source trees of spectral_tsp in alternating order.

Both trees are imported into one process under different package names, so
each pair of timings runs on the same interpreter, the same BLAS and the
same machine state; a single before/after reading on a shared VM can be off
by far more than the change being measured.  Inputs are built once, from
the new tree, and handed to both.  A first, untimed call per input and tree
fills caches, and the two outputs must be equal: floats compare by their
bits, arrays by dtype, shape and bytes, and any difference is printed and
makes the exit status 1.

    python tools/interleave.py --call solvers.brute_force \\
        --case 'instances.random_symmetric(10, s)' \\
        --case 'instances.uniform_instance(10)' --seeds 0:5 --rounds 5

--call is an expression evaluated in each tree to the callable; --case is
an expression of the seed `s` evaluated in the new tree to its argument.
Names bound in both are the package's modules (solvers, instances, bounds,
...) and np.  The base tree is a git revision (--base, default HEAD),
extracted with `git archive` into a temporary directory, or a directory
holding src/spectral_tsp (--base-tree); the new tree is this checkout.
For each case and round every seed is timed once per tree, the tree that
goes first alternating from one pair to the next.  The table gives each
tree's median over all pairs, base / new, and how many pairs the new tree
won.  BLAS runs on one thread unless the environment says otherwise.  Both
trees' caches share the process, so a call can read slower here than in a
process of its own; the ratio is what the pairs measure.

    python tools/interleave.py --cli 'bound --family random-circulant --n 300' --rounds 10

--cli times a command as `python -m spectral_tsp.cli <argv>` subprocesses,
each with PYTHONPATH set to one tree's src, so interpreter start and
imports count, which no in-process timing sees.  The trees alternate
which goes first from one pair to the next, after one untimed run each.
Every run's exit code, stdout and stderr must equal the base tree's
untimed run byte for byte, else the difference is printed and the exit status is
1.  It prints each tree's median and quartiles of wall time, the median of
each run's peak resident memory (the child's ru_maxrss, from os.wait4), and
how many pairs the new tree won on time.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import io
import os
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":
    # BLAS reads its thread count once, when numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_tree(tree: Path, alias: str) -> dict:
    """Import tree/src/spectral_tsp as the package `alias`; return its modules by name."""
    pkg = tree / "src" / "spectral_tsp"
    spec = importlib.util.spec_from_file_location(alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    names = sorted(p.stem for p in pkg.glob("*.py") if p.stem != "__init__")
    return {"np": np, **{name: importlib.import_module(f"{alias}.{name}") for name in names}}


def extract(rev: str, into: Path) -> Path:
    """The src/ of git revision rev, unpacked under `into`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as f:
        f.extractall(into, filter="data")
    return into


def canon(x):
    """A value equal for two outputs exactly when they are equal bit for bit."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__, *(canon(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, np.ascontiguousarray(x).tobytes())
    if isinstance(x, (float, np.floating)):
        return ("float", float(x).hex())
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, *map(canon, x))
    if isinstance(x, dict):
        return ("dict", *sorted((k, canon(v)) for k, v in x.items()))
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, Exception):
        return ("raised", type(x).__name__, str(x))
    return x


def seeds(text: str) -> list[int]:
    """'a:b' for range(a, b), else a comma-separated list."""
    if ":" in text:
        a, b = text.split(":")
        return list(range(int(a), int(b)))
    return [int(x) for x in text.split(",")]


def timed(f, arg) -> tuple[float, object]:
    """Seconds taken by f(arg) and its output; an exception raised is the output."""
    t0 = time.perf_counter()
    try:
        out = f(arg)
    except Exception as e:  # noqa: BLE001 - an error is an output to compare
        out = e
    return time.perf_counter() - t0, out


def compare(base: dict, new: dict, call: str, cases: list[str], seed_list, rounds: int) -> bool:
    f_base, f_new = eval(call, dict(base)), eval(call, dict(new))
    print(f"{'case':48} {'base ms':>9} {'new ms':>9} {'base/new':>8} {'wins':>7}")
    same = True
    for case in cases:
        args = [eval(case, {**new, "s": s}) for s in seed_list]
        # an untimed first call per input fills caches and compares the outputs
        for seed, arg in zip(seed_list, args):
            outs = [timed(f, arg)[1] for f in (f_base, f_new)]
            if canon(outs[0]) != canon(outs[1]):
                same = False
                print(f"DIFFERENT OUTPUT {case} s={seed}:\n  base {outs[0]!r}\n  new  {outs[1]!r}")
        times = {"base": [], "new": []}
        for r in range(rounds):
            for k, arg in enumerate(args):
                pair = [("base", f_base), ("new", f_new)]
                for name, f in pair[:: 1 if (r + k) % 2 == 0 else -1]:
                    times[name].append(timed(f, arg)[0])
        mb, mn = statistics.median(times["base"]), statistics.median(times["new"])
        wins = sum(n < b for b, n in zip(times["base"], times["new"]))
        print(f"{case:48} {1e3 * mb:9.3f} {1e3 * mn:9.3f} {mb / mn:8.2f} {wins:>3}/{len(times['new']):<3}")
    return same


def run_cli(tree: Path, argv: list[str]) -> tuple[float, float, tuple]:
    """Wall seconds and peak RSS in MB (ru_maxrss / 1024) of the CLI run from tree/src on argv,
    and its (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "spectral_tsp.cli", *argv], stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(child.pid, 0)  # reaps the child: its own rusage, not the sum of all children's
        seconds = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return seconds, usage.ru_maxrss / 1024.0, (child.returncode, out.read(), err.read())


def compare_cli(trees: dict[str, Path], argv: list[str], rounds: int) -> bool:
    expected, same = None, True
    times, peaks = {"base": [], "new": []}, {"base": [], "new": []}
    for r in range(rounds + 1):  # round 0, base first, is untimed
        for name in ("base", "new")[:: 1 if r % 2 == 0 else -1]:
            seconds, rss, out = run_cli(trees[name], argv)
            if expected is None:
                expected = out
            elif out != expected and same:
                same = False
                print(f"DIFFERENT OUTPUT from {name}:\n  base {expected!r}\n  {name:4} {out!r}")
            if r:
                times[name].append(seconds)
                peaks[name].append(rss)
    print(f"{'tree':6} {'median ms':>10} {'q1 ms':>9} {'q3 ms':>9} {'peak RSS MB':>12}")
    for name, ts in times.items():
        q1, med, q3 = statistics.quantiles(ts, n=4) if len(ts) > 1 else ts * 3
        print(f"{name:6} {1e3 * med:10.1f} {1e3 * q1:9.1f} {1e3 * q3:9.1f} {statistics.median(peaks[name]):12.2f}")
    wins = sum(n < b for b, n in zip(times["base"], times["new"]))
    ratio = statistics.median(times["base"]) / statistics.median(times["new"])
    print(f"new won {wins}/{rounds} pairs; median base/new {ratio:.2f}; exit code {expected[0]}")
    return same


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--call", help="expression giving the callable, e.g. solvers.brute_force")
    mode.add_argument("--cli", help="CLI arguments, shell-quoted, to time as subprocesses, e.g. 'bound --family line --n 9'")
    p.add_argument("--case", action="append", help="with --call: expression of the seed s giving its argument")
    p.add_argument("--seeds", default="0:5", help="a:b or a comma-separated list (default 0:5)")
    p.add_argument("--rounds", type=int, default=5, help="timed pairs per seed, or per command with --cli (default 5)")
    p.add_argument("--base", default="HEAD", help="git revision of the base tree (default HEAD)")
    p.add_argument("--base-tree", type=Path, help="directory holding src/spectral_tsp, in place of --base")
    args = p.parse_args(argv)
    if args.call and not args.case:
        p.error("--call needs at least one --case")
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = args.base_tree or extract(args.base, Path(tmp))
        threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
        if args.cli:
            print(f"base {args.base_tree or args.base}, new {ROOT}, OPENBLAS_NUM_THREADS={threads}: {args.cli}")
            return 0 if compare_cli({"base": base_tree, "new": ROOT}, shlex.split(args.cli), args.rounds) else 1
        base = load_tree(base_tree, "spectral_tsp_base")
        new = load_tree(ROOT, "spectral_tsp_new")
        print(f"base {args.base_tree or args.base}, new {ROOT}, numpy {np.__version__}, OPENBLAS_NUM_THREADS={threads}")
        same = compare(base, new, args.call, args.case, seeds(args.seeds), args.rounds)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
