"""Outputs pinned byte for byte by sha256 digests over a fixed sweep.

Each digest covers the outputs of one routine on a fixed sweep of family x
n x seed: solver tours as (order, length.hex()), random Euclidean instances
for dim 1..9, random symmetric and asymmetric matrices, and the matrices
TSPLIB parsing realizes for EUC_2D, ATT and EXPLICIT files.  Every output
here is built from IEEE 754 operations alone (+, -, *, /, sqrt, floor,
comparisons and numpy's fixed summation orders), with no BLAS and no libm
call, so the digests hold on any IEEE machine.  A change that alters one
byte of one output fails here; a change meant to alter outputs re-pins the
digests and says why.
"""

import hashlib
from pathlib import Path

import numpy as np

from spectral_tsp import solvers, tsplib
from spectral_tsp.instances import _floats, random_asymmetric, random_euclidean, random_symmetric

SEEDS = (0, 7, 2**64 - 1)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "tsplib"

GOLDEN = {
    "two_opt": "1c70d9e7f3533fa262a9b12b69d35f159c6cc1cd91ad8b334cf313913723f44b",
    "brute_force": "33f450976f99b2993168ac3a8ee309b824c3d512c786e7766d885222db71d454",
    "brute_force_11_12": "493849014e9c792b738c7091835d8e34eae65c841306ada9a63d048ed74bea41",
    "held_karp": "463b12280115e12ec963d4c84c1d09eb4ffb8ec6ea36e5d7c4d37443dd406995",
    "random_euclidean": "04a73ebdbf6c1df0bdcc84c070ed217eef1fb5380ba6cbcb73d371219de772cd",
    "random_matrices": "5379677aeb4c950a89e1ac4709c25e62af42ffb80a84872c4421322dbbec8590",
    "tsplib": "fdbcf2470498b019110672969035157ab3470fb43ec9cbd11c2844e82fb4e953",
}


def _tours(solve, sizes, families, seeds=SEEDS):
    h = hashlib.sha256()
    for n in sizes:
        for seed in seeds:
            for family in families:
                t = solve(family(n, seed), seed)
                h.update(repr((t.order, t.length.hex())).encode())
    return h.hexdigest()


def _integral(family):
    return lambda n, seed: np.floor(3.0 * family(n, seed))


def _euclidean(n, seed):
    return random_euclidean(n, seed)[0]


def _array(h, a: np.ndarray) -> None:
    h.update(repr((a.dtype.str, a.shape)).encode())
    h.update(np.ascontiguousarray(a).tobytes())


def _random_euclidean():
    h = hashlib.sha256()
    for dim in range(1, 10):
        for n in (3, 37):
            for seed in SEEDS:
                for a in random_euclidean(n, seed, dim):
                    _array(h, a)
    return h.hexdigest()


def _random_matrices():
    h = hashlib.sha256()
    for family in (random_symmetric, random_asymmetric):
        for n in (3, 4, 10, 57, 250):
            for seed in SEEDS:
                _array(h, family(n, seed))
    return h.hexdigest()


def _coordinate_file(kind: str, n: int, seed: int) -> str:
    xy = (_floats(seed, 2 * n) * 10000.0).reshape(n, 2)
    nodes = "".join(f"{i + 1} {x:.3f} {y:.3f}\n" for i, (x, y) in enumerate(xy))
    return f"NAME: g{n}\nTYPE: TSP\nDIMENSION: {n}\nEDGE_WEIGHT_TYPE: {kind}\nNODE_COORD_SECTION\n{nodes}EOF\n"


def _explicit_file(fmt: str, n: int, seed: int) -> str:
    M = 1000.0 * random_symmetric(n, seed)
    if fmt == "FULL_MATRIX":
        w = M.ravel()
    else:
        off = 0 if fmt.endswith("DIAG_ROW") else 1
        w = M[np.triu_indices(n, off) if fmt.startswith("UPPER") else np.tril_indices(n, -off)]
    body = " ".join(repr(float(x)) for x in w)
    return (
        f"NAME: e{n}\nTYPE: TSP\nDIMENSION: {n}\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
        f"EDGE_WEIGHT_FORMAT: {fmt}\nEDGE_WEIGHT_SECTION\n{body}\nEOF\n"
    )


def _tsplib():
    h = hashlib.sha256()
    texts = [(FIXTURES / name).read_text() for name in ("att48.tsp", "dantzig42.tsp", "gr17.tsp")]
    for n in (5, 48, 131):
        for seed in SEEDS:
            texts += [_coordinate_file(kind, n, seed) for kind in ("EUC_2D", "ATT")]
            fmts = ("FULL_MATRIX", "UPPER_ROW", "LOWER_ROW", "UPPER_DIAG_ROW", "LOWER_DIAG_ROW")
            texts += [_explicit_file(fmt, n, seed) for fmt in fmts]
    for text in texts:
        _array(h, tsplib.parse_tsplib(text).matrix)
    return h.hexdigest()


def digests() -> dict[str, str]:
    symmetric = (random_symmetric, _integral(random_symmetric), _euclidean)
    every = (*symmetric, random_asymmetric, _integral(random_asymmetric))
    return {
        "two_opt": _tours(solvers.two_opt, (3, 4, 5, 9, 16, 33, 61, 120), symmetric),
        "brute_force": _tours(lambda D, _: solvers.brute_force(D), range(3, 11), every),
        "brute_force_11_12": _tours(lambda D, _: solvers.brute_force(D), (11, 12), every, SEEDS[::2]),
        "held_karp": _tours(lambda D, _: solvers.held_karp(D), range(3, 14), every),
        "random_euclidean": _random_euclidean(),
        "random_matrices": _random_matrices(),
        "tsplib": _tsplib(),
    }


def test_outputs_match_their_pinned_digests():
    assert digests() == GOLDEN
