"""Instance generators for benchmarking and property tests.

Structured families (uniform, circle, line, two-cluster) are exact analytic
constructions.  Randomized families draw from one SplitMix64 stream (Steele,
Lea and Flood, OOPSLA 2014), so an (n, seed) pair is the same instance on
every platform and numpy version; no global random state is read.

The stream: seed reduced mod 2**64 is the state, which advances by the odd
constant 0x9E3779B97F4A7C15 per draw; the output is the advanced state
mixed by two xor-shift-multiply rounds with constants 0xBF58476D1CE4E5B9
(shift 30) and 0x94D049BB133111EB (shift 27), finished with a right shift
by 31.  Seed 0 starts 0xE220A8397B1DCDAF.  Floats in [0, 1) keep the top 53
bits: (u64 >> 11) * 2**-53.  Each family's draw order is in its docstring
and is part of the public contract.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import check_int, squared_distances


def _u64s(seed: int, count: int) -> np.ndarray:
    """The first `count` words of the stream, as uint64.  Raises InvalidDimension unless
    check_int accepts seed.  Draw k (from 1) mixes the state seed + k * 0x9E3779B97F4A7C15."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)  # uint64 arithmetic wraps mod 2**64
    z += np.uint64(check_int(seed, "seed") & ((1 << 64) - 1))
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _floats(seed: int, count: int) -> np.ndarray:
    """The first `count` words of the stream as floats in [0, 1)."""
    return (_u64s(seed, count) >> np.uint64(11)).astype(float) * 2.0**-53


def uniform_instance(n: int) -> np.ndarray:
    """All distances equal to one: D = J - I.  Every tour has length n."""
    n = check_int(n, "n", 3)
    return np.ones((n, n)) - np.eye(n)


def circle_instance(n: int) -> np.ndarray:
    """n points on a circle, neighbours at unit distance: D[i, j] = sin(pi |i-j| / n) / sin(pi / n).
    The shortest tour has length n."""
    n = check_int(n, "n", 3)
    idx = np.arange(n)
    steps = np.abs(idx[:, None] - idx[None, :])
    return np.sin(math.pi * steps / n) / math.sin(math.pi / n)


def line_instance(n: int) -> np.ndarray:
    """n points at integer positions on a line: D[i, j] = |i - j|.  The shortest tour has length 2 (n - 1)."""
    n = check_int(n, "n", 3)
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :]).astype(float)


def two_cluster_instance(n: int) -> np.ndarray:
    """2n cities in two groups of n: distance 0 inside a group, 1 across.  The shortest tour has length 2."""
    n = check_int(n, "n", 2)
    J = np.ones((n, n))
    Z = np.zeros((n, n))
    return np.block([[Z, J], [J, Z]])


def random_euclidean(n: int, seed: int, dim: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """(D, points) for n points uniform in the unit cube; D holds their pairwise Euclidean distances.

    Draw order: point by point, coordinate by coordinate (point 0 coord 0, point 0 coord 1, ...).
    """
    n, dim = check_int(n, "n", 3), check_int(dim, "dim", 1)
    pts = _floats(seed, n * dim).reshape(n, dim)
    return np.sqrt(squared_distances(pts)), pts


def random_symmetric(n: int, seed: int) -> np.ndarray:
    """Symmetric matrix with independent uniform [0, 1) off-diagonal entries (no triangle inequality).

    Draw order: the upper triangle row-major ((0,1), (0,2), ..., (n-2,n-1)), each mirrored below.
    """
    n = check_int(n, "n", 3)
    i = np.arange(n)
    D = np.zeros((n, n))
    D[i[:, None] < i] = _floats(seed, n * (n - 1) // 2)
    return D + D.T  # x + 0 is x: each draw lands unchanged on both sides


def random_asymmetric(n: int, seed: int) -> np.ndarray:
    """Independent uniform [0, 1) entries off the diagonal.  Draw order: row-major over pairs i != j."""
    n = check_int(n, "n", 3)
    D = np.zeros((n, n))
    D[~np.eye(n, dtype=bool)] = _floats(seed, n * (n - 1))
    return D


def random_circulant(n: int, seed: int) -> np.ndarray:
    """Circulant matrix D[i, j] = r[(j - i) mod n], r[0] = 0: normal, and asymmetric in general.

    Draw order: r[1], ..., r[n-1], uniform in [0, 1).
    """
    n = check_int(n, "n", 3)
    r = np.concatenate([[0.0], _floats(seed, n - 1)])
    idx = np.arange(n)
    return r[(idx[None, :] - idx[:, None]) % n]
