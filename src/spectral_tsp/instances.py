"""Instance generators for benchmarking and property tests.

Structured families (uniform, circle, line, two-cluster) are exact analytic
constructions.  Randomized families draw from an explicit SplitMix64 stream
so that an (n, seed) pair identifies the same instance on every platform and
numpy version; nothing here touches global random state.

SplitMix64 (the documented generator behind the random families): state
advances by the 64-bit odd constant 0x9E3779B97F4A7C15 per draw, and the
output is the advanced state mixed by two xor-shift-multiply rounds with
constants 0xBF58476D1CE4E5B9 (shift 30) and 0x94D049BB133111EB (shift 27),
finished with a right shift by 31.  Floats in [0, 1) keep the top 53 bits:
(u64 >> 11) * 2**-53.  The state after k draws is seed + k * 0x9E3779B97F4A7C15
mod 2**64, so draw k (counting from 1) is the mix of that counter alone and
a whole stream is computed in one uint64 numpy pass.  Draw order for each
family is spelled out in its docstring; it is part of the public contract.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import check_int, squared_distances

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Tiny deterministic 64-bit generator, stable across platforms."""

    def __init__(self, seed: int):
        self._state = check_int(seed, "seed") & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits of the next word."""
        return (self.next_u64() >> 11) * 2.0**-53


def _floats(seed: int, count: int) -> np.ndarray:
    """The first `count` SplitMix64(seed).next_float() draws, computed as one array.

    uint64 arithmetic wraps modulo 2**64 exactly as the generator's masking does.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(check_int(seed, "seed") & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(float) * 2.0**-53


def uniform_instance(n: int) -> np.ndarray:
    """All distances equal to one: D = J - I.  Every tour has length n."""
    n = check_int(n, "n", 3)
    return np.ones((n, n)) - np.eye(n)


def circle_instance(n: int) -> np.ndarray:
    """n points equally spaced on a circle with unit spacing between neighbours.

    Chord distances: D[i, j] = sin(pi |i-j| / n) / sin(pi / n).  The shortest
    tour walks around the circle and has length exactly n.
    """
    n = check_int(n, "n", 3)
    idx = np.arange(n)
    steps = np.abs(idx[:, None] - idx[None, :])
    return np.sin(math.pi * steps / n) / math.sin(math.pi / n)


def line_instance(n: int) -> np.ndarray:
    """n points at integer positions on a line: D[i, j] = |i - j|.

    The shortest tour sweeps out and back, so its length is 2 (n - 1).
    """
    n = check_int(n, "n", 3)
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :]).astype(float)


def two_cluster_instance(n: int) -> np.ndarray:
    """Two groups of n coincident points at unit separation (2n cities total).

    Distance 0 inside a group, 1 across.  A shortest tour crosses between
    the groups exactly twice, so its length is 2.
    """
    n = check_int(n, "n", 2)
    J = np.ones((n, n))
    Z = np.zeros((n, n))
    return np.block([[Z, J], [J, Z]])


def random_euclidean(n: int, seed: int, dim: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Points uniform in the unit cube; returns (D, points).

    Draw order: one SplitMix64 stream seeded with `seed`, consumed point by
    point and coordinate by coordinate (point 0 coord 0, point 0 coord 1,
    ..., point 1 coord 0, ...).  D holds exact pairwise Euclidean norms.
    """
    n, dim = check_int(n, "n", 3), check_int(dim, "dim", 1)
    pts = _floats(seed, n * dim).reshape(n, dim)
    return np.sqrt(squared_distances(pts)), pts


def random_symmetric(n: int, seed: int) -> np.ndarray:
    """Symmetric matrix with independent uniform [0, 1) off-diagonal entries.

    Draw order: upper triangle in row-major order ((0,1), (0,2), ...,
    (n-2,n-1)); each draw is mirrored below the diagonal.  Entries need not
    satisfy the triangle inequality.
    """
    n = check_int(n, "n", 3)
    i = np.arange(n)
    D = np.zeros((n, n))
    D[i[:, None] < i] = _floats(seed, n * (n - 1) // 2)
    return D + D.T  # x + 0 is x: each draw lands unchanged on both sides


def random_asymmetric(n: int, seed: int) -> np.ndarray:
    """Matrix with independent uniform [0, 1) entries everywhere off-diagonal.

    Draw order: row-major over all ordered pairs i != j.
    """
    n = check_int(n, "n", 3)
    D = np.zeros((n, n))
    D[~np.eye(n, dtype=bool)] = _floats(seed, n * (n - 1))
    return D


def random_circulant(n: int, seed: int) -> np.ndarray:
    """Circulant matrix: D[i, j] depends only on (j - i) mod n.

    Draw order: the n - 1 off-diagonal template values r[1], ..., r[n-1]
    (uniform in [0, 1)), then D[i, j] = r[(j - i) mod n] with r[0] = 0.
    Circulant matrices commute with their transpose, which makes this the
    stock family for exercising the normal-matrix bound on asymmetric input.
    """
    n = check_int(n, "n", 3)
    r = np.concatenate([[0.0], _floats(seed, n - 1)])
    idx = np.arange(n)
    return r[(idx[None, :] - idx[:, None]) % n]
