"""The benchmark's own reference computations, independent of spectral_tsp.

Everything here is plain numpy/scipy written for this benchmark: a
nearest-neighbour tour, tour lengths, hop distances and an independent
evaluation of the symmetric spectral bound.  The output checks compare the
program's results against these, never against values the program printed
on an earlier version, so a correct program passes whatever its rounding
or speed.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import eigvalsh as _eigvalsh  # bound before any tracing wraps np.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

# relative slack for comparing a floating-point bound with a tour length
REL_TOL = 1e-8

_bases: dict[int, np.ndarray] = {}


def nn_tour(D: np.ndarray) -> np.ndarray:
    """Nearest-neighbour tour from city 0 (first index wins ties); works for directed D."""
    n = D.shape[0]
    order = np.empty(n, dtype=np.int64)
    order[0] = 0
    free = np.ones(n, dtype=bool)
    free[0] = False
    here = 0
    for k in range(1, n):
        row = np.where(free, D[here], np.inf)
        here = int(np.argmin(row))
        order[k] = here
        free[here] = False
    return order


def tour_length(D: np.ndarray, order) -> float:
    p = np.asarray(order, dtype=np.int64)
    return float(D[p, np.roll(p, -1)].sum())


def is_permutation(order, n: int) -> bool:
    p = np.asarray(order)
    return p.shape == (n,) and np.array_equal(np.sort(p), np.arange(n))


def _centred_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the complement of the all-ones vector, by QR (not Householder)."""
    if n not in _bases:
        M = np.eye(n)
        M[:, 0] = 1.0
        Q, _ = np.linalg.qr(M)
        _bases[n] = Q[:, 1:]
    return _bases[n]


def phi_symmetric(D: np.ndarray) -> tuple[float, float]:
    """Independent symmetric bound and the scale its roundoff is measured against.

    Pairs 1 - cos(2 pi k / n) ascending with the eigenvalues of the compression
    of -D to the mean-zero subspace, descending.
    """
    n = D.shape[0]
    Q = _centred_basis(n)
    R = -(Q.T @ D @ Q)
    mu = np.sort(_eigvalsh(0.5 * (R + R.T)))[::-1]
    c = np.sort(1.0 - np.cos(2.0 * np.pi * np.arange(1, n) / n))
    return float(c @ mu), float(np.abs(c) @ np.abs(mu))


def hop_distances(adjacency: np.ndarray) -> np.ndarray:
    return shortest_path(csr_matrix(adjacency), unweighted=True, directed=False)


def is_connected(adjacency: np.ndarray) -> bool:
    return connected_components(csr_matrix(adjacency), directed=False)[0] == 1


def not_above(value: float, limit: float, scale: float) -> bool:
    """value <= limit up to floating-point slack relative to `scale`."""
    return value <= limit + REL_TOL * max(1.0, abs(scale))


def close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(scale))


class BoundChecks:
    """Checks every bound output must pass on a matrix, with the benchmark's references.

    Built once per matrix; `holds` then tests one reported (n, phi,
    mean_distance) triple.
    """

    def __init__(self, D: np.ndarray, symmetric: bool):
        self.n = D.shape[0]
        self.tour = tour_length(D, nn_tour(D))
        self.symmetric = symmetric
        self.phi, self.scale = phi_symmetric(D) if symmetric else (None, None)
        self.frob = float(np.linalg.norm(D))

    def holds(self, n: int, phi: float, mean_distance: float) -> bool:
        return (
            n == self.n
            and bool(np.isfinite(phi))
            # the mean tour length is n times the mean off-diagonal distance
            and not_above(phi, n * mean_distance, self.frob)
            and not_above(phi, self.tour, self.frob)
            and (not self.symmetric or close(phi, self.phi, self.scale))
        )
