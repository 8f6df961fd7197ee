"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way, with different numpy
primitives (projector instead of an explicit basis, complex `eig` instead
of a real-arithmetic split, exhaustive enumeration instead of assignment
solvers) so that agreement with the library is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def cosine_coefficients(n: int) -> np.ndarray:
    """The multiset {1 - cos(2 pi k / n), k = 1..n-1}, ascending."""
    k = np.arange(1, n)
    return np.sort(1.0 - np.cos(2.0 * np.pi * k / n))


def _restricted_eigs_projector(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of -M on the hyperplane orthogonal to the ones vector.

    Route: eigendecompose -PMP on the full space (P the centering
    projector), then discard the eigenpair whose vector lies along ones.
    """
    n = M.shape[0]
    P = np.eye(n) - np.ones((n, n)) / n
    w, V = np.linalg.eigh(-P @ ((M + M.T) / 2.0) @ P)
    ones = np.ones(n) / math.sqrt(n)
    drop = int(np.argmax(np.abs(V.T @ ones)))
    return np.delete(w, drop)  # ascending


def phi_projector(D) -> float:
    """Spectral tour bound via the projector route (symmetric part of D)."""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    mu = _restricted_eigs_projector(D)  # ascending
    return float(cosine_coefficients(n) @ mu[::-1])


def is_psd(S, tol: float = 1e-8) -> bool:
    """True iff the symmetric matrix S has no eigenvalue below -tol * ||S||_F."""
    S = np.asarray(S, dtype=float)
    S = 0.5 * (S + S.T)
    return float(np.linalg.eigvalsh(S)[0]) >= -tol * float(np.linalg.norm(S))


def schoenberg_projector(D, tol: float = 1e-8) -> bool:
    """Embeddability test on the full space: is -P D P positive semidefinite?"""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    P = np.eye(n) - np.ones((n, n)) / n
    return is_psd(-P @ D @ P, tol)


def min_pairing(coeffs, values) -> float:
    """Exhaustive minimum of sum coeffs[j] * values[sigma(j)].  n <= 8."""
    coeffs = np.asarray(coeffs, dtype=float)
    best = math.inf
    for sigma in itertools.permutations(range(len(coeffs))):
        best = min(best, float(coeffs @ np.asarray(values, dtype=float)[list(sigma)]))
    return best


def max_pairing(coeffs, values) -> float:
    return -min_pairing(coeffs, -np.asarray(values, dtype=float))


def restricted_complex_spectrum(R) -> np.ndarray:
    """Complex spectrum of -R restricted to the ones-orthogonal hyperplane.

    Builds the basis by QR (a different construction from the library) and
    uses the complex eigensolver directly.
    """
    R = np.asarray(R, dtype=float)
    n = R.shape[0]
    A = np.hstack([np.ones((n, 1)) / math.sqrt(n), np.eye(n)[:, : n - 1]])
    Q, _ = np.linalg.qr(A)
    B = Q[:, 1:]
    return np.linalg.eigvals(-B.T @ R @ B)


def phi_normal_exhaustive(R) -> float:
    """min over all bijections of sum Re((1 - w^j) varpi_sigma(j)).  n <= 8."""
    R = np.asarray(R, dtype=float)
    n = R.shape[0]
    varpi = restricted_complex_spectrum(R)
    w = 1.0 - np.exp(2j * np.pi * np.arange(1, n) / n)
    best = math.inf
    for sigma in itertools.permutations(range(n - 1)):
        best = min(best, float(np.real(w @ varpi[list(sigma)])))
    return best


def phi_general_exhaustive(R) -> float:
    """Split-form bound with each term minimised by brute enumeration."""
    R = np.asarray(R, dtype=float)
    n = R.shape[0]
    S = (R + R.T) / 2.0
    K = (R - R.T) / 2.0
    lam = _restricted_eigs_projector(S)
    # imaginary parts of the restricted antisymmetric spectrum, via -iK
    P = np.eye(n) - np.ones((n, n)) / n
    H = -1j * (-P @ K @ P)  # Hermitian; spectrum {0} u {+-theta}
    theta = np.linalg.eigvalsh(H)
    # drop one zero for the ones direction (K is centered by P, so the
    # extra null dimension is exactly that one)
    theta = np.delete(theta, int(np.argmin(np.abs(theta))))
    k = np.arange(1, n)
    c = 1.0 - np.cos(2.0 * np.pi * k / n)
    s = np.sin(2.0 * np.pi * k / n)
    return min_pairing(c, lam) + min_pairing(s, theta)


def directed_optimum(D) -> float:
    """Exact directed tour minimum by full enumeration.  n <= 8."""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    best = math.inf
    for p in itertools.permutations(range(1, n)):
        t = (0, *p)
        best = min(best, sum(D[t[i], t[(i + 1) % n]] for i in range(n)))
    return float(best)


def circulant_center_spectrum(first_row) -> np.ndarray:
    """Complex spectrum of the restricted operator of a circulant, by DFT.

    The DFT diagonalises every circulant; the ones vector is the k = 0
    mode, so restricting just drops that one eigenvalue.
    """
    lam = np.fft.fft(np.asarray(first_row, dtype=float))
    return -lam[1:]


def splitmix64_reference(seed: int, count: int) -> list[int]:
    """The well-known 64-bit mixing generator, transcribed independently."""
    mask = (1 << 64) - 1
    x = seed & mask
    out = []
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out
