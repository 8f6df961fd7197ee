"""Dense eigenstructure helpers: the compression of -D and its spectra.

All routines work on real square matrices and promise deterministic output
ordering: real spectra come back sorted descending, complex spectra sorted
descending by real part with ties broken by descending imaginary part.
A tolerance ``tol`` is relative, ``tol * ||M||_F`` (``||M||_F^2`` for the
quadratic commutator), so no decision changes when the matrix is scaled
while no square over- or underflows (bounds.Compression sees to that); the
tests compare with ``<=``, so the all-zero matrix passes them.

Complex arithmetic never enters the computation.  Antisymmetric and normal
spectra are obtained from real symmetric eigenproblems only, which keeps
results reproducible across BLAS builds to tight tolerance.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidDimension, InvalidMatrix, InvalidTolerance, NotSymmetric

DEFAULT_TOL = 1e-8


def check_tol(tol: float) -> float:
    """Return tol if it is a finite number >= 0, else raise InvalidTolerance."""
    if not 0.0 <= tol < math.inf:
        raise InvalidTolerance(f"tol must be a finite number >= 0, got {tol!r}")
    return tol


def _is_index(x) -> bool:
    """An int or numpy integer that is not a bool: no other value is cast to one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_int(x, name: str, least: int | None = None) -> int:
    """x as an int if it is an int or numpy integer, not a bool, and at least
    `least` when given, else InvalidDimension naming it: every size and seed."""
    if not _is_index(x):
        raise InvalidDimension(f"{name} must be an integer, got {x!r}")
    if least is not None and x < least:
        raise InvalidDimension(f"{name} must be at least {least}, got {x}")
    return int(x)


def _scale(top: float) -> float:
    """The exact divisor for a matrix whose largest |entry| is top: outside
    2^-129 <= top < 2^128, the power of two math.frexp gives for top, else 1.
    Inside that range no square or fourth power the bounds take of an entry
    near top over- or underflows, and the matrix is not copied: a quotient
    per report took bound_report at n = 400 from 17.5 to 22 ms on 2 cores."""
    k = math.frexp(top)[1]
    return 2.0**k if abs(k) > 128 else 1.0


def as_square(M, name: str = "matrix") -> np.ndarray:
    """Validate `M` and return it as a float64 square 2-d array (a copy only if it is not one)."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] < 1:
        raise InvalidDimension(f"{name} must be at least 1 x 1")
    if not np.all(np.isfinite(A)):
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return A


def _top(A: np.ndarray) -> float:
    """max|A|, the one number _scale reads."""
    return float(max(A.max(), -A.min()))


class _Checked(NamedTuple):
    """An array as_square has passed and its max|A|, handed on so that
    neither is computed again."""

    A: np.ndarray
    top: float


def _square(M, name: str) -> np.ndarray:
    return M.A if isinstance(M, _Checked) else as_square(M, name)


_BLOCK_ENTRIES = 1 << 21  # differences squared_distances holds at once, 16 MB


def squared_distances(points: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of an (n, dim) point array.

    Each entry sums the squared coordinate differences from the first
    coordinate to the last, as numpy's sum over fewer than 8 terms does:
    with two coordinates it is dx*dx + dy*dy.  Below 8 coordinates the sum
    is built one coordinate at a time into blocks of rows of the output,
    each difference block at most _BLOCK_ENTRIES; from 8 on numpy sums
    pairwise, so blocks of rows of the (n, n, dim) differences, at most
    _BLOCK_ENTRIES (or one row), are summed over their last axis.  Either
    way dim never multiplies the n x n memory.
    """
    n, dim = points.shape
    out = np.empty((n, n))
    if dim < 8:
        step = max(1, _BLOCK_ENTRIES // max(n, 1))
        diff = np.empty((min(step, n), n)) if dim > 1 else None
        for i in range(0, n, step):
            rows = out[i : i + step]
            for k in range(dim):
                d = rows if k == 0 else diff[: len(rows)]
                np.subtract(points[i : i + step, k, None], points[:, k], out=d)
                d *= d
                if k:
                    rows += d
        return out
    step = max(1, _BLOCK_ENTRIES // max(points.size, 1))
    for i in range(0, n, step):
        diff = points[i : i + step, None, :] - points[None, :, :]
        diff *= diff
        diff.sum(axis=2, out=out[i : i + step])
        del diff  # else the next block is allocated while this one is held
    return out


def _near_symmetric(A: np.ndarray, top: float, tol: float) -> bool:
    """||A - A^T||_F <= tol * ||A||_F, both taken on A / _scale(top), top = max|A|."""
    scale = _scale(top)
    A = A if scale == 1.0 else A / scale
    return float(np.linalg.norm(A - A.T)) <= tol * float(np.linalg.norm(A))


def is_symmetric(M, tol: float = DEFAULT_TOL) -> bool:
    """M == M^T, or ||M - M^T||_F <= tol * ||M||_F, both taken on
    M / _scale(max|M|), so that no square over- or underflows and the answer
    is the same for 2^k M.  A _Checked M brings its max|M| along."""
    check_tol(tol)
    A = _square(M, "matrix")
    return np.array_equal(A, A.T) or _near_symmetric(A, M.top if isinstance(M, _Checked) else _top(A), tol)


def parts_commute(S: np.ndarray, K: np.ndarray, scale: float, tol: float = DEFAULT_TOL) -> bool:
    """The normality test of M = S + K from its symmetric and antisymmetric parts.

    The commutator M M^T - M^T M equals 2 (K S + (K S)^T), and it passes when
    its norm is at most tol * scale, with scale = ||M||_F^2.  Callers that
    know M is exactly symmetric need no test: it is normal at every tol
    (bounds.Compression.normal returns before calling this).
    """
    KS = K @ S
    return 2.0 * float(np.linalg.norm(KS + KS.T)) <= tol * scale


def householder_basis(n: int) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to all-ones.

    Returns the n x (n-1) matrix formed by columns 2..n of the Householder
    reflection H = I - 2 w w^T / (w^T w) with w = e_1 - (1/sqrt(n)) 1.
    H maps e_1 to the normalized all-ones vector, so the remaining columns
    are an orthonormal basis of its orthogonal complement.  The basis is a
    fixed function of n: no eigensolver, no sign ambiguity.
    """
    if n < 2:
        raise InvalidDimension("need n >= 2 for a nontrivial centered subspace")
    w = -np.full(n, 1.0 / np.sqrt(n))
    w[0] += 1.0
    H = np.outer(w, w)  # I - c w w^T in place: -(c x) + 1 is 1 - c x, bit for bit
    H *= -2.0 / (w @ w)
    H.flat[:: n + 1] += 1.0
    return H[:, 1:]


def center_restrict(D) -> np.ndarray:
    """Restriction of -D to the subspace orthogonal to the all-ones vector.

    Computes R = -Q^T D Q where Q = householder_basis(n).  R is (n-1) x (n-1)
    and represents the compression of -D to the mean-zero subspace in a fixed
    orthonormal coordinate frame.  If D is symmetric, R is symmetric up to
    roundoff; callers that feed R to a symmetric eigensolver symmetrize it
    explicitly first.
    """
    A = _square(D, "distance matrix")
    Q = householder_basis(A.shape[0])
    R = Q.T @ A @ Q
    return np.negative(R, out=R)


def _antisym_spectrum(K: np.ndarray) -> np.ndarray:
    """Imaginary parts of the spectrum of an exactly antisymmetric K, descending.

    An antisymmetric K has eigenvalues coming in pairs +/- i*theta with
    theta >= 0, plus a zero for odd dimension.  The thetas are recovered as
    singular values of K through the symmetric eigenproblem for K^T K; the
    two copies of each singular value are paired consecutively and averaged
    so the output is exactly symmetric around zero and sums to exactly 0.
    """
    n = K.shape[0]
    sq = np.linalg.eigvalsh(K.T @ K)
    s = np.sqrt(np.maximum(sq, 0.0))[::-1]
    m = n // 2
    theta = 0.5 * (s[0 : 2 * m : 2] + s[1 : 2 * m : 2])
    return np.concatenate([theta, np.zeros(n % 2), -theta[::-1]])


def commuting_spectrum(w: np.ndarray, V: np.ndarray, K: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Complex spectrum of S + K, given (w, V) = eigh(S) and an antisymmetric K commuting with S.

    Each eigenspace of S is invariant under K, and K restricted to it is
    antisymmetric: it supplies the imaginary parts over that eigenvalue.
    Eigenvalues of S closer than tol * ||S||_F form one eigenspace, whose
    real part is their mean.  Output is sorted by descending real part, ties
    by descending imaginary part; conjugate pairs are exact by construction.
    """
    w, V = w[::-1], V[:, ::-1]
    cuts = np.flatnonzero(w[:-1] - w[1:] > tol * float(np.linalg.norm(w))) + 1
    out = []
    for wg, Vg in zip(np.split(w, cuts), np.split(V, cuts, axis=1)):
        B = Vg.T @ K @ Vg
        B = 0.5 * (B - B.T)
        if len(wg) == 1:
            imags = [0.0]
        elif len(wg) == 2:  # a 2 x 2 antisymmetric block has spectrum +-i|b|
            imags = [abs(B[0, 1]), -abs(B[0, 1])]
        else:
            imags = _antisym_spectrum(B)
        real = float(np.mean(wg))
        out.extend(complex(real, a) for a in imags)
    out = np.array(out, dtype=complex)
    order = np.lexsort((-out.imag, -out.real))
    return out[order]


def vn_trace_range(A, B, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Sharp range of tr(A Pi B Pi^T) over orthogonal conjugations of B.

    For symmetric A, B with spectra lambda (descending) and mu, the trace of
    A Q B Q^T over orthogonal Q ranges over exactly
    [sum_j lambda_j mu_{n+1-j}, sum_j lambda_j mu_j]: opposite-sorted pairing
    at the bottom, same-sorted at the top.  Returns (lo, hi).
    """
    A, B = as_square(A), as_square(B)
    if not (is_symmetric(_Checked(A, _top(A)), tol) and is_symmetric(_Checked(B, _top(B)), tol)):
        raise NotSymmetric("vn_trace_range requires symmetric matrices")
    lam, mu = (np.linalg.eigvalsh(0.5 * (M + M.T))[::-1] for M in (A, B))
    if lam.shape != mu.shape:
        raise InvalidDimension("vn_trace_range requires matrices of equal size")
    return float(lam @ mu[::-1]), float(lam @ mu)
