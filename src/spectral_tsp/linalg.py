"""Dense eigenstructure helpers: the compression of -D and its spectra.

Real spectra come back sorted descending, complex spectra descending by real
part, ties by descending imaginary part, all from real symmetric eigenproblems.
A tolerance is relative, tol * ||M||_F (||M||_F^2 for the commutator), and
compared with <=: the zero matrix passes, and scaling M changes no decision
while no square over- or underflows (bounds.Compression sees to that).

Every symmetric eigensolve goes through one kernel: `tridiagonal` reduces a
matrix once, as LAPACK's dsyevd does, and `eigvalsh` (dsterf) and `eigh`
(dstedc, dormtr) both read that reduction.  It calls numpy's own bundled
scipy-openblas through ctypes and replays dsyevd step by step, so the values
are np.linalg.eigvalsh's and (w, V) np.linalg.eigh's byte for byte, at
whatever BLAS thread count numpy runs with.  On a numpy built without that
library, or without one of its routines, the kernel calls np.linalg instead.
"""

from __future__ import annotations

import ctypes
import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidDimension, InvalidMatrix, InvalidTolerance

DEFAULT_TOL = 1e-8

# largest vertex count of a graph file and command-line size flag: orders, and a
# TSPLIB DIMENSION, stay <= 2 * SIZE_CAP, where one bound_report peaks near 0.8 GB
SIZE_CAP = 2048


def check_tol(tol: float) -> float:
    """float(tol) if tol is an int, float or numpy real scalar, not a bool,
    finite and >= 0, else raise InvalidTolerance."""
    if not ((_is_index(tol) or isinstance(tol, (float, np.floating))) and 0.0 <= tol < math.inf):
        raise InvalidTolerance(f"tol must be a finite number >= 0, got {tol!r}")
    return float(tol)


_INTEGER = (int, np.integer)  # the types of an index, less bool, an int subclass


def _is_index(x) -> bool:
    """An int or numpy integer that is not a bool: no other value is cast to one."""
    return isinstance(x, _INTEGER) and not isinstance(x, bool)


def check_int(x, name: str, least: int | None = None) -> int:
    """x as an int if it is an int or numpy integer, not a bool, and at least
    `least` when given, else InvalidDimension naming it: every size and seed."""
    if not _is_index(x):
        raise InvalidDimension(f"{name} must be an integer, got {x!r}")
    if least is not None and x < least:
        raise InvalidDimension(f"{name} must be at least {least}, got {x}")
    return int(x)


def as_square(M, name: str = "matrix") -> np.ndarray:
    """Validate `M` and return it as a float64 square 2-d array (a copy only if it is not one)."""
    try:
        A = np.asarray(M)
        if A.dtype.kind == "c":
            raise InvalidMatrix(f"{name} must be real, got complex entries")
        A = A.astype(float, copy=False)
    except (TypeError, ValueError) as e:  # ragged rows, or entries that are not numbers
        raise InvalidMatrix(f"{name} must be an array of real numbers: {e}") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] < 1:
        raise InvalidDimension(f"{name} must be at least 1 x 1")
    if not np.all(np.isfinite(A)):
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return A


def _top(A: np.ndarray) -> float:
    """max|A|, the one number bounds._scale reads."""
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

    Each entry is numpy's sum of the squared coordinate differences: in coordinate
    order below 8 coordinates (dx*dx + dy*dy in the plane), pairwise from 8 on.  Rows
    are built in blocks of at most _BLOCK_ENTRIES differences, so dim never
    multiplies the n x n memory.
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


_BAND = 48  # rows per step of a sum built in place: its temporaries are about _BAND x n


def parts_commute(S: np.ndarray, K: np.ndarray, scale: float, tol: float = DEFAULT_TOL) -> bool:
    """The normality test of M = S + K from its symmetric and antisymmetric parts:
    ||M M^T - M^T M||_F = 2 ||K S + (K S)^T||_F <= tol * scale, with scale = ||M||_F^2.
    K S + (K S)^T is formed in K S's buffer, a band of rows and its mirror columns at a
    time; x + y is y + x bit for bit, so every entry is KS + KS.T's."""
    KS = K @ S
    for i in range(0, len(KS), _BAND):  # KS[i:, i:] still holds K S
        band = KS[i : i + _BAND, i:] + KS[i:, i : i + _BAND].T
        KS[i : i + _BAND, i:], KS[i:, i : i + _BAND] = band, band.T
        del band  # before the next band is allocated
    return 2.0 * float(np.linalg.norm(KS)) <= tol * scale


def householder_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to all-ones, a fixed function of n:
    columns 2..n of the reflection H = I - 2 w w^T / (w^T w), w = e_1 - 1 / sqrt(n),
    which maps e_1 to the normalized all-ones vector."""
    n = check_int(n, "n")
    if n < 2:
        raise InvalidDimension("need n >= 2 for a nontrivial centered subspace")
    w = -np.full(n, 1.0 / np.sqrt(n))
    w[0] += 1.0
    c = -2.0 / (w @ w)
    # I - c w w^T in one n x n write: every w_i, i > 0, is w_1, so one value fills the matrix, then
    # row and column 0 and the diagonal; each entry is (w_i w_j) c, and -(c x) + 1 is 1 - c x, bit for bit
    H = np.full((n, n), w[1] * w[1] * c)
    H[0] = H[:, 0] = w[0] * w * c
    H.flat[:: n + 1] += 1.0
    return H[:, 1:]


def center_restrict(D) -> np.ndarray:
    """R = -Q^T D Q with Q = householder_basis(n): the compression of -D to the mean-zero
    subspace, (n-1) x (n-1).  Symmetric D gives an R symmetric only up to roundoff."""
    A = _square(D, "distance matrix")
    Q = householder_basis(A.shape[0])
    R = Q.T @ A @ Q
    return np.negative(R, out=R)


_ARGS = {"dsyevd": 11, "dsytrd": 10, "dsterf": 4, "dstedc": 11, "dormtr": 13}  # with INFO, all by reference


@cache
def _lapack() -> dict | None:
    """The routines the kernel calls, by name, from numpy's own LAPACK (scipy-openblas, ILP64) through
    numpy's already loaded linalg extension, or None where that library or one of them is missing."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        routines = {name: getattr(lib, f"scipy_{name}_64_") for name in _ARGS}
    except (AttributeError, OSError):
        return None
    for name, routine in routines.items():
        routine.argtypes, routine.restype = [ctypes.c_void_p] * _ARGS[name], None
    return routines


def _call(name: str, *args) -> None:
    """Call LAPACK's `name` as numpy's own calls do: every argument by reference (a str is one
    character, an array its data, an int an int64), then INFO; INFO != 0 raises numpy's LinAlgError."""
    info = ctypes.c_int64()
    refs = [x.encode() if isinstance(x, str) else ctypes.c_void_p(x.ctypes.data) if isinstance(x, np.ndarray)
            else ctypes.byref(ctypes.c_int64(x)) for x in args]
    _lapack()[name](*refs, ctypes.byref(info))
    if info.value:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge ({name} INFO {info.value})")


@cache
def _workspace(jobz: str, n: int) -> tuple[int, int]:
    """dsyevd's own (LWORK, LIWORK) query for an n x n problem, jobz 'N' (values) or 'V' (vectors)."""
    work, iwork = np.empty(1), np.empty(1, np.int64)
    _call("dsyevd", jobz, "L", n, work, n, work, work, -1, iwork, -1)
    return int(work[0]), int(iwork[0])


# dsyevd scales a matrix whose largest |entry| lies outside [_RMIN, 1 / _RMIN] by a power of two
_RMIN = math.sqrt(np.finfo(float).smallest_normal / np.finfo(float).eps)


class Tridiagonal(NamedTuple):
    """dsytrd's reduction of an exactly symmetric matrix, made as dsyevd makes it: the reflectors in
    `a`, the diagonal d, off-diagonal e and tau, and dsyevd's scale factor sigma.  Without the kernel
    (_lapack() is None) `a` is the matrix itself and d, e and tau are None."""

    a: np.ndarray
    d: np.ndarray | None = None
    e: np.ndarray | None = None
    tau: np.ndarray | None = None
    sigma: float = 1.0


def tridiagonal(M: np.ndarray, overwrite: bool = False) -> Tridiagonal:
    """Reduce the exactly symmetric n x n M, n >= 1, once for eigvalsh and eigh: a float64 C-ordered copy
    of it, or M's own buffer when overwrite and M is one.  An exactly symmetric C array is its own
    Fortran transpose, so dsytrd reads the lower triangle that numpy's eigh hands dsyevd."""
    if _lapack() is None:
        return Tridiagonal(M)
    n = len(M)
    # numpy's ValueError unless M holds n x n entries, the buffer LAPACK reads and writes
    a = np.array(M, dtype=float, order="C", copy=None if overwrite else True).reshape(n, n)
    top, sigma = _top(a) if n > 1 else 0.0, 1.0
    if 0.0 < top < _RMIN or top > 1.0 / _RMIN:
        sigma = (_RMIN if top < _RMIN else 1.0 / _RMIN) / top
        a *= sigma  # dlascl's single step at every such scale
    d, e, tau = np.empty(n), np.empty(n), np.empty(n)
    work = np.empty(max(_workspace("N", n)[0] - 2 * n, 1))
    _call("dsytrd", "L", n, a, n, d, e, tau, work, len(work))
    return Tridiagonal(a, d, e, tau, sigma)


def eigvalsh(t: Tridiagonal) -> np.ndarray:
    """The eigenvalues of t's matrix, ascending: np.linalg.eigvalsh's bytes, by dsterf on t."""
    if t.d is None:
        return np.linalg.eigvalsh(t.a)
    w = t.d.copy()
    _call("dsterf", len(w), w, t.e.copy())
    return np.multiply(w, 1.0 / t.sigma, out=w)  # dsyevd's dscal; exact when sigma is 1


def eigh(t: Tridiagonal) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) of t's matrix: np.linalg.eigh's bytes, V C-contiguous, by dstedc and dormtr on t."""
    if t.d is None:
        return np.linalg.eigh(t.a)
    n = len(t.d)
    lwork, liwork = _workspace("V", n)
    w, Z = t.d.copy(), np.empty((n, n))  # Z in Fortran order: the eigenvectors are its rows
    work, iwork = np.empty(max(lwork - 2 * n - n * n, 1)), np.empty(liwork, np.int64)
    _call("dstedc", "I", n, w, t.e.copy(), Z, n, work, len(work), iwork, liwork)
    _call("dormtr", "L", "L", "N", n, n, t.a, n, t.tau, Z, n, work, len(work))
    del work  # before the copy below: the peak holds Z and one n x n array besides
    return np.multiply(w, 1.0 / t.sigma, out=w), np.ascontiguousarray(Z.T)


def _antisym_spectrum(K: np.ndarray) -> np.ndarray:
    """Imaginary parts of the spectrum of an exactly antisymmetric K, descending: the
    pairs +-theta, read as the singular values from eigvalsh(K^T K) with each pair's
    two copies averaged, plus a zero for odd n.  The output is exactly symmetric about 0."""
    n = K.shape[0]
    sq = eigvalsh(tridiagonal(K.T @ K, overwrite=True))  # syrk: K^T K is exactly symmetric
    s = np.sqrt(np.maximum(sq, 0.0))[::-1]
    m = n // 2
    theta = 0.5 * (s[0 : 2 * m : 2] + s[1 : 2 * m : 2])
    return np.concatenate([theta, np.zeros(n % 2), -theta[::-1]])


_PAIR_CHUNK = 32  # at most this many eigenspaces per stacked product: its temporaries stay O(n)


def commuting_spectrum(w: np.ndarray, V: np.ndarray, K: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Complex spectrum of S + K, given (w, V) = eigh(S) and an antisymmetric K commuting with S.

    Eigenvalues of S closer than tol * ||S||_F form one eigenspace: real part their mean, imaginary
    parts those of B = Vg^T K Vg in conjugate pairs, 0.0 (no B) in one dimension, +-|B01 - B10| / 2
    in two.  Runs of two-dimensional ones share a matmul of stacked views of V, each slice the 2-d
    product Vg.T @ K @ Vg on the same strides, so bit for bit; a copy or one V.T @ K is not.
    """
    w, V = w[::-1], V[:, ::-1]
    cuts = np.flatnonzero(w[:-1] - w[1:] > tol * float(np.linalg.norm(w))) + 1
    edges = np.concatenate(([0], cuts, [len(w)]))
    starts, sizes = edges[:-1], np.diff(edges)
    out = w.astype(complex)  # imaginary part 0.0 and real part w, -0.0 kept
    p = starts[sizes == 2]  # the first index of each two-dimensional eigenspace
    # a stack starts after a gap, or where p crosses a multiple of 2 * _PAIR_CHUNK
    new = np.flatnonzero((np.diff(p, prepend=-2) != 2) | (p % (2 * _PAIR_CHUNK) < 2))
    for s, k in zip(p[new].tolist(), np.diff(new, append=len(p)).tolist()):
        Vg = V[:, s : s + 2 * k].reshape(len(w), k, 2).transpose(1, 0, 2)
        B = np.matmul(np.matmul(Vg.transpose(0, 2, 1), K), Vg)
        imag = np.abs(0.5 * (B[:, 0, 1] - B[:, 1, 0]))
        out.real[s : s + 2 * k] = np.repeat(np.mean(w[s : s + 2 * k].reshape(k, 2), axis=1), 2)
        out.imag[s : s + 2 * k : 2], out.imag[s + 1 : s + 2 * k : 2] = imag, -imag
    for s, e in zip(starts[sizes > 2].tolist(), edges[1:][sizes > 2].tolist()):
        B = V[:, s:e].T @ K @ V[:, s:e]
        out.real[s:e], out.imag[s:e] = float(np.mean(w[s:e])), _antisym_spectrum(0.5 * (B - B.T))
    order = np.lexsort((-out.imag, -out.real))
    return out[order]
