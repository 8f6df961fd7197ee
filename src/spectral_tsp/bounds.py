"""Eigenvalue lower bounds on shortest-tour length.

Each bound compresses -D onto the mean-zero subspace (linalg.center_restrict)
and pairs the compression's spectrum against a tour cycle's:

  phi_symmetric  symmetric D: the coefficients 1 - cos(2 pi k / n),
                 ascending, against the eigenvalues, descending.
  phi_normal     D with a normal compression: the values 1 - omega^j
                 against the complex spectrum, minimized over all
                 bijections by a linear assignment solve.
  phi_general    any D: the symmetric and antisymmetric parts, each paired
                 on its own, added.

Each lower-bounds every closed tour whatever tol judges (the symmetric
bounds pay Compression.skew for any asymmetry, phi_normal needs
Compression.normal), and all agree on symmetric D.  Shifting every
off-diagonal distance by beta adds beta * n to each bound; scaling by
alpha >= 0 multiplies it by alpha.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import InvalidDimension, InvalidMatrix, NonzeroDiagonal, NotNormal, NotSymmetric
from .linalg import (
    DEFAULT_TOL,
    _BAND,
    _antisym_spectrum,
    _Checked,
    _near_symmetric,
    _scale,
    _top,
    as_square,
    center_restrict,
    check_int,
    check_tol,
    commuting_spectrum,
    eigh,
    eigvalsh,
    parts_commute,
    tridiagonal,
)

_DIAG_TOL = 1e-12
# a residual of roundoff size, whatever tol is: at most this times n * (its scale)
_ROUNDOFF = 64.0 * np.finfo(float).eps


def check_distance_matrix(D) -> _Checked:
    """The float64 array and max|D| as a _Checked pair (A, top), once D is square, finite, n >= 3,
    n * max|D| is finite (no tour length overflows) and the diagonal is within 1e-12 * ||D||_F,
    both taken on D / _scale(max|D|).  The diagonal is never silently zeroed."""
    A = as_square(D, "distance matrix")
    n = A.shape[0]
    if n < 3:
        raise InvalidDimension("tours need at least 3 cities")
    top = _top(A)
    if not math.isfinite(n * top):
        raise InvalidMatrix("distance matrix entries are so large that a tour length overflows")
    scale = _scale(top)
    diag = np.abs(np.diagonal(A)).max() / scale
    if diag and diag > _DIAG_TOL * float(np.linalg.norm(A / scale)):
        raise NonzeroDiagonal("distance matrix must have a zero diagonal")
    return _Checked(A, top)


def tsp_coefficients(n: int) -> np.ndarray:
    """The n - 1 values 1 - cos(2 pi k / n), k = 1..n-1, ascending: the nontrivial
    eigenvalues of I - (C + C^T)/2 for the cyclic shift C."""
    n = check_int(n, "n")
    if n < 3:
        raise InvalidDimension("tours need at least 3 cities")
    return np.sort(1.0 - np.cos(2.0 * np.pi * np.arange(1, n) / n))


class Compression:
    """One validated distance matrix and the spectral data the bounds read, each computed on first use.

    All is computed on A = D / scale, scale = _scale(max|D|): every decision
    is the same for D and 2^k D, and each bound is scale times its value on
    A.  R is the compression of -A (linalg.center_restrict), S and K its
    symmetric and antisymmetric parts, `spectrum` the descending spectrum of
    S, mu = scale * spectrum, and w the complex spectrum of R.  Every bound
    function accepts a Compression in place of D, with its own tol: all the
    bounds cost one validation, one compression and one reduction of S
    (linalg.tridiagonal), which `spectrum` and `w` share; phi_general adds
    one of K^T K.  The cosine pairing (`phi_symmetric`) and `mean_distance`
    are computed once, whichever bounds read them.  A _Checked pair, a
    matrix the package built from input it validated (graphs' screens), is
    taken as it is: no check runs on it again.
    """

    def __init__(self, D, tol: float = DEFAULT_TOL):
        D, top = D if isinstance(D, _Checked) else check_distance_matrix(D)
        self.n = D.shape[0]
        self.tol = check_tol(tol)
        self.scale = _scale(top)
        self.A = D if self.scale == 1.0 else D / self.scale
        # a power of two divides max|D| exactly: this is max|A|
        self._checked = _Checked(self.A, top / self.scale)

    @cached_property
    def exactly_symmetric(self) -> bool:
        """A == A^T entry for entry."""
        return np.array_equal(self.A, self.A.T)

    @cached_property
    def symmetric(self) -> bool:
        return self.exactly_symmetric or _near_symmetric(*self._checked, self.tol)

    @cached_property
    def _parts(self) -> tuple[np.ndarray, np.ndarray | None, float | None]:
        """S, K and R_norm = ||R||_F from one compression R, whose buffer then holds S.  K and R_norm,
        which only the normality test and phi_general read, are None on exactly symmetric A."""
        R = center_restrict(self._checked)
        K = norm = None
        if not self.exactly_symmetric:
            norm = float(np.linalg.norm(R))
            K = R - R.T
            np.multiply(K, 0.5, out=K)
        np.add(R, R.T, out=R)  # numpy copies R.T first, as the two overlap: R + R^T, bit for bit
        return np.multiply(R, 0.5, out=R), K, norm

    S = property(lambda self: self._parts[0])
    K = property(lambda self: self._parts[1])
    R_norm = property(lambda self: self._parts[2])

    @cached_property
    def skew(self) -> float:
        """sum_i max_j |K_D[i, j]|, K_D = (A - A^T) / 2: 0 on exactly symmetric A.

        A tour takes one entry per row, so on A it is at least as long as on
        (A + A^T) / 2 less this, whatever tol judged A to be symmetric."""
        return 0.0 if self.exactly_symmetric else float(0.5 * np.abs(self.A - self.A.T).max(axis=1).sum())

    @cached_property
    def normal(self) -> bool:
        """True at every tol on exactly symmetric A.  Else R must commute with R^T at tol and,
        unless A is symmetric at tol (phi_normal is then phi_symmetric, which pays `skew`), w
        must meet Schur's identity part by part to roundoff, whatever tol is:
        sum (Re w)^2 = ||S||_F^2 and sum (Im w)^2 = ||K||_F^2."""
        if self.exactly_symmetric:
            return True
        scale = self.R_norm**2
        if not parts_commute(self.S, self.K, scale, self.tol):
            return False
        return self.symmetric or all(
            abs(float(x @ x) - norm**2) <= _ROUNDOFF * self.n * scale
            for x, norm in ((self.w.real, self.S_norm), (self.w.imag, float(np.linalg.norm(self.K))))
        )

    @cached_property
    def spectrum(self) -> np.ndarray:
        t = tridiagonal(self.S)  # S reduced once: `w` reads its eigenvectors from this too
        if vars(self).get("normal", True):  # else no bound reads w
            self._reduced = t
        return eigvalsh(t)[::-1]  # eigvalsh ascends

    @cached_property
    def mu(self) -> np.ndarray:
        return self.scale * self.spectrum

    @cached_property
    def w(self) -> np.ndarray:
        """The complex spectrum of R, read as if S and K commute."""
        self.spectrum  # reduces S; eigh is the reduction's last reader, and its n x n reflectors go with it
        return commuting_spectrum(*eigh(vars(self).pop("_reduced", None) or tridiagonal(self.S)), self.K, self.tol)

    @cached_property
    def phi_symmetric(self) -> float:
        """The value of phi_symmetric, which phi_normal and phi_general return on symmetric A."""
        return self.scale * (float(tsp_coefficients(self.n) @ self.spectrum) - self.skew)

    @cached_property
    def mean_distance(self) -> float:
        return self.scale * float(self.A.sum() / (self.n * (self.n - 1)))

    @cached_property
    def S_norm(self) -> float:
        return float(np.linalg.norm(self.S))

    @cached_property
    def psd(self) -> bool:
        """mu is non-negative, at tolerance tol * ||S||_F."""
        return bool(self.spectrum[-1] >= -self.tol * self.S_norm)

    @cached_property
    def floor_holds(self) -> bool:
        """psd at the tighter of tol and roundoff (64 n eps): what euclidean_floor needs."""
        return bool(self.spectrum[-1] >= -min(self.tol, _ROUNDOFF * self.n) * self.S_norm)


def _compression(D, tol: float, symmetric: bool = False) -> Compression:
    c = D if isinstance(D, Compression) else Compression(D, tol)
    if symmetric and not c.symmetric:
        raise NotSymmetric("this bound requires a symmetric distance matrix")
    return c


def phi_symmetric(D, tol: float = DEFAULT_TOL) -> float:
    """Spectral lower bound on tour length for symmetric D.  Raises NotSymmetric.

    tsp_coefficients(n), ascending, paired with the compressed spectrum,
    descending (the cheapest pairing, by rearrangement), bounds every tour
    through (D + D^T) / 2; less the `skew` of D, every tour through D.
    """
    return _compression(D, tol, symmetric=True).phi_symmetric


@cache
def _assignment_solver():
    """scipy's linear_sum_assignment, loaded from scipy/optimize/_lsap alone: the same C function
    without `import scipy.optimize`, which costs about half a second and 40 MB.  Falls back to
    that import where the file or the function is missing."""
    spec = importlib.util.find_spec("scipy")  # finds the package without importing it
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader("scipy.optimize._lsap", path)
                added = loader.name not in sys.modules
                module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
                loader.exec_module(module)
                if added:  # the extension registers itself; left there, a later scipy.optimize would not bind it
                    sys.modules.pop(loader.name, None)
                if hasattr(module, "linear_sum_assignment"):
                    return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def phi_normal(D, tol: float = DEFAULT_TOL) -> float:
    """Assignment-sharpened bound for D with a normal compression.  Raises NotNormal.

    The minimum of sum_j Re((1 - omega^j) w_{sigma(j)}) over all bijections
    sigma between the frequencies j = 1..n-1 and the complex compressed
    spectrum w, by scipy's exact linear assignment solve (_assignment_solver).  On
    symmetric D it is phi_symmetric, returned without the solve.
    """
    c = _compression(D, tol)
    if not c.normal:
        raise NotNormal("compression of -D is not normal; use phi_general instead")
    if c.symmetric:
        return c.phi_symmetric
    ang = 2.0 * np.pi * np.arange(1, c.n) / c.n
    # Re((1 - e^{i ang}) (s + i t)) = (1 - cos ang) s + sin(ang) t, the second term a band of rows at a time
    cost, sin = np.outer(1.0 - np.cos(ang), c.w.real), np.sin(ang)
    for i in range(0, c.n - 1, _BAND):
        cost[i : i + _BAND] += np.outer(sin[i : i + _BAND], c.w.imag)
    rows, cols = _assignment_solver()(cost)
    return c.scale * float(cost[rows, cols].sum())


def phi_general(D, tol: float = DEFAULT_TOL) -> float:
    """Bound for every distance matrix: the cosine pairing of the compression's symmetric part
    plus the sine pairing of its antisymmetric part.  On symmetric D it is phi_symmetric."""
    c = _compression(D, tol)
    if c.symmetric:
        return c.phi_symmetric
    b = np.sort(np.sin(2.0 * np.pi * np.arange(1, c.n) / c.n))
    return c.scale * float(tsp_coefficients(c.n) @ c.spectrum + b @ _antisym_spectrum(c.K))


def n2_bound(D, tol: float = DEFAULT_TOL) -> float:
    """The degree-two counting bound, the non-spectral baseline.  Raises NotSymmetric.

    Half the sum over cities of the two cheapest distances at each, taken on
    (D + D^T) / 2, less the `skew` of D.
    """
    c = _compression(D, tol, symmetric=True)
    off = c.A.copy() if c.exactly_symmetric else 0.5 * (c.A + c.A.T)  # 0.5 (a + a) is a
    np.fill_diagonal(off, np.inf)
    off.partition(1, axis=1)
    return c.scale * (float(0.5 * off[:, :2].sum()) - c.skew)


def mean_distance(D) -> float:
    """Mean off-diagonal entry."""
    return _compression(D, DEFAULT_TOL).mean_distance


def schoenberg_edm_check(D, tol: float = DEFAULT_TOL) -> bool:
    """True iff -P D P is positive semidefinite at tol, P = I - J/n: the embeddability criterion
    applied to D itself, which every matrix of Euclidean point distances meets.  Raises
    NotSymmetric.  -P D P = Q R Q^T shares R's nonzero spectrum: this is Compression.psd."""
    return _compression(D, tol, symmetric=True).psd


def euclidean_floor(D, tol: float = DEFAULT_TOL) -> float:
    """(n - 1) (1 - cos(2 pi / n)) * mean_distance(D), less the `skew` of D.  Raises NotSymmetric.

    A lower bound on phi_symmetric(D) when the compressed spectrum is
    non-negative to roundoff (Compression.floor_holds), as for Euclidean
    point distances; the value is computed either way.
    """
    c = _compression(D, tol, symmetric=True)
    return float((c.n - 1) * (1.0 - np.cos(2.0 * np.pi / c.n)) * c.mean_distance) - c.scale * c.skew


@dataclass
class BoundReport:
    """Everything the bound machinery can say about one distance matrix, from one Compression.

    A field is None where D lacks its structure: phi_symmetric and n2 need
    symmetry, phi_normal a normal compression, euclidean_floor symmetry and
    Compression.floor_holds, which is stricter than `psd` (the descending
    spectrum `mu` is non-negative at tol; schoenberg_edm_check on symmetric
    D).  `phi` is phi_symmetric when symmetric, else phi_normal when
    defined, else phi_general.  On symmetric D, phi_normal (when normal) and
    phi_general carry the phi_symmetric value; exactly symmetric D is normal
    at every tol.
    """

    n: int
    symmetric: bool
    normal: bool
    psd: bool
    phi: float
    phi_symmetric: float | None
    phi_normal: float | None
    phi_general: float
    n2: float | None
    euclidean_floor: float | None
    mean_distance: float
    mu: list[float]


def bound_report(D, tol: float = DEFAULT_TOL) -> BoundReport:
    """Run every applicable bound on D and collect the results."""
    c = Compression(D, tol)
    sym, normal = c.symmetric, c.normal
    p_sym = c.phi_symmetric if sym else None
    p_normal = phi_normal(c) if normal else None
    p_general = phi_general(c)
    phi = p_sym if sym else p_normal if normal else p_general
    return BoundReport(
        n=c.n,
        symmetric=sym,
        normal=normal,
        psd=c.psd,
        phi=float(phi),
        phi_symmetric=p_sym,
        phi_normal=p_normal,
        phi_general=p_general,
        n2=n2_bound(c) if sym else None,
        euclidean_floor=euclidean_floor(c) if sym and c.floor_holds else None,
        mean_distance=c.mean_distance,
        mu=[float(x) for x in c.mu],
    )
