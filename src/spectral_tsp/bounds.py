"""Eigenvalue lower bounds on shortest-tour length.

The common scheme: compress the negated distance matrix onto the
mean-zero subspace (see linalg.center_restrict), read off its spectrum,
and pair the eigenvalues against the spectrum a tour cycle would have.
Three variants, by what the compressed matrix supports:

  phi_symmetric  symmetric distances; pairs tour-cycle coefficients
                 1 - cos(2 pi k / n) (ascending) with the eigenvalues of
                 the compression (descending).
  phi_normal     asymmetric distances whose compression is normal; pairs
                 the complex tour-cycle values 1 - omega^j against the
                 complex spectrum, minimized exactly over all bijections
                 by a linear assignment solve.
  phi_general    any distances; bounds the symmetric and antisymmetric
                 parts separately and adds the two pairings.

All three are valid lower bounds on the length of every closed tour, and
they agree when the matrix is symmetric.  They stay sound whatever tol
judges: the symmetric bounds pay Compression.skew for any asymmetry, and
the normal route needs its spectrum certified (Compression.normal).  Affine behaviour is exact:
shifting all off-diagonal distances by beta adds beta * n to each bound,
scaling by alpha >= 0 multiplies it by alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidDimension, InvalidMatrix, NonzeroDiagonal, NotNormal, NotSymmetric
from .linalg import (
    DEFAULT_TOL,
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
    parts_commute,
)

_DIAG_TOL = 1e-12
# a residual of roundoff size, whatever tol is: at most this times n * (its scale)
_ROUNDOFF = 64.0 * np.finfo(float).eps


def check_distance_matrix(D) -> _Checked:
    """Validate a distance matrix: square, finite, n >= 3, zero diagonal.

    n * max|D| must be finite, so that no tour length overflows.  The
    diagonal must vanish to within 1e-12 * ||D||_F, both taken on
    D / _scale(max|D|); it is never silently zeroed.  Returns the float64
    array and max|D| as a _Checked pair (A, top), so that no caller takes
    max|D| again.
    """
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
    """The n - 1 values 1 - cos(2 pi k / n), k = 1..n-1, sorted ascending.

    These are the nontrivial eigenvalues of I - (C + C^T)/2 for the cyclic
    shift C: the spectrum every tour's adjacency structure contributes.
    """
    n = check_int(n, "n")
    if n < 3:
        raise InvalidDimension("tours need at least 3 cities")
    return np.sort(1.0 - np.cos(2.0 * np.pi * np.arange(1, n) / n))


class Compression:
    """One validated distance matrix and the spectral data the bounds read.

    Everything is computed on A = D / scale, scale = _scale(max|D|), where
    no square the tests and spectra take over- or underflows: every
    decision is the same for D and 2^k D, and each bound is scale times its
    value on A.  R is the compression of -A onto the mean-zero subspace
    (linalg.center_restrict), S and K its symmetric and antisymmetric parts,
    `spectrum` the descending spectrum of S and w the complex spectrum of R;
    mu is the descending spectrum on D's scale, scale * spectrum.  Each is
    computed on first use and kept.  Every bound function below accepts a
    Compression in place of D (its own tol then applies), so asking one for
    all bounds costs one validation, one compression and, on symmetric
    input, one eigensolve.
    """

    def __init__(self, D, tol: float = DEFAULT_TOL):
        D, top = check_distance_matrix(D)
        self.n = D.shape[0]
        self.tol = check_tol(tol)
        self.scale = _scale(top)
        self.A = D if self.scale == 1.0 else D / self.scale
        # a power of two divides max|D| exactly: this is max|A|
        self._checked = _Checked(self.A, top / self.scale)

    @cached_property
    def exactly_symmetric(self) -> bool:
        """A == A^T entry for entry: then no difference A - A^T is formed."""
        return np.array_equal(self.A, self.A.T)

    @cached_property
    def symmetric(self) -> bool:
        return self.exactly_symmetric or _near_symmetric(*self._checked, self.tol)

    @cached_property
    def R(self) -> np.ndarray:
        return center_restrict(self._checked)

    @cached_property
    def S(self) -> np.ndarray:
        S = self.R + self.R.T
        return np.multiply(S, 0.5, out=S)

    @cached_property
    def K(self) -> np.ndarray:
        K = self.R - self.R.T
        return np.multiply(K, 0.5, out=K)

    @cached_property
    def skew(self) -> float:
        """sum_i max_j |K_D[i, j]|, K_D = (A - A^T) / 2: 0 on exactly symmetric A.

        A tour takes one entry per row, so on A it is at least as long as on
        (A + A^T) / 2 less this, whatever tol judged A to be symmetric."""
        return 0.0 if self.exactly_symmetric else float(0.5 * np.abs(self.A - self.A.T).max(axis=1).sum())

    @cached_property
    def normal(self) -> bool:
        """True at every tol on exactly symmetric A, whose compression is
        symmetric: no K, norm or commutator is formed.  Else R must commute
        with R^T at tol and, unless A is symmetric at tol, w is certified by
        Schur's identity part by part, sum (Re w)^2 = ||S||_F^2 and
        sum (Im w)^2 = ||K||_F^2 to roundoff, whatever tol is: a commutator
        small at tol can still split an eigenvalue of S wider than the cluster
        gap, losing the imaginary parts over it.  Symmetric input needs none:
        phi_normal is then phi_symmetric, which pays `skew` instead."""
        if self.exactly_symmetric:
            return True
        scale = float(np.linalg.norm(self.R)) ** 2
        if not parts_commute(self.S, self.K, scale, self.tol):
            return False
        return self.symmetric or all(
            abs(float(x @ x) - norm**2) <= _ROUNDOFF * self.n * scale
            for x, norm in ((self.w.real, self.S_norm), (self.w.imag, float(np.linalg.norm(self.K))))
        )

    @cached_property
    def spectrum(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.S)[::-1]  # eigvalsh ascends

    @cached_property
    def mu(self) -> np.ndarray:
        return self.scale * self.spectrum

    @cached_property
    def w(self) -> np.ndarray:
        """The complex spectrum of R, read as if S and K commute."""
        return commuting_spectrum(*np.linalg.eigh(self.S), self.K, self.tol)

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
    """Spectral lower bound on shortest-tour length for symmetric distances.

    Pairs tsp_coefficients(n) ascending with the compressed spectrum
    descending; by the rearrangement inequality this is the cheapest pairing,
    and it lower-bounds the length of every Hamiltonian cycle through
    (D + D^T) / 2.  Less the `skew` of D, it bounds every tour through D.
    """
    c = _compression(D, tol, symmetric=True)
    return c.scale * (float(tsp_coefficients(c.n) @ c.spectrum) - c.skew)


def phi_normal(D, tol: float = DEFAULT_TOL) -> float:
    """Assignment-sharpened bound for distances with a normal compression.

    Requires center_restrict(D) to commute with its transpose (circulant
    distance matrices are the model case; exactly symmetric ones qualify at
    every tol, with no commutator formed).
    Minimizes sum_j Re((1 - omega^j) w_{sigma(j)}) over all bijections sigma
    between the tour-cycle frequencies j = 1..n-1 and the complex compressed
    spectrum w, via an exact linear assignment solve (Jonker-Volgenant).  On
    symmetric D the spectrum is real, the minimum is phi_symmetric by
    rearrangement, and that value is returned without the solve.
    """
    c = _compression(D, tol)
    if not c.normal:
        raise NotNormal("compression of -D is not normal; use phi_general instead")
    if c.symmetric:
        return phi_symmetric(c)
    from scipy.optimize import linear_sum_assignment

    ang = 2.0 * np.pi * np.arange(1, c.n) / c.n
    # Re((1 - e^{i ang}) (s + i t)) = (1 - cos ang) s + sin(ang) t
    cost = np.outer(1.0 - np.cos(ang), c.w.real) + np.outer(np.sin(ang), c.w.imag)
    rows, cols = linear_sum_assignment(cost)
    return c.scale * float(cost[rows, cols].sum())


def phi_general(D, tol: float = DEFAULT_TOL) -> float:
    """Split bound valid for every distance matrix with zero diagonal.

    Bounds the symmetric part of the compression with the cosine pairing and
    the antisymmetric part with the sine pairing, each by rearrangement, and
    adds them.  Coarser than phi_normal when both apply, but needs no
    structure at all.  On symmetric D the sine term vanishes and the value
    is phi_symmetric.
    """
    c = _compression(D, tol)
    if c.symmetric:
        return phi_symmetric(c)
    b = np.sort(np.sin(2.0 * np.pi * np.arange(1, c.n) / c.n))
    return c.scale * float(tsp_coefficients(c.n) @ c.spectrum + b @ _antisym_spectrum(c.K))


def n2_bound(D, tol: float = DEFAULT_TOL) -> float:
    """Half the sum, over cities, of the two cheapest incident distances.

    Every tour enters and leaves each city once, so this is a lower bound on
    symmetric tour length.  It is the classical degree-two counting bound and
    serves as the non-spectral baseline.  It is taken on (D + D^T) / 2, less
    the `skew` of D.
    """
    c = _compression(D, tol, symmetric=True)
    off = c.A.copy() if c.exactly_symmetric else 0.5 * (c.A + c.A.T)  # 0.5 (a + a) is a
    np.fill_diagonal(off, np.inf)
    off.partition(1, axis=1)
    return c.scale * (float(0.5 * off[:, :2].sum()) - c.skew)


def mean_distance(D) -> float:
    """Mean off-diagonal entry."""
    c = _compression(D, DEFAULT_TOL)
    return c.scale * float(c.A.sum() / (c.n * (c.n - 1)))


def schoenberg_edm_check(D, tol: float = DEFAULT_TOL) -> bool:
    """True iff -P D P is positive semidefinite, P = I - J/n the centering projector.

    This is the classical embeddability criterion applied directly to D
    (not to elementwise squares), which is the form the spectral bound
    interacts with, and it holds for every matrix of pairwise Euclidean
    point distances.  Since -P D P = Q R Q^T for the compression R, the two
    share their nonzero spectrum: this is the `psd` flag of symmetric D,
    read off mu with no projector product and no second eigensolve.
    """
    return _compression(D, tol, symmetric=True).psd


def euclidean_floor(D, tol: float = DEFAULT_TOL) -> float:
    """Closed-form floor (n - 1) (1 - cos(2 pi / n)) * mean_distance(D), less the `skew` of D.

    The compressed spectrum sums to (n - 1) * mean_distance(D), and the
    smallest tour coefficient is 1 - cos(2 pi / n), so this is a lower bound
    on phi_symmetric(D) whenever that spectrum is non-negative to roundoff
    (Compression.floor_holds), as for every matrix of Euclidean point
    distances.  The value is computed regardless of that hypothesis.
    """
    c = _compression(D, tol, symmetric=True)
    return float((c.n - 1) * (1.0 - np.cos(2.0 * np.pi / c.n)) * mean_distance(c)) - c.scale * c.skew


@dataclass
class BoundReport:
    """Everything the bound machinery can say about one distance matrix.

    Fields that require structure the matrix lacks are None: phi_symmetric,
    n2 and euclidean_floor need symmetry, phi_normal a normal compression,
    and euclidean_floor also `psd`, which says the descending spectrum `mu`
    of the symmetrized compression is non-negative (at tolerance); for
    symmetric D it is schoenberg_edm_check.  The floor needs the stricter
    Compression.floor_holds, so a loose tol can report psd with no floor.
    `phi` is the sharpest bound: phi_symmetric when symmetric, else
    phi_normal when defined, else phi_general.  On symmetric D the routes
    coincide, so phi_normal (when normal) and phi_general carry the
    phi_symmetric value; exactly symmetric D is normal at every tol.  All
    fields come from one Compression: one validation, one compression and,
    on symmetric input, one eigensolve.
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
    p_sym = phi_symmetric(c) if sym else None
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
        mean_distance=mean_distance(c),
        mu=[float(x) for x in c.mu],
    )
