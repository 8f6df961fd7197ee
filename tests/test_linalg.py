import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as stn

import oracles
from spectral_tsp import bounds, linalg
from spectral_tsp.errors import InvalidDimension, InvalidMatrix, InvalidTolerance, NotNormal, NotSymmetric
from spectral_tsp.instances import (
    random_asymmetric,
    random_circulant,
    random_symmetric,
)


@pytest.mark.parametrize("n", [2, 3, 5, 17, 50])
def test_householder_basis_is_orthonormal_complement_of_ones(n):
    Q = linalg.householder_basis(n)
    assert Q.shape == (n, n - 1)
    np.testing.assert_allclose(Q.T @ Q, np.eye(n - 1), atol=1e-12)
    np.testing.assert_allclose(Q.T @ np.ones(n), 0.0, atol=1e-12)


def test_householder_basis_is_deterministic():
    a = linalg.householder_basis(9)
    b = linalg.householder_basis(9)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", range(2, 301))
def test_householder_basis_in_place_is_the_dense_reflection(n):
    # one fill, then row and column 0 and the diagonal: the dense reflection's bytes at every n
    assert linalg.householder_basis(n).tobytes() == oracles.householder_basis(n).tobytes()


def test_center_restrict_spectrum_matches_projector_route():
    # Same restricted operator, reached through two different constructions.
    for seed in range(8):
        D = random_symmetric(7, seed=seed)
        lib = np.sort(bounds.Compression(D).mu)
        ora = np.sort(oracles._restricted_eigs_projector(D))
        np.testing.assert_allclose(lib, ora, atol=1e-9)


def test_center_restrict_preserves_symmetry_and_skewness():
    D = random_symmetric(6, seed=1)
    M = linalg.center_restrict(D)
    assert oracles.is_symmetric(M)
    K = random_asymmetric(6, seed=2)
    K = K - K.T
    R = linalg.center_restrict(K)
    assert np.linalg.norm(R + R.T) <= 1e-12 * np.linalg.norm(R)


def test_sym_eigenvalues_descending():
    D = random_symmetric(8, seed=3)
    mu = bounds.Compression(D).mu
    assert np.all(np.diff(mu) <= 0)
    np.testing.assert_allclose(mu, np.linalg.eigvalsh(linalg.center_restrict(D))[::-1], atol=1e-9)


def test_as_square_rejects_nonsquare_and_nan():
    with pytest.raises(InvalidMatrix):
        linalg.as_square(np.zeros((3, 4)))
    with pytest.raises(InvalidMatrix):
        linalg.as_square(np.array([[0.0, np.nan], [1.0, 0.0]]))
    with pytest.raises(InvalidDimension, match="at least 1 x 1"):
        linalg.as_square(np.zeros((0, 0)))
    # numpy's untyped ValueError before: a string that is no number, ragged rows
    for M in ([["x", 1], [1, 0]], [[0, 1], [1]]):
        with pytest.raises(InvalidMatrix, match="real numbers"):
            linalg.as_square(M)
    # a complex matrix was cast to its real part with only a ComplexWarning
    for M in (np.array([[0, 1j], [1j, 0]]), [[0, 1 + 0j], [1, 0]], np.array([[0, 1j], [1, 0]], dtype=object)):
        with pytest.raises(InvalidMatrix, match="real"):
            linalg.as_square(M)
    # numeric strings stay accepted
    assert np.array_equal(linalg.as_square([["0", "1.5"], ["1.5", "0"]]), [[0.0, 1.5], [1.5, 0.0]])


@pytest.mark.parametrize("tol", ["1e-3", None, [1e-8], 1j, True, np.bool_(False)])
def test_check_tol_takes_only_real_numbers(tol):
    # a string, None, a list and 1j raised an untyped TypeError, and True passed as 1
    with pytest.raises(InvalidTolerance, match="finite number >= 0"):
        linalg.check_tol(tol)


def test_check_tol_returns_a_float():
    for tol in (0, 1, 1e-8, np.int64(2), np.float32(0.5), np.float64(1e-9)):
        out = linalg.check_tol(tol)
        assert type(out) is float and out == float(tol)


def test_householder_basis_needs_two_dimensions():
    with pytest.raises(InvalidDimension, match="n >= 2"):
        linalg.householder_basis(1)
    # 2.5 raised numpy's untyped TypeError
    for n in (3.5, 2.5, True):
        with pytest.raises(InvalidDimension, match="must be an integer"):
            linalg.householder_basis(n)
    assert linalg.householder_basis(np.int64(5)).tobytes() == linalg.householder_basis(5).tobytes()


def test_vn_trace_range_needs_symmetric_matrices_of_one_size():
    S = random_symmetric(5, seed=1)
    with pytest.raises(NotSymmetric):
        oracles.vn_trace_range(S, random_asymmetric(5, seed=2))
    with pytest.raises(NotSymmetric):
        oracles.vn_trace_range(random_asymmetric(5, seed=2), S)
    with pytest.raises(InvalidDimension, match="equal size"):
        oracles.vn_trace_range(S, random_symmetric(6, seed=3))


def is_normal(M, tol=linalg.DEFAULT_TOL):
    """The package's normality test, parts_commute, on a whole matrix."""
    return linalg.parts_commute(0.5 * (M + M.T), 0.5 * (M - M.T), float(np.linalg.norm(M)) ** 2, tol)


def test_symmetry_predicates():
    S = random_symmetric(5, seed=4)
    assert oracles.is_symmetric(S)
    A = random_asymmetric(5, seed=5)
    assert not oracles.is_symmetric(A)
    assert not oracles.is_symmetric(A - A.T)


def test_is_normal_on_circulants_and_counterexample():
    # Circulants commute with their transpose; a generic matrix does not.
    for seed in range(5):
        C = random_circulant(6, seed=seed)
        assert bounds.Compression(C).normal
    M = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.5, 0.0, 0.0]])
    assert not is_normal(M)
    assert not bounds.Compression(M).normal


def test_is_normal_scale_invariance():
    """The normality test must not get stricter as the matrix grows."""
    C = random_circulant(8, seed=11)
    for alpha in (1.0, 1e6, 1e-6):
        assert is_normal(alpha * linalg.center_restrict(C))
        assert bounds.Compression(alpha * C).normal


def test_normality_shortcut_agrees_with_the_commutator():
    """The early accept 4 ||K|| ||S|| <= tol ||M||^2 implies the commutator
    test, so parts_commute, the commutator alone, decides as the two-step rule
    of oracles.parts_commute_two_step does, whichever step decides there."""
    rng = np.random.default_rng(3)
    early = {tol: 0 for tol in (0.0, 1e-12, 1e-8, 1.0)}
    for n in (3, 6, 17, 60):
        W = rng.standard_normal((n, n))
        circulant = linalg.center_restrict(random_circulant(n + 1, seed=n))
        for M in (W, W + W.T, W - W.T, W + W.T + 1e-9 * W, W - W.T + 1e-9 * W, W - W.T + 1e-13 * W, circulant):
            for alpha in (1e-12, 1.0, 1e12):
                X = alpha * M
                S, K = 0.5 * (X + X.T), 0.5 * (X - X.T)
                scale = float(np.linalg.norm(X)) ** 2
                for tol in early:
                    early[tol] += 4.0 * np.linalg.norm(K) * np.linalg.norm(S) <= tol * scale
                    expected = oracles.parts_commute_two_step(S, K, scale, tol)
                    assert linalg.parts_commute(S, K, scale, tol) == expected, (n, tol)
    assert all(0 < hits < 84 for hits in early.values())  # both steps decided at every tol
    # across the threshold: S + eps K for generic S and K, eps on a fine grid
    for n in (3, 4, 6):
        W, V = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        for eps in np.logspace(-11, -7, 201):
            X = W + W.T + eps * (V - V.T)
            S, K, scale = 0.5 * (X + X.T), 0.5 * (X - X.T), float(np.linalg.norm(X)) ** 2
            assert is_normal(X) == oracles.parts_commute_two_step(S, K, scale, linalg.DEFAULT_TOL), (n, eps)


def test_commutator_formed_in_place_keeps_its_bits():
    # K S + (K S)^T is summed in K S's buffer a band of rows at a time: the
    # norm is the whole-matrix sum's to the bit, so the test flips exactly at
    # its threshold, on either side of a band edge and within one band
    rng = np.random.default_rng(7)
    for n in (1, 2, linalg._BAND - 1, linalg._BAND, linalg._BAND + 1, 3 * linalg._BAND + 5, 100):
        W, V = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        S, K = W + W.T, V - V.T
        KS = K @ S
        commutator = 2.0 * float(np.linalg.norm(KS + KS.T))
        assert linalg.parts_commute(S, K, 1.0, commutator), n
        assert not linalg.parts_commute(S, K, 1.0, np.nextafter(commutator, 0.0)) or commutator == 0.0, n


def test_predicates_are_scale_free_and_pass_the_zero_matrix():
    Z = np.zeros((4, 4))
    assert oracles.is_symmetric(Z) and is_normal(Z) and bounds.Compression(Z).normal
    A = random_asymmetric(6, seed=3)
    for alpha in (1e-12, 1.0, 1e12):
        assert not oracles.is_symmetric(alpha * A)
        assert not is_normal(linalg.center_restrict(alpha * A))
        assert not bounds.Compression(alpha * A).normal


@pytest.mark.parametrize("alpha", [1e160, 1e-170, 1e300, 1e-300])
def test_is_symmetric_is_scale_free(alpha):
    # at 1e-170 the squares underflowed and this asymmetric matrix passed;
    # at 1e160 they overflowed, with a numpy RuntimeWarning
    assert not oracles.is_symmetric(alpha * random_asymmetric(6, seed=1))
    assert oracles.is_symmetric(alpha * random_symmetric(6, seed=1))


def test_is_symmetric_judges_d_and_2_to_the_k_d_alike():
    S, A = random_symmetric(7, seed=2), random_asymmetric(7, seed=2)
    for eps in np.logspace(-12, -6, 25):
        M = S + eps * A
        tol = float(np.linalg.norm(M - M.T)) / float(np.linalg.norm(M))
        for t in (0.5 * tol, tol, 2.0 * tol):
            expected = oracles.is_symmetric(M, t)
            for k in (-1000, -600, -200, 200, 600, 1000):
                assert oracles.is_symmetric(np.ldexp(M, k), t) == expected, (eps, t, k)


def test_is_psd():
    X = random_symmetric(5, seed=6)
    G = X @ X.T
    assert oracles.is_psd(G)
    assert not oracles.is_psd(G - 2.0 * np.linalg.eigvalsh(G)[-1] * np.eye(5))


def test_antisym_spectrum_pairs_exactly():
    rng = oracles._unit_floats(7)
    A = np.array([[next(rng) for _ in range(7)] for _ in range(7)])
    K = A - A.T
    spec = linalg._antisym_spectrum(K)
    assert len(spec) == 7
    # exact +-theta pairing and descending order
    np.testing.assert_array_equal(spec, -spec[::-1])
    assert np.all(np.diff(spec) <= 0)


def test_antisym_spectrum_matches_hermitian_route():
    # -iK is Hermitian; its spectrum is the antisymmetric spectrum.
    for seed in range(6):
        A = random_asymmetric(6, seed=seed)
        K = A - A.T
        lib = np.sort(linalg._antisym_spectrum(K))
        ora = np.sort(np.linalg.eigvalsh(-1j * K).real)
        np.testing.assert_allclose(lib, ora, atol=1e-9)


def spectrum_of_parts(M):
    """commuting_spectrum of M from its symmetric and antisymmetric parts."""
    S, K = 0.5 * (M + M.T), 0.5 * (M - M.T)
    return linalg.commuting_spectrum(*np.linalg.eigh(S), K)


def test_normal_complex_spectrum_matches_complex_eigensolver():
    for seed in range(8):
        C = random_circulant(7, seed=seed)
        M = linalg.center_restrict(C)
        lib = np.sort_complex(spectrum_of_parts(M))
        ora = np.sort_complex(np.linalg.eigvals(M))
        np.testing.assert_allclose(lib, ora, atol=1e-8)
        np.testing.assert_array_equal(bounds.Compression(C).w, spectrum_of_parts(M))


def _circulant_with_spectrum(lam):
    """The real circulant whose spectrum is lam, given lam[n - j] = conj(lam[j])."""
    c = np.fft.ifft(lam).real
    idx = np.arange(len(c))
    return c[(idx[None, :] - idx[:, None]) % len(c)]


def _spectrum_inputs():
    # random_circulant: even n puts a real singleton inside a run of pairs, and at
    # tol 1 every eigenvalue is one eigenspace; the n = 16 circulant has the real
    # part 3 at frequencies 2 and 5, a four-dimensional eigenspace between runs of pairs
    for n in (3, 4, 5, 6, 7, 8, 9, 40, 41, 300, 301):
        for seed in (0, 3, 2**64 - 1):
            C = bounds.Compression(random_circulant(n, seed))
            yield C.S, C.K
    lam = np.zeros(16, dtype=complex)
    lam[1:8] = [7 + 1j, 3 + 0.5j, 6 - 2j, 5 + 1j, 3 + 1.5j, 2 - 1j, 1 + 3j]
    lam[8] = -1.0
    lam[9:] = np.conj(lam[7:0:-1])
    M = _circulant_with_spectrum(lam)
    yield 0.5 * (M + M.T), 0.5 * (M - M.T)


@pytest.mark.parametrize("chunk", [1, 2, 3, linalg._PAIR_CHUNK])
def test_commuting_spectrum_is_the_per_eigenspace_loop(monkeypatch, chunk):
    monkeypatch.setattr(linalg, "_PAIR_CHUNK", chunk)
    for S, K in _spectrum_inputs():
        w, V = np.linalg.eigh(S)
        for tol in (0.0, 1e-8, 1.0):
            ours = linalg.commuting_spectrum(w, V, K, tol)
            assert ours.tobytes() == oracles.commuting_spectrum(w, V, K, tol).tobytes(), (len(w), tol)
    # the last input's four eigenvalues of real part 3 form one eigenspace at tol 1e-8
    spec = linalg.commuting_spectrum(w, V, K)
    three = spec[np.isclose(spec.real, 3.0)]
    assert len(three) == 4 and len(set(three.real.tolist())) == 1
    np.testing.assert_allclose(three.imag, [1.5, 0.5, -0.5, -1.5], atol=1e-12)


def test_stacked_products_are_views_of_the_eigenvectors(monkeypatch):
    # the bits hold on the strides of views: a contiguous copy of Vg.T changes them
    C = bounds.Compression(random_circulant(300, 0))
    w, V = np.linalg.eigh(C.S)
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b: calls.append((a, b)) or matmul(a, b))
    linalg.commuting_spectrum(w, V, C.K)
    assert calls and len(calls) % 2 == 0
    for (left, K), (_, right) in zip(calls[::2], calls[1::2]):
        assert left.ndim == right.ndim == 3 and K is C.K
        assert np.shares_memory(left, V) and np.shares_memory(right, V)
    assert sum(left.shape[0] for left, _ in calls[::2]) == 149  # every pair of 299 but frequency 150


def test_normal_complex_spectrum_real_for_symmetric_input():
    M = linalg.center_restrict(random_symmetric(6, seed=9))
    spec = spectrum_of_parts(M)
    np.testing.assert_allclose(spec.imag, 0.0, atol=1e-10)
    np.testing.assert_allclose(np.sort(spec.real), np.linalg.eigvalsh(0.5 * (M + M.T)), atol=1e-9)


def test_normal_complex_spectrum_rejects_non_normal():
    # the gate in front of the complex spectrum is Compression.normal; phi_normal raises past it
    assert not is_normal(np.triu(np.ones((4, 4)), 1))
    D = random_asymmetric(6, seed=1)
    assert not bounds.Compression(D).normal
    with pytest.raises(NotNormal):
        bounds.phi_normal(D)


def test_vn_trace_range_brackets_trace():
    for seed in range(20):
        A = random_symmetric(6, seed=seed)
        B = random_symmetric(6, seed=seed + 1000)
        lo, hi = oracles.vn_trace_range(A, B)
        tr = float(np.trace(A @ B))
        assert lo <= tr + 1e-9
        assert tr <= hi + 1e-9


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_symmetry_tests_reject_a_tol_outside_zero_to_infinity(tol):
    # vn_trace_range raised NotSymmetric on symmetric input at -1 and nan
    S = random_symmetric(5, seed=1)
    with pytest.raises(InvalidTolerance):
        oracles.is_symmetric(S, tol)
    with pytest.raises(InvalidTolerance):
        oracles.vn_trace_range(S, S, tol)


def test_vn_trace_range_validates_each_matrix_once(monkeypatch):
    names = []
    original = oracles.as_square
    monkeypatch.setattr(oracles, "as_square", lambda M, name="matrix": names.append(name) or original(M, name))
    oracles.vn_trace_range(random_symmetric(5, seed=1), random_symmetric(5, seed=2))
    assert len(names) == 2


def test_vn_trace_range_is_hull_of_all_pairings():
    """The bracket ends must be the extreme pairings, not merely bounds."""
    for seed in range(6):
        A = random_symmetric(5, seed=seed)
        B = random_symmetric(5, seed=seed + 77)
        lo, hi = oracles.vn_trace_range(A, B)
        wa = np.linalg.eigvalsh(A)
        wb = np.linalg.eigvalsh(B)
        assert abs(lo - oracles.min_pairing(wa, wb)) < 1e-9
        assert abs(hi - oracles.max_pairing(wa, wb)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(stn.integers(min_value=0, max_value=10**6), stn.integers(min_value=4, max_value=9))
def test_restricted_spectrum_invariant_under_constant_offdiagonal_shift(seed, n):
    """Adding beta to every off-diagonal entry shifts each restricted
    eigenvalue by exactly beta: J acts as zero on the restricted space and
    the identity contributes the shift."""
    D = random_symmetric(n, seed=seed)
    beta = 0.75
    shifted = D + beta * (np.ones((n, n)) - np.eye(n))
    a = np.sort(bounds.Compression(D).mu)
    b = np.sort(bounds.Compression(shifted).mu)
    np.testing.assert_allclose(b, a + beta, atol=1e-8)


def test_squared_distances_is_the_one_shot_sum(monkeypatch):
    # numpy sums fewer than 8 coordinates left to right, so below 8 the sum
    # may be built one coordinate at a time; it sums 8 or more pairwise, so
    # from 8 on only whole rows of the (n, n, dim) array may be split off
    rng = np.random.default_rng(5)
    cases = [(n, dim) for n in (3, 17, 60) for dim in (1, 2, 3, 7, 8, 9, 16, 31, 64, 300)]
    cases += [(257, dim) for dim in (1, 2, 7, 8, 9, 16)]
    for budget in (linalg._BLOCK_ENTRIES, 1000):  # one block at these sizes, and many
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", budget)
        for n, dim in cases:
            P = rng.random((n, dim)) * 1000.0
            assert linalg.squared_distances(P).tobytes() == oracles.squared_distances(P).tobytes(), (budget, n, dim)


def test_squared_distances_memory_does_not_grow_with_dim():
    # n = dim = 200: the one-shot (n, n, dim) difference array is 64 MB;
    # n = 2000, dim = 2: whole n x n differences per coordinate would add
    # 32 MB to the 32 MB output, where a block of rows adds at most 16 MB
    for n, dim in ((200, 200), (2000, 2)):
        P = np.random.default_rng(0).random((n, dim))
        tracemalloc.start()
        try:
            linalg.squared_distances(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (linalg._BLOCK_ENTRIES + n * n) + 2**20, (n, dim)


# ---------------------------------------------------------------- the symmetric eigensolver kernel


def _random_symmetric_matrix(n: int, seed: int = 0) -> np.ndarray:
    A = np.random.default_rng(seed).standard_normal((n, n))
    return A + A.T  # exactly symmetric


def _assert_numpy_bytes(M: np.ndarray) -> None:
    """One reduction of M gives np.linalg.eigvalsh's values and np.linalg.eigh's (w, V), byte for byte."""
    t = linalg.tridiagonal(M)
    values, (w, V) = linalg.eigvalsh(t), linalg.eigh(t)
    ref_values, (ref_w, ref_V) = np.linalg.eigvalsh(M), np.linalg.eigh(M)
    for ours, ref in ((values, ref_values), (w, ref_w), (V, ref_V)):
        assert (ours.dtype, ours.shape, ours.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())
    assert V.flags.c_contiguous
    # the reduction in M's own buffer is the same reduction
    assert linalg.eigvalsh(linalg.tridiagonal(M.copy(), overwrite=True)).tobytes() == ref_values.tobytes()


def test_the_kernel_is_numpys_own_lapack():
    # on a numpy built with scipy-openblas the fallback to np.linalg must not run
    if np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"] == "scipy-openblas":
        assert linalg._lapack() is not None


# 2..40 spans dstedc's switch to divide and conquer (n > 25) and dsytrd's blocked crossover (n > 32)
@pytest.mark.parametrize("n", [*range(2, 41), 64, 129, 300, 400])
def test_kernel_has_numpys_bytes(n):
    _assert_numpy_bytes(_random_symmetric_matrix(n, seed=n))


def test_kernel_has_numpys_bytes_on_the_zero_matrix():
    for n in (1, 2, 7, 40):
        _assert_numpy_bytes(np.zeros((n, n)))


# dsyevd scales max|M| outside [2^-485, 2^485], about 1e+-146, before its reduction
@pytest.mark.parametrize("exponent", [140, -140, 150, -150, 200, -200])
def test_kernel_has_numpys_bytes_where_dsyevd_scales(exponent):
    _assert_numpy_bytes(_random_symmetric_matrix(30, seed=1) * 10.0**exponent)


def test_kernel_raises_before_lapack_reads_past_a_buffer_and_when_a_routine_fails():
    for M in (np.zeros((3, 4)), np.zeros(3), np.zeros((2, 3, 3))):
        with pytest.raises(ValueError, match="cannot reshape"):
            linalg.tridiagonal(M)
    with pytest.raises(np.linalg.LinAlgError):
        linalg._call("dsterf", -1, np.zeros(1), np.zeros(1))  # INFO = -1: N < 0
    with pytest.raises(TypeError, match="at least 4 arguments"):
        linalg._call("dsterf", 1, np.zeros(1))  # dsterf takes N, D, E and INFO


def test_kernel_reduces_in_place_only_when_asked():
    S = _random_symmetric_matrix(9)
    assert np.shares_memory(linalg.tridiagonal(S, overwrite=True).a, S)
    assert not np.shares_memory(linalg.tridiagonal(S).a, S)


def _route_matrices():
    for n in (3, 7, 40, 300):
        for seed in (0, 3):
            yield random_symmetric(n, seed), random_circulant(n, seed), random_asymmetric(n, seed)


def test_reports_on_the_fallback_have_the_kernels_bytes(monkeypatch):
    # the symmetric, normal and general routes, the normal one at tol 0 and 1 too,
    # and eigenspaces of more than two dimensions (commuting_spectrum at tol 1)
    def outputs():
        out = []
        for mats in _route_matrices():
            for D in mats:
                out += [repr(bounds.bound_report(D, tol)) for tol in (0.0, 1e-8, 1.0)]
            c = bounds.Compression(mats[1])
            out.append(linalg.commuting_spectrum(*np.linalg.eigh(c.S), c.K, 1.0).tobytes())
        return out

    kernel = outputs()
    monkeypatch.setattr(linalg, "_lapack", lambda: None)
    assert outputs() == kernel


@pytest.mark.parametrize("threads", [1, 2])
def test_kernel_has_numpys_bytes_at_each_thread_count(threads):
    # OpenBLAS reads its thread count once, when it loads, so each count needs
    # an interpreter of its own; the bytes are compared within that interpreter
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    code = (
        "import ctypes, sys, numpy as np, pytest\n"
        "threads = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), 'scipy_openblas_get_num_threads64_', None)\n"
        f"assert threads is None or threads() == {threads}\n"
        f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', '-k', 'kernel_has_numpys_bytes and not thread', "
        f"{__file__!r}]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=root)
    assert done.returncode == 0, done.stdout + done.stderr
