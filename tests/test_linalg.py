import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as stn

import oracles
from spectral_tsp import bounds, linalg
from spectral_tsp.errors import InvalidDimension, InvalidMatrix, InvalidTolerance, NotNormal, NotSymmetric
from spectral_tsp.instances import (
    SplitMix64,
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


@pytest.mark.parametrize("n", [2, 3, 7, 40, 300])
def test_householder_basis_in_place_is_the_dense_reflection(n):
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
    assert linalg.is_symmetric(M)
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


def test_householder_basis_needs_two_dimensions():
    with pytest.raises(InvalidDimension, match="n >= 2"):
        linalg.householder_basis(1)


def test_vn_trace_range_needs_symmetric_matrices_of_one_size():
    S = random_symmetric(5, seed=1)
    with pytest.raises(NotSymmetric):
        linalg.vn_trace_range(S, random_asymmetric(5, seed=2))
    with pytest.raises(NotSymmetric):
        linalg.vn_trace_range(random_asymmetric(5, seed=2), S)
    with pytest.raises(InvalidDimension, match="equal size"):
        linalg.vn_trace_range(S, random_symmetric(6, seed=3))


def is_normal(M, tol=linalg.DEFAULT_TOL):
    """The package's normality test, parts_commute, on a whole matrix."""
    return linalg.parts_commute(0.5 * (M + M.T), 0.5 * (M - M.T), float(np.linalg.norm(M)) ** 2, tol)


def test_symmetry_predicates():
    S = random_symmetric(5, seed=4)
    assert linalg.is_symmetric(S)
    A = random_asymmetric(5, seed=5)
    assert not linalg.is_symmetric(A)
    assert not linalg.is_symmetric(A - A.T)


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


def test_predicates_are_scale_free_and_pass_the_zero_matrix():
    Z = np.zeros((4, 4))
    assert linalg.is_symmetric(Z) and is_normal(Z) and bounds.Compression(Z).normal
    A = random_asymmetric(6, seed=3)
    for alpha in (1e-12, 1.0, 1e12):
        assert not linalg.is_symmetric(alpha * A)
        assert not is_normal(linalg.center_restrict(alpha * A))
        assert not bounds.Compression(alpha * A).normal


@pytest.mark.parametrize("alpha", [1e160, 1e-170, 1e300, 1e-300])
def test_is_symmetric_is_scale_free(alpha):
    # at 1e-170 the squares underflowed and this asymmetric matrix passed;
    # at 1e160 they overflowed, with a numpy RuntimeWarning
    assert not linalg.is_symmetric(alpha * random_asymmetric(6, seed=1))
    assert linalg.is_symmetric(alpha * random_symmetric(6, seed=1))


def test_is_symmetric_judges_d_and_2_to_the_k_d_alike():
    S, A = random_symmetric(7, seed=2), random_asymmetric(7, seed=2)
    for eps in np.logspace(-12, -6, 25):
        M = S + eps * A
        tol = float(np.linalg.norm(M - M.T)) / float(np.linalg.norm(M))
        for t in (0.5 * tol, tol, 2.0 * tol):
            expected = linalg.is_symmetric(M, t)
            for k in (-1000, -600, -200, 200, 600, 1000):
                assert linalg.is_symmetric(np.ldexp(M, k), t) == expected, (eps, t, k)


def test_is_psd():
    X = random_symmetric(5, seed=6)
    G = X @ X.T
    assert oracles.is_psd(G)
    assert not oracles.is_psd(G - 2.0 * np.linalg.eigvalsh(G)[-1] * np.eye(5))


def test_antisym_spectrum_pairs_exactly():
    rng = SplitMix64(7)
    A = np.array([[rng.next_float() for _ in range(7)] for _ in range(7)])
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
        lo, hi = linalg.vn_trace_range(A, B)
        tr = float(np.trace(A @ B))
        assert lo <= tr + 1e-9
        assert tr <= hi + 1e-9


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_symmetry_tests_reject_a_tol_outside_zero_to_infinity(tol):
    # vn_trace_range raised NotSymmetric on symmetric input at -1 and nan
    S = random_symmetric(5, seed=1)
    with pytest.raises(InvalidTolerance):
        linalg.is_symmetric(S, tol)
    with pytest.raises(InvalidTolerance):
        linalg.vn_trace_range(S, S, tol)


def test_vn_trace_range_validates_each_matrix_once(monkeypatch):
    names = []
    original = linalg.as_square
    monkeypatch.setattr(linalg, "as_square", lambda M, name="matrix": names.append(name) or original(M, name))
    linalg.vn_trace_range(random_symmetric(5, seed=1), random_symmetric(5, seed=2))
    assert len(names) == 2


def test_vn_trace_range_is_hull_of_all_pairings():
    """The bracket ends must be the extreme pairings, not merely bounds."""
    for seed in range(6):
        A = random_symmetric(5, seed=seed)
        B = random_symmetric(5, seed=seed + 77)
        lo, hi = linalg.vn_trace_range(A, B)
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
