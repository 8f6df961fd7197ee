import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as stn

import oracles
from spectral_tsp import bounds, graphs, linalg, solvers
from spectral_tsp.errors import (
    InvalidDimension,
    InvalidTolerance,
    NonzeroDiagonal,
    NotNormal,
    NotSymmetric,
    SpectralTspError,
)
from spectral_tsp.instances import (
    circle_instance,
    line_instance,
    random_asymmetric,
    random_circulant,
    random_euclidean,
    random_symmetric,
    two_cluster_instance,
    uniform_instance,
)


# ---------------------------------------------------------------- phi, closed forms


@pytest.mark.parametrize("n", [3, 4, 7, 12, 25])
def test_uniform_and_circle_bounds_equal_city_count(n):
    assert abs(bounds.phi_symmetric(uniform_instance(n)) - n) < 1e-6
    assert abs(bounds.phi_symmetric(circle_instance(n)) - n) < 1e-6


def test_line_bound_known_value():
    assert abs(bounds.phi_symmetric(line_instance(10)) - 13.052) < 1e-3


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_two_cluster_closed_form(n):
    D = two_cluster_instance(n)
    expect = (1.0 - math.cos(math.pi / n)) * n
    assert abs(bounds.phi_symmetric(D) - expect) < 1e-8


def test_tsp_coefficients_multiset():
    c = bounds.tsp_coefficients(8)
    k = np.arange(1, 8)
    np.testing.assert_allclose(c, np.sort(1 - np.cos(2 * np.pi * k / 8)), atol=1e-12)
    assert np.all(np.diff(c) >= 0)
    assert c.sum() == pytest.approx(8.0)  # sum of 1-cos over a full period


# (tight, of) symmetric circulants of order n whose distances c_k = c_{n-k} lie in {1, 2, 3}:
# phi within 1e-9 * 3n of the held_karp optimum, the paper's tightness claim counted per n
TIGHT_CIRCULANTS = {5: (9, 9), 6: (10, 27), 7: (15, 27), 8: (14, 81), 9: (12, 81), 10: (16, 243), 11: (18, 243),
                    12: (16, 729)}


@pytest.mark.parametrize("n", TIGHT_CIRCULANTS)
def test_tight_symmetric_circulants_are_counted(n, record_property):
    i, j = np.indices((n, n))
    step = np.minimum((j - i) % n, (i - j) % n)
    tight = total = 0
    excess = -math.inf  # of phi over the optimum, in units of n eps max|D|: recorded, not gated
    for half in itertools.product((1.0, 2.0, 3.0), repeat=n // 2):
        D = np.array((0.0, *half))[step]
        phi, optimum = bounds.phi_symmetric(D), solvers.held_karp(D).length
        tight += abs(phi - optimum) <= 1e-9 * 3 * n
        total += 1
        excess = max(excess, (phi - optimum) / (n * np.finfo(float).eps * D.max()))
    record_property("max_excess_n_eps_max_d", excess)
    assert (tight, total) == TIGHT_CIRCULANTS[n]


# ---------------------------------------------------------------- cross-checks


def test_phi_symmetric_agrees_with_projector_oracle():
    for seed in range(15):
        D = random_symmetric(5 + seed % 4, seed=seed)
        assert abs(bounds.phi_symmetric(D) - oracles.phi_projector(D)) < 1e-9


def test_phi_is_a_lower_bound_on_small_instances():
    for seed in range(20):
        D = random_symmetric(7, seed=seed)
        opt = solvers.brute_force(D).length
        assert bounds.phi_symmetric(D) <= opt + 1e-8


def test_phi_normal_matches_exhaustive_pairing_on_circulants():
    for seed in range(8):
        D = random_circulant(6, seed=seed)
        a = bounds.phi_normal(D)
        b = oracles.phi_normal_exhaustive(D)
        assert abs(a - b) < 1e-8


@pytest.mark.parametrize("n", [7, 40, 300])
def test_normal_route_matches_the_dft_spectrum_of_circulants(n):
    # the DFT diagonalises every circulant, with no Householder basis and no
    # eigensolver: its spectrum, paired by the same assignment, is phi_normal
    from scipy.optimize import linear_sum_assignment

    ang = 2.0 * np.pi * np.arange(1, n) / n
    for seed in (0, 5, 2**63 + 1, 2**64 - 1):
        D = random_circulant(n, seed)
        w = oracles.circulant_center_spectrum(D[0])
        cost = np.outer(1.0 - np.cos(ang), w.real) + np.outer(np.sin(ang), w.imag)
        rows, cols = linear_sum_assignment(cost)
        phi = float(cost[rows, cols].sum())
        assert abs(bounds.phi_normal(D) - phi) <= 1e-12 * abs(phi), seed
        # roundoff ties reorder a joint (real, imag) sort from n = 40 on, so
        # each part is sorted on its own
        c = bounds.Compression(D)
        for part in (np.real, np.imag):
            err = np.abs(np.sort(part(c.w)) - np.sort(part(w))).max()
            assert err <= 1e-12 * np.abs(w).max(), (seed, part.__name__)


def test_phi_normal_reduces_to_phi_symmetric_on_symmetric_input():
    for seed in range(6):
        D = random_symmetric(7, seed=seed)
        assert abs(bounds.phi_normal(D) - bounds.phi_symmetric(D)) < 1e-8


def test_phi_normal_rejects_non_normal_input():
    D = random_asymmetric(6, seed=0)
    with pytest.raises(NotNormal):
        bounds.phi_normal(D)


def test_phi_general_matches_exhaustive_split_oracle():
    for seed in range(8):
        D = random_asymmetric(6, seed=seed)
        a = bounds.phi_general(D)
        b = oracles.phi_general_exhaustive(D)
        assert abs(a - b) < 1e-8


def test_phi_general_reduces_to_phi_symmetric_on_symmetric_input():
    for seed in range(6):
        D = random_symmetric(6, seed=seed)
        assert abs(bounds.phi_general(D) - bounds.phi_symmetric(D)) < 1e-9


def test_phi_general_never_beats_phi_normal_on_circulants():
    """Splitting the spectrum relaxes the pairing problem, so the split
    bound can only be weaker (or equal)."""
    for seed in range(10):
        D = random_circulant(7, seed=seed)
        assert bounds.phi_general(D) <= bounds.phi_normal(D) + 1e-9


def test_phi_general_sound_against_directed_optimum():
    for seed in range(15):
        D = random_asymmetric(6, seed=seed)
        assert bounds.phi_general(D) <= oracles.directed_optimum(D) + 1e-8


# ---------------------------------------------------------------- invariances


@settings(max_examples=50, deadline=None)
@given(
    stn.integers(min_value=0, max_value=10**6),
    stn.floats(min_value=0.0, max_value=5.0),
    stn.floats(min_value=-1.0, max_value=3.0),
)
def test_affine_covariance_symmetric(seed, alpha, beta):
    n = 4 + seed % 5
    D = random_symmetric(n, seed=seed)
    J = np.ones((n, n)) - np.eye(n)
    lhs = bounds.phi_symmetric(alpha * D + beta * J)
    rhs = alpha * bounds.phi_symmetric(D) + beta * n
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


@settings(max_examples=30, deadline=None)
@given(
    stn.integers(min_value=0, max_value=10**6),
    stn.floats(min_value=0.0, max_value=5.0),
    stn.floats(min_value=-1.0, max_value=3.0),
)
def test_affine_covariance_general(seed, alpha, beta):
    n = 4 + seed % 4
    D = random_asymmetric(n, seed=seed)
    J = np.ones((n, n)) - np.eye(n)
    lhs = bounds.phi_general(alpha * D + beta * J)
    rhs = alpha * bounds.phi_general(D) + beta * n
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_phi_invariant_under_city_relabelling():
    rng = oracles._splitmix64(13)
    for seed in range(8):
        n = 6 + seed % 3
        D = random_symmetric(n, seed=seed)
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = next(rng) % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        P = D[np.ix_(perm, perm)]
        assert abs(bounds.phi_symmetric(P) - bounds.phi_symmetric(D)) < 1e-9


def test_restricted_spectrum_trace_identity():
    # The restricted eigenvalues must add up to (n-1) times the mean
    # off-diagonal distance; a cheap full-spectrum consistency check.
    for seed in range(10):
        n = 5 + seed % 4
        D = random_symmetric(n, seed=seed)
        mu = bounds.Compression(D).mu
        assert len(mu) == n - 1
        assert abs(mu.sum() - (n - 1) * bounds.mean_distance(D)) < 1e-9


# ---------------------------------------------------------------- auxiliary bounds


def test_n2_bound_hand_value_and_soundness():
    D = np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0]])
    assert bounds.n2_bound(D) == pytest.approx(6.0)  # equals the only tour here
    for seed in range(10):
        M = random_symmetric(7, seed=seed)
        assert bounds.n2_bound(M) <= solvers.brute_force(M).length + 1e-9


def test_n2_bound_requires_symmetry():
    with pytest.raises(NotSymmetric):
        bounds.n2_bound(random_asymmetric(5, seed=0))


def test_schoenberg_check_accepts_metrics_of_negative_type():
    D, _ = random_euclidean(7, seed=4)
    assert bounds.schoenberg_edm_check(D)
    assert bounds.schoenberg_edm_check(line_instance(7))
    assert bounds.schoenberg_edm_check(uniform_instance(7))
    assert not bounds.schoenberg_edm_check(random_symmetric(7, seed=5))


def test_schoenberg_check_agrees_with_projector_route():
    """The check reads the compressed spectrum; the oracle eigensolves -P D P."""
    cases = [random_euclidean(7, seed=s)[0] for s in range(6)]
    cases += [random_symmetric(7, seed=s) for s in range(6)]
    cases += [line_instance(7), uniform_instance(7), circle_instance(9)]
    for D in cases:
        assert bounds.schoenberg_edm_check(D) == oracles.schoenberg_projector(D)


def test_euclidean_floor_sound_on_point_sets():
    for n, seed in itertools.product(range(3, 9), range(10)):
        D, _ = random_euclidean(n, seed=seed)
        floor = bounds.euclidean_floor(D)
        assert floor <= bounds.phi_symmetric(D) + 1e-9
        assert floor <= solvers.brute_force(D).length + 1e-9


def test_euclidean_floor_is_tight_on_three_cities():
    # both tour coefficients are 3/2 at n = 3, so the floor is phi and the only tour's length
    D, _ = random_euclidean(3, seed=1)
    length = D[0, 1] + D[1, 2] + D[2, 0]
    assert bounds.euclidean_floor(D) == pytest.approx(length, rel=1e-12)
    assert bounds.euclidean_floor(D) == pytest.approx(2.0 * 1.5 * bounds.mean_distance(D), rel=1e-12)


def test_mean_distance():
    D = np.array([[0.0, 2, 4], [2, 0, 6], [4, 6, 0]])
    assert bounds.mean_distance(D) == pytest.approx(4.0)


# ---------------------------------------------------------------- reports


def _assert_report_matches_oracles(rep, D):
    """Every route the report fills agrees with its independent oracle."""
    np.testing.assert_allclose(rep.mu, oracles._restricted_eigs_projector(D)[::-1], atol=1e-9)
    if rep.phi_symmetric is not None:
        assert abs(rep.phi_symmetric - oracles.phi_projector(D)) < 1e-9
    if rep.phi_normal is not None:
        assert abs(rep.phi_normal - oracles.phi_normal_exhaustive(D)) < 1e-9
    assert abs(rep.phi_general - oracles.phi_general_exhaustive(D)) < 1e-9


def test_bound_report_symmetric_instance():
    D = circle_instance(10)
    rep = bounds.bound_report(D)
    assert rep.n == 10
    assert rep.symmetric and rep.normal
    assert rep.phi == pytest.approx(rep.phi_symmetric)
    assert rep.phi == pytest.approx(10.0, abs=1e-6)
    assert rep.psd  # circle chords embed in the plane
    assert len(rep.mu) == 9
    assert rep.n2 is not None
    # on symmetric input the other two routes report the same float
    assert rep.phi_normal == rep.phi_general == rep.phi_symmetric
    for seed in range(4):
        for M in (random_symmetric(7, seed=seed), random_euclidean(7, seed=seed)[0]):
            _assert_report_matches_oracles(bounds.bound_report(M), M)


def test_bound_report_asymmetric_instance():
    D = random_asymmetric(6, seed=7)
    rep = bounds.bound_report(D)
    assert not rep.symmetric
    assert rep.n2 is None
    assert rep.euclidean_floor is None
    assert rep.phi == pytest.approx(rep.phi_general)
    if not rep.normal:
        assert rep.phi_normal is None
    for seed in range(4):
        M = random_asymmetric(6, seed=seed)
        _assert_report_matches_oracles(bounds.bound_report(M), M)


def test_bound_report_normal_asymmetric_instance():
    # Circulants with an asymmetric generator are normal but not symmetric,
    # so the assignment-based bound applies and is the headline number.
    rng = oracles._unit_floats(99)
    n = 7
    row = np.array([0.0] + [next(rng) for _ in range(n - 1)])
    D = np.array([np.roll(row, i) for i in range(n)])
    if np.allclose(D, D.T):
        pytest.skip("drew a symmetric circulant")
    rep = bounds.bound_report(D)
    assert rep.normal and not rep.symmetric
    assert rep.phi == pytest.approx(rep.phi_normal)
    assert rep.phi_general <= rep.phi_normal + 1e-9
    _assert_report_matches_oracles(rep, D)
    for seed in range(4):
        M = random_circulant(7, seed=seed)
        _assert_report_matches_oracles(bounds.bound_report(M), M)


def test_bound_report_of_the_zero_matrix():
    rep = bounds.bound_report(np.zeros((4, 4)))
    assert rep.symmetric and rep.normal and rep.psd
    assert rep.phi == 0.0 and rep.mu == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------- one spectral pass


def test_symmetric_report_is_one_pass(calls):
    D, _ = random_euclidean(40, seed=3)
    bounds.bound_report(D)
    assert calls["parts_commute"] == 0
    assert calls == {"validation": 1, "as_square": 1, "compression": 1, "eigensolve": 1, "pairing": 1}


def test_non_normal_report_solves_two_eigenproblems(calls):
    # one reduction of S for mu, one of K^T K for phi_general
    rep = bounds.bound_report(random_asymmetric(40, seed=3))
    assert not rep.normal
    assert calls == {
        "validation": 1, "as_square": 1, "compression": 1, "parts_commute": 1, "eigensolve": 2, "pairing": 1,
    }


def test_normal_report_solves_one_assignment(calls):
    # one reduction of S for both mu and the complex spectrum (it was eigvalsh(S) and eigh(S)
    # apart), one of K^T K for phi_general
    rep = bounds.bound_report(random_circulant(7, seed=2))
    assert rep.normal and not rep.symmetric
    assert calls == {
        "validation": 1, "as_square": 1, "compression": 1, "parts_commute": 1, "eigensolve": 2, "lsap": 1,
        "pairing": 1,
    }


def test_symmetric_report_pairs_once(calls):
    # phi_symmetric, phi_normal and phi_general all read the one cosine pairing of a
    # symmetric D's Compression, and euclidean_floor reads its one mean_distance
    D, _ = random_euclidean(30, seed=4)
    near = D + 1e-12 * random_asymmetric(30, seed=4)  # symmetric at tol, not exactly
    for M in (D, near, circle_instance(9), np.zeros((4, 4))):
        calls.clear()
        rep = bounds.bound_report(M)
        assert rep.symmetric and rep.normal
        assert calls["pairing"] == 1, calls
        assert rep.phi_symmetric == rep.phi_normal == rep.phi_general == rep.phi
    calls.clear()
    c = bounds.Compression(D)
    values = [f(c) for f in (bounds.phi_symmetric, bounds.phi_normal, bounds.phi_general, bounds.phi_symmetric)]
    assert calls["pairing"] == 1 and len(set(values)) == 1
    bounds.euclidean_floor(c)
    assert vars(c)["mean_distance"] == bounds.mean_distance(c)  # kept from the floor's sum


def _exactly_symmetric_families():
    """Exactly symmetric distance matrices of every kind the package builds,
    each also with its vertices relabelled by a random permutation."""
    mats = [uniform_instance(9), two_cluster_instance(6), random_euclidean(12, seed=0, dim=3)[0]]
    for n in (3, 7, 40):
        mats += [circle_instance(n), line_instance(n), random_symmetric(n, seed=n), random_euclidean(n, seed=n)[0]]
    for g in (graphs.cycle_graph(12), graphs.complete_bipartite(5, 6), graphs.dihedral_reflection_cayley(5)):
        mats += [1.0 - np.eye(g.n) - g.adjacency, graphs.distance_matrix(g)]
    mats.append(1.0 - np.eye(5) - graphs.bow_tie().adjacency)
    rng = np.random.default_rng(15)
    for D in mats:
        p = rng.permutation(len(D))
        yield D
        yield D[np.ix_(p, p)]


@pytest.mark.parametrize("tol", [0.0, 1e-15, 1e-8, 1.0])
def test_exactly_symmetric_input_is_normal_at_every_tol(tol, monkeypatch):
    # at tol 0, roundoff in the compression's antisymmetric part K made
    # circle_instance(40) not normal, and phi_normal raised NotNormal
    made = []

    class Recorded(bounds.Compression):
        def __init__(self, D, tol):
            super().__init__(D, tol)
            made.append(self)

    monkeypatch.setattr(bounds, "Compression", Recorded)
    for D in _exactly_symmetric_families():
        assert np.array_equal(D, D.T)
        rep = bounds.bound_report(D, tol)
        c = made.pop()
        assert rep.symmetric and rep.normal and c.normal
        assert rep.phi_normal == rep.phi_symmetric == rep.phi_general == rep.phi
        assert c.K is None  # never built
        assert bounds.phi_normal(D, tol) == rep.phi


def _dense_pass_sweep():
    """Exactly symmetric, nearly symmetric, asymmetric, Fortran-ordered and signed-zero matrices."""
    for n in (3, 7, 40):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            E = random_euclidean(n, seed=seed)[0]
            S = random_symmetric(n, seed=seed)
            A = random_asymmetric(n, seed=seed)
            rounded = np.round(3.0 * E)
            upper = np.triu(np.ones((n, n), dtype=bool), 1)
            signed = np.where(upper & (rounded == 0.0), -0.0, rounded)  # -0.0 above, +0.0 below
            mixed = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)
            yield from (E, rounded, S, 0.5 * (A + A.T), A, random_circulant(n, seed))
            yield from (S + 1e-12 * np.triu(rng.random((n, n)), 1), np.asfortranarray(E))
            yield from (signed, signed.T, mixed, np.full((n, n), -0.0), 1e160 * S, 1e-170 * E)


@pytest.mark.parametrize("tol", [0.0, 1e-8, 1.0])
def test_report_matches_the_dense_passes_bit_for_bit(tol):
    """The in-place basis, compression and parts, and the exactly-symmetric
    skew and n2, give the bytes of the dense passes they replaced."""
    routes = Counter()
    for D in _dense_pass_sweep():
        rep = bounds.bound_report(D, tol)
        c = bounds.Compression(D, tol)
        ref = oracles.dense_report_fields(c.A, c.scale, tol)
        # Compression keeps S and, unless A is exactly symmetric, K and ||R||_F, not R itself
        assert linalg.center_restrict(c.A).tobytes() == ref["R"].tobytes()
        assert c.S.tobytes() == ref["S"].tobytes()
        if c.exactly_symmetric:
            assert c.K is None and c.R_norm is None
        else:
            assert c.K.tobytes() == ref["K"].tobytes()
            assert repr(c.R_norm) == repr(float(np.linalg.norm(ref["R"])))
        assert (rep.symmetric, rep.psd, repr(rep.mu)) == (ref["symmetric"], ref["psd"], repr(ref["mu"]))
        if rep.symmetric:
            assert repr((rep.phi_symmetric, rep.n2)) == repr((ref["phi_symmetric"], ref["n2"]))
            assert c.skew == ref["skew"] and math.copysign(1.0, c.skew) == 1.0
            if rep.euclidean_floor is not None:
                n = rep.n
                floor = float((n - 1) * (1.0 - np.cos(2.0 * np.pi / n)) * rep.mean_distance) - c.scale * ref["skew"]
                assert repr(rep.euclidean_floor) == repr(floor)
        routes[(rep.symmetric, c.exactly_symmetric)] += 1
    assert routes[(True, True)] and routes[(False, False)]
    assert routes[(True, False)] or tol < 1e-12  # inexactly symmetric input keeps the dense route


def test_symmetric_report_holds_at_most_four_matrices():
    # R, S and K, and one n x n array at a time besides them: the dense
    # passes peaked at five (tracemalloc, D allocated before tracing)
    n = 400
    D = random_euclidean(n, seed=1)[0]
    bounds.bound_report(D)
    tracemalloc.start()
    try:
        bounds.bound_report(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * 8 * n * n


@pytest.mark.parametrize("family", [random_circulant, random_asymmetric])
def test_non_symmetric_reports_hold_at_most_five_and_a_quarter_matrices(family):
    # the normal route (circulant) peaked at 5.09 n^2 floats and the general
    # route at 5.03 before the normal route stacked its eigenspace products
    n = 400
    D = family(n, seed=1)
    bounds.bound_report(D)
    tracemalloc.start()
    try:
        bounds.bound_report(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.25 * 8 * n * n


def test_general_report_holds_at_most_four_and_a_quarter_matrices():
    # S, K, the reduction of S and K^T K: R goes once S, K and ||R||_F are
    # taken, where the general route peaked at 5.03 n^2 floats with R kept
    n = 400
    D = random_asymmetric(n, seed=1)
    bounds.bound_report(D)
    tracemalloc.start()
    try:
        bounds.bound_report(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * 8 * n * n


def test_general_report_holds_at_most_three_and_a_quarter_matrices():
    # S, K and K S, then S, K and K^T K: K S + (K S)^T is formed in K S's own
    # buffer a band of rows at a time, and the reduction of S is gone before
    # K^T K is formed, where the general route peaked at 4.08 n^2 floats
    n = 400
    D = random_asymmetric(n, seed=1)
    bounds.bound_report(D)
    tracemalloc.start()
    try:
        bounds.bound_report(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 8 * n * n


def _fresh_python(code: str) -> list[str]:
    """The stdout lines of `code` run in a new interpreter that imports this checkout's package."""
    src = str(Path(bounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


# after `solve` is bound: prints whether scipy.optimize was loaded, then whether
# scipy.optimize.linear_sum_assignment, imported only now, gives the same cols as
# `solve` on random, tie-heavy and circulant costs
_SAME_COLS = """
print('scipy.optimize' in sys.modules)
rng = np.random.default_rng(7)
costs = [rng.random((30, 30)), rng.random((20, 35)), np.floor(3.0 * rng.random((40, 40)))]
for n in (7, 40, 300):
    c = bounds.Compression(instances.random_circulant(n, 3))
    ang = 2.0 * np.pi * np.arange(1, n) / n
    costs.append(np.outer(1.0 - np.cos(ang), c.w.real) + np.outer(np.sin(ang), c.w.imag))
ours = [solve(cost)[1] for cost in costs]
from scipy.optimize import linear_sum_assignment
print(all(np.array_equal(a, linear_sum_assignment(cost)[1]) for a, cost in zip(ours, costs)))
"""


def test_no_report_imports_scipy_optimize():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from spectral_tsp import bounds, instances\n"
        "for family in ('random_symmetric', 'random_asymmetric', 'random_circulant'):\n"
        "    bounds.bound_report(getattr(instances, family)(12, 0))\n"
        "    print('scipy.optimize' in sys.modules)\n"
        "solve = bounds._assignment_solver()\n"
    )
    # the circulant is normal and not symmetric: its report solves an assignment
    assert _fresh_python(code + _SAME_COLS) == ["False"] * 4 + ["True"]


def test_a_later_scipy_optimize_import_binds_the_loaded_kernel():
    # the extension registers itself in sys.modules when it loads; the loader
    # takes it out again, else scipy.optimize would never bind its _lsap
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from spectral_tsp import bounds, instances\n"
        "bounds.bound_report(instances.random_circulant(40, 0))\n"
        "print('scipy.optimize._lsap' in sys.modules)\n"
        "import scipy.optimize\n"
        "print(hasattr(scipy.optimize, '_lsap'))\n"
        "solve = bounds._assignment_solver()\n"
        "print(scipy.optimize.linear_sum_assignment is solve)\n"
        "cost = np.random.default_rng(7).random((30, 30))\n"
        "print(np.array_equal(solve(cost)[1], scipy.optimize._lsap.linear_sum_assignment(cost)[1]))\n"
    )
    assert _fresh_python(code) == ["False", "True", "True", "True"]


def test_extension_and_import_fallback_give_the_same_reports():
    # the reports are printed before any scipy.optimize import; with find_spec
    # missing scipy, the loader finds no extension file and imports scipy.optimize
    code = (
        "import importlib.util, sys\n"
        "import numpy as np\n"
        "if {miss}:\n"
        "    find_spec = importlib.util.find_spec\n"
        "    importlib.util.find_spec = lambda name, *a: None if name == 'scipy' else find_spec(name, *a)\n"
        "from spectral_tsp import bounds, instances\n"
        "for n in (3, 7, 40, 300):\n"
        "    for seed in (0, 3, 2**64 - 1):\n"
        "        for tol in (1e-8, 0.0, 1.0):\n"
        "            print(repr(bounds.bound_report(instances.random_circulant(n, seed), tol)))\n"
        "solve = bounds._assignment_solver()\n"
    )
    extension = _fresh_python(code.format(miss=False) + _SAME_COLS)
    fallback = _fresh_python(code.format(miss=True) + _SAME_COLS)
    assert extension[-2:] == ["False", "True"]
    assert fallback[-2:] == ["True", "True"]
    assert len(extension) == 36 + 2 and extension[:-2] == fallback[:-2]
    # every report at tol 1e-8 is normal and not symmetric: it solves an assignment
    assert all("symmetric=False, normal=True" in line for line in extension[0:36:3])


# ---------------------------------------------------------------- scale


_FAMILIES = [
    random_symmetric,
    random_asymmetric,
    random_circulant,
    lambda n, seed: random_euclidean(n, seed=seed)[0],
]


@settings(max_examples=80, deadline=None)
@given(
    stn.integers(min_value=0, max_value=10**6),
    stn.floats(min_value=-290.0, max_value=290.0),
    stn.sampled_from(range(len(_FAMILIES))),
)
def test_report_is_scale_free(seed, log_alpha, family):
    """Scaling D by alpha scales phi by alpha and leaves every flag alone.

    phi is compared relative to the larger of |phi| and the mean tour length
    n * mean_distance, the scale of its roundoff."""
    alpha = 10.0**log_alpha
    D = _FAMILIES[family](4 + seed % 5, seed)
    base = bounds.bound_report(D)
    scaled = bounds.bound_report(alpha * D)
    flags = (base.symmetric, base.normal, base.psd)
    assert (scaled.symmetric, scaled.normal, scaled.psd) == flags
    scale = max(abs(base.phi), base.n * base.mean_distance)
    assert abs(scaled.phi - alpha * base.phi) <= 1e-9 * alpha * scale


@settings(max_examples=30, deadline=None)
@given(stn.integers(min_value=0, max_value=10**6), stn.floats(min_value=-290.0, max_value=290.0))
def test_scaled_directed_phi_is_sound(seed, log_alpha):
    D = 10.0**log_alpha * random_asymmetric(7, seed=seed)
    opt = solvers.brute_force(D).length
    assert bounds.bound_report(D).phi <= opt + 1e-9 * opt


@settings(max_examples=60, deadline=None)
@given(
    stn.integers(min_value=0, max_value=10**6),
    stn.integers(min_value=-900, max_value=900),
    stn.sampled_from(range(len(_FAMILIES))),
)
def test_report_scales_exactly_by_powers_of_two(seed, k, family):
    # scaling by a power of two is exact, so D * 2^k has the flags of D and
    # 2^k times its phi, bit for bit, far past where squares over- or underflow
    D = _FAMILIES[family](4 + seed % 5, seed)
    base = bounds.bound_report(D)
    scaled = bounds.bound_report(np.ldexp(D, k))
    assert (scaled.symmetric, scaled.normal, scaled.psd) == (base.symmetric, base.normal, base.psd)
    assert scaled.phi == math.ldexp(base.phi, k)


@pytest.mark.parametrize(
    "family, n, seed, alpha",
    [
        # was judged symmetric and normal once its squared norms overflowed
        (random_asymmetric, 6, 1, 1e160),
        # the same, with the squares underflowing
        (random_asymmetric, 6, 1, 1e-170),
        # was judged symmetric and psd, with a euclidean_floor of 0.660 against an optimum of 0.394
        (random_circulant, 7, 6, 1e155),
        # K^T K underflowed, and phi_general was 0.447656 against an optimum of 0.446725
        (random_circulant, 7, 8, 1e-160),
    ],
)
def test_extreme_magnitudes_keep_their_flags_and_bounds(family, n, seed, alpha):
    D = family(n, seed)
    base = bounds.bound_report(D)
    rep = _assert_report_is_sound(alpha * D, linalg.DEFAULT_TOL)
    assert (rep.symmetric, rep.normal, rep.psd) == (base.symmetric, base.normal, base.psd)


@pytest.mark.parametrize("alpha", [1.0, 1e150, 1e160, 1e-160])
def test_nonzero_diagonal_is_rejected_at_every_magnitude(alpha):
    D = alpha * random_symmetric(6, seed=1)
    np.fill_diagonal(D, 1e-6 * alpha)
    with pytest.raises(NonzeroDiagonal):
        bounds.check_distance_matrix(D)


def test_tiny_asymmetric_matrix_is_not_judged_symmetric():
    # with an absolute tolerance floor, 1e-10 * D passed as symmetric and
    # phi_symmetric then exceeded the directed optimum
    for seed in range(40):
        D = 1e-10 * random_asymmetric(7, seed=seed)
        rep = bounds.bound_report(D)
        assert not rep.symmetric
        assert rep.phi <= solvers.brute_force(D).length * (1 + 1e-9)


# ---------------------------------------------------------------- soundness at every tol


_REPORTED_BOUNDS = ("phi", "phi_symmetric", "phi_normal", "phi_general", "n2", "euclidean_floor")


def _assert_report_is_sound(D, tol):
    rep = bounds.bound_report(D, tol)
    opt = oracles.directed_optimum(D)
    for field in _REPORTED_BOUNDS:
        value = getattr(rep, field)
        assert value is None or value <= opt + 1e-9 * abs(opt), (field, value, opt)
    return rep


@settings(max_examples=150, deadline=None)
@given(
    stn.integers(min_value=0, max_value=10**6),
    stn.integers(min_value=3, max_value=8),
    stn.sampled_from([1e-8, 1e-6, 1e-4, 0.5, 1.0]),
    stn.floats(min_value=0.05, max_value=1.0),
)
def test_every_reported_bound_is_sound_at_every_tol(seed, n, tol, size):
    """A circulant plus a perturbation of size 0.05 to 1 times tol sits at the
    edge of what tol judges normal (and, at a large tol, symmetric): every
    route a report fills must still bound the directed optimum."""
    C = random_circulant(n, seed)
    E = np.random.default_rng(seed).standard_normal((n, n))
    np.fill_diagonal(E, 0.0)
    _assert_report_is_sound(C + size * tol * np.linalg.norm(C) * E, tol)


def test_commuting_at_tol_is_not_normal_without_the_schur_certificate():
    # seed 22 of random_circulant(7, s) + eps ||C|| E, E the 23rd draw of
    # default_rng(0): eps is bisected to where the commutator test still passes.
    # The perturbation splits a pair of eigenvalues of S beyond the cluster
    # gap, the pairing loses the imaginary parts over it, and phi_normal was
    # 1.831 against an optimum of 0.536.
    rng = np.random.default_rng(0)
    for _ in range(23):
        E = rng.standard_normal((7, 7))
    np.fill_diagonal(E, 0.0)
    C = random_circulant(7, 22)
    D = C + 1.8225940919869704e-09 * np.linalg.norm(C) * E
    c = bounds.Compression(D)
    assert linalg.parts_commute(c.S, c.K, c.R_norm**2, c.tol)
    assert np.sum(c.w.imag**2) < 0.5 * np.linalg.norm(c.K) ** 2
    rep = _assert_report_is_sound(D, linalg.DEFAULT_TOL)
    assert not rep.normal and rep.phi_normal is None and rep.phi == rep.phi_general
    assert oracles.directed_optimum(D) == pytest.approx(0.5358, abs=1e-4)
    assert bounds.phi_general(D) == rep.phi


def test_symmetric_at_a_loose_tol_pays_for_the_asymmetry():
    # judged symmetric at tol 1.0, random_asymmetric(7, 3) had phi 1.912
    # against a directed optimum of 1.511
    D = random_asymmetric(7, seed=3)
    rep = _assert_report_is_sound(D, 1.0)
    assert rep.symmetric
    c = bounds.Compression(D, 1.0)
    assert c.skew > 0
    assert rep.phi == pytest.approx(float(bounds.tsp_coefficients(7) @ c.mu) - c.skew, rel=1e-12)
    assert bounds.Compression(0.5 * (D + D.T)).skew == 0.0


def test_symmetric_at_a_loose_tol_needs_no_schur_certificate():
    # phi_normal then repeats phi_symmetric, which already pays `skew`, so
    # normal is the commutator test alone and the complex spectrum is not computed
    D = random_asymmetric(7, seed=3)
    c = bounds.Compression(D, 1.0)
    assert c.symmetric and c.normal == linalg.parts_commute(c.S, c.K, c.R_norm**2, 1.0)
    assert "w" not in vars(c)
    rep = _assert_report_is_sound(D, 1.0)
    assert rep.normal and rep.phi_normal == rep.phi_symmetric


def test_psd_at_a_loose_tol_reports_no_euclidean_floor():
    D = random_symmetric(6, seed=0)
    mu = bounds.Compression(D).mu
    tol = 2.0 * -mu[-1] / float(np.linalg.norm(mu))  # ||S||_F = ||mu||
    c = bounds.Compression(D, tol)
    assert mu[-1] < 0 and c.psd and not c.floor_holds
    rep = bounds.bound_report(D, tol)
    assert rep.psd and rep.euclidean_floor is None
    assert bounds.Compression(random_euclidean(6, seed=0)[0]).floor_holds


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_a_tol_outside_zero_to_infinity_is_rejected(tol):
    # at -1 and nan an exactly symmetric matrix was reported not symmetric
    D = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    for call in (bounds.Compression, bounds.bound_report, bounds.phi_symmetric, bounds.phi_general, bounds.n2_bound):
        with pytest.raises(InvalidTolerance):
            call(D, tol)
    assert issubclass(InvalidTolerance, SpectralTspError)


def test_check_distance_matrix_errors():
    with pytest.raises(InvalidDimension):
        bounds.check_distance_matrix(np.zeros((2, 2)))
    with pytest.raises(InvalidDimension, match="at least 3 cities"):
        bounds.tsp_coefficients(2)
    # 3.5 returned the 3 coefficients [0.377, 1.223, 1.901]
    for n in (3.5, 2.5, True):
        with pytest.raises(InvalidDimension, match="must be an integer"):
            bounds.tsp_coefficients(n)
    assert bounds.tsp_coefficients(np.int64(5)).tobytes() == bounds.tsp_coefficients(5).tobytes()
    bad_diag = np.ones((4, 4))
    with pytest.raises(NonzeroDiagonal):
        bounds.check_distance_matrix(bad_diag)
    asym = random_asymmetric(5, seed=1)
    np.testing.assert_array_equal(bounds.check_distance_matrix(asym).A, asym)  # symmetry is for the bounds to demand
    with pytest.raises(NotSymmetric):
        bounds.phi_symmetric(asym)
