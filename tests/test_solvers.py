import itertools
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from spectral_tsp import bounds, solvers
from spectral_tsp.errors import InvalidMatrix, InvalidTour, NotSymmetric, TooLarge
from spectral_tsp.instances import (
    circle_instance,
    line_instance,
    random_asymmetric,
    random_euclidean,
    random_symmetric,
)


def test_tour_length_closed_cycle():
    D = line_instance(4)
    assert solvers.tour_length(D, [0, 1, 2, 3]) == pytest.approx(6.0)
    assert solvers.tour_length(D, [0, 2, 1, 3]) == pytest.approx(8.0)


def test_tour_length_rejects_non_permutations():
    D = line_instance(4)
    for bad in ([0, 1, 2], [0, 1, 2, 2], [0, 1, 2, 4]):
        with pytest.raises(InvalidTour):
            solvers.tour_length(D, bad)


def test_brute_force_line_and_circle_optima():
    # the line's best roundtrip walks to the end and back: 2(n-1)
    for n in (4, 6, 8):
        assert solvers.brute_force(line_instance(n)).length == pytest.approx(2.0 * (n - 1))
    for n in (5, 9):
        assert solvers.brute_force(circle_instance(n)).length == pytest.approx(n)


def test_brute_force_agrees_with_directed_enumeration():
    for seed in range(10):
        D = random_asymmetric(6, seed=seed)
        assert solvers.brute_force(D).length == pytest.approx(
            oracles.directed_optimum(D), abs=1e-12
        )


def test_brute_force_enumerates_both_directions_unless_exactly_symmetric():
    # 1e-10 on each forward edge of the optimum is far below the default
    # tolerance, yet it makes the reversed tour the unique shortest one
    D = random_symmetric(8, seed=3)
    order = solvers.brute_force(D).order
    D[order, np.roll(order, -1)] += 1e-10
    assert solvers.brute_force(D).length == oracles.directed_optimum(D)


def test_brute_force_tour_is_valid_and_starts_at_zero():
    D = random_symmetric(7, seed=3)
    t = solvers.brute_force(D)
    assert t.order[0] == 0
    assert sorted(t.order) == list(range(7))
    assert t.length == pytest.approx(solvers.tour_length(D, t.order))


def test_brute_force_deterministic_tie_break():
    # every tour of the uniform instance has the same length, so the
    # lexicographically smallest order must win
    D = np.ones((6, 6)) - np.eye(6)
    t = solvers.brute_force(D)
    assert t.order == [0, 1, 2, 3, 4, 5]


def test_distances_whose_tour_lengths_overflow_are_rejected():
    # every entry is finite, but n * max|D| is not, and so is no tour length
    D = np.full((5, 5), 1e308)
    np.fill_diagonal(D, 0.0)
    for method in (solvers.brute_force, solvers.held_karp, solvers.two_opt, bounds.bound_report):
        with pytest.raises(InvalidMatrix, match="overflow"):
            method(D)


def test_permutations_in_lexicographic_order():
    for m in range(1, 7):
        assert solvers._permutations(m).tolist() == [list(p) for p in itertools.permutations(range(m))]


def test_brute_force_ties_across_batches(monkeypatch):
    # with three cities per batch, n = 8 spans 120 batches; integer weights
    # make many exact ties, and the winner must be the first minimal tour in
    # lexicographic order, as a plain enumeration finds it
    monkeypatch.setattr(solvers, "_BATCH_CITIES", 3)
    rng = np.random.default_rng(7)
    for symmetric in (True, False):
        W = rng.integers(1, 3, size=(8, 8)).astype(float)
        D = W + W.T if symmetric else W
        np.fill_diagonal(D, 0.0)
        best = min(
            (solvers.tour_length(D, [0, *p]), [0, *p])
            for p in itertools.permutations(range(1, 8))
            if not symmetric or p[0] < p[-1]
        )
        assert solvers.brute_force(D).order == best[1]


def test_held_karp_matches_brute_force_symmetric_and_not():
    for seed in range(15):
        D = random_symmetric(8, seed=seed)
        assert solvers.held_karp(D).length == pytest.approx(solvers.brute_force(D).length)
    for seed in range(10):
        D = random_asymmetric(7, seed=seed)
        assert solvers.held_karp(D).length == pytest.approx(solvers.brute_force(D).length)


def test_held_karp_tour_length_field_consistent():
    D = random_euclidean(10, seed=5)[0]
    t = solvers.held_karp(D)
    assert t.length == pytest.approx(solvers.tour_length(D, t.order))


def test_held_karp_handles_moderate_sizes():
    D = random_symmetric(15, seed=2)
    t = solvers.held_karp(D)
    assert t.length <= solvers.two_opt(D).length + 1e-9


def test_caps_enforced():
    with pytest.raises(TooLarge):
        solvers.brute_force(random_symmetric(13, seed=0))
    with pytest.raises(TooLarge):
        solvers.held_karp(random_symmetric(21, seed=0))


def test_two_opt_never_below_exact_and_reaches_circle_optimum():
    for seed in range(8):
        D = random_symmetric(9, seed=seed)
        exact = solvers.held_karp(D).length
        t = solvers.two_opt(D)
        assert t.length >= exact - 1e-9
    assert solvers.two_opt(circle_instance(30)).length == pytest.approx(30.0)


def test_two_opt_is_deterministic_per_seed():
    D = random_symmetric(12, seed=4)
    a = solvers.two_opt(D, seed=1)
    b = solvers.two_opt(D, seed=1)
    assert a.order == b.order and a.length == b.length


def test_two_opt_rejects_asymmetric():
    # at 1e160 and 1e-170 squared norms that overflow or underflow judged
    # this symmetric, and the reversals then cycled without end
    for alpha in (1.0, 1e160, 1e-170):
        with pytest.raises(NotSymmetric):
            solvers.two_opt(alpha * random_asymmetric(6, seed=1))


def test_two_opt_output_is_two_opt_minimal():
    """No single segment reversal may improve the returned tour; that is
    the defining property of the local optimum."""
    D = random_symmetric(11, seed=8)
    t = solvers.two_opt(D)
    order = t.order
    n = len(order)
    for i in range(n - 1):
        for j in range(i + 1, n):
            cand = order[: i + 1] + order[i + 1 : j + 1][::-1] + order[j + 1 :]
            assert solvers.tour_length(D, cand) >= t.length - 1e-9


# ------------------------------------------------ array solvers against the loop oracles

# the top of the uint64 range exercises the generator's wraparound
SEEDS = (0, 5, 2**63 + 1, 2**64 - 1)


def _matrices(n: int, seed: int):
    """Random and integer-tied matrices, symmetric and asymmetric."""
    for D in (random_symmetric(n, seed), random_asymmetric(n, seed)):
        yield D
        yield np.floor(3.0 * D)


def test_brute_force_is_the_batch_oracle():
    for n in range(3, 12):
        for seed in SEEDS[-1:] if n > 10 else SEEDS:
            for D in _matrices(n, seed):
                t = solvers.brute_force(D)
                assert (t.order, t.length) == oracles.brute_force(D), (n, seed)


@pytest.mark.parametrize("cities", [1, 2, 4])
def test_brute_force_in_small_batches_is_the_batch_oracle(monkeypatch, cities):
    # leading cities fixed per batch, and on symmetric input the orientation
    # filter reads the batch's head, not the table's own rows
    monkeypatch.setattr(solvers, "_BATCH_CITIES", cities)
    for n in (3, 5, 7):
        for seed in SEEDS[::3]:
            for D in _matrices(n, seed):
                t = solvers.brute_force(D)
                assert (t.order, t.length) == oracles.brute_force(D, cities), (n, seed)


def test_suffix_tables_are_read_only():
    for rising in (True, False):
        P, codes = tables = solvers._suffixes(4, rising)
        assert tables is solvers._suffixes(4, rising)
        for a in (P, codes):
            with pytest.raises(ValueError):
                a[0] = 0


def test_brute_force_keeps_no_tour_table():
    # the bound is the peak of the whole-tail route on this input, 9.99 MB:
    # it builds the permutation table, the tails and their indexed edges
    D = random_symmetric(10, seed=5)
    tracemalloc.start()
    try:
        t = solvers.brute_force(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9_985_000
    assert (t.order, t.length) == oracles.brute_force(D)


def test_held_karp_is_the_loop_oracle():
    for n in range(3, 15):
        for seed in SEEDS[-1:] if n > 12 else SEEDS:
            for D in _matrices(n, seed):
                t = solvers.held_karp(D)
                assert (t.order, t.length) == oracles.held_karp(D), (n, seed)


def test_held_karp_is_the_loop_oracle_at_17():
    D = np.floor(3.0 * random_symmetric(17, 2**64 - 1))
    t = solvers.held_karp(D)
    assert (t.order, t.length) == oracles.held_karp(D)


def test_held_karp_holds_two_layers_of_costs():
    # the whole float table at n = 18 is 2^17 x 17 doubles, 17.8 MB; the
    # int8 predecessor table is 2.2 MB and the largest layer 3.3 MB
    D = np.floor(3.0 * random_symmetric(18, seed=5))
    tracemalloc.start()
    try:
        t = solvers.held_karp(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20_000_000
    assert t.length <= solvers.two_opt(D).length


def test_two_opt_is_the_loop_oracle():
    for n in (5, 6, 7, 8, 9, 11, 14, 20, 33, 60, 120, 250):
        for seed in SEEDS if n <= 60 else SEEDS[::3]:
            for D in (random_symmetric(n, seed), np.floor(3.0 * random_symmetric(n, seed)), random_euclidean(n, seed)[0]):
                t = solvers.two_opt(D, seed=seed)
                assert (t.order, t.length) == oracles.two_opt(D, seed), (n, seed)


def test_two_opt_moves_across_row_blocks_are_the_loop_oracle(monkeypatch):
    B = solvers._ROW_BLOCK
    for n in (B + 1, B + 2, 2 * B + 3):
        for seed in SEEDS:
            for D in (random_symmetric(n, seed), np.floor(3.0 * random_symmetric(n, seed)), random_euclidean(n, seed)[0]):
                t = solvers.two_opt(D, seed=seed)
                assert (t.order, t.length) == oracles.two_opt(D, seed), (n, seed)
    for rows in (1, 2, 3):
        monkeypatch.setattr(solvers, "_ROW_BLOCK", rows)
        for seed in SEEDS:
            D = random_euclidean(20, seed)[0]
            t = solvers.two_opt(D, seed=seed)
            assert (t.order, t.length) == oracles.two_opt(D, seed), (rows, seed)


def test_held_karp_at_its_cap_is_fast():
    D = random_symmetric(20, seed=9)
    t0 = time.perf_counter()
    t = solvers.held_karp(D)
    assert time.perf_counter() - t0 < 6.0  # about 2 s on 2 cores; one mask at a time took 12 s
    assert t.length <= solvers.two_opt(D).length + 1e-12
