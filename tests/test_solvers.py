import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from spectral_tsp import bounds, solvers
from spectral_tsp.errors import InvalidDimension, InvalidMatrix, InvalidTour, NotSymmetric, TooLarge
from spectral_tsp.instances import (
    circle_instance,
    line_instance,
    random_asymmetric,
    random_euclidean,
    random_symmetric,
    uniform_instance,
)


def test_tour_length_closed_cycle():
    D = line_instance(4)
    assert solvers.tour_length(D, [0, 1, 2, 3]) == pytest.approx(6.0)
    assert solvers.tour_length(D, [0, 2, 1, 3]) == pytest.approx(8.0)


def test_tour_length_rejects_non_permutations():
    D = line_instance(4)
    # entries that are not integers were cast: [0, 1.7, 2.2, 3] measured [0, 1, 2, 3]
    nonintegers = ([0, 1.7, 2.2, 3], [True, False, 2, 3], ["0", "1", "2", "3"], [0.0, 1.0, 2.0, 3.0])
    # a ragged order raised numpy's ValueError about an inhomogeneous shape
    ragged = ([0, [1], 2, 3], [[0, 1], 2, 3, 4])
    for bad in ([0, 1, 2], [0, 1, 2, 2], [0, 1, 2, 4], *nonintegers, *ragged, np.ones(4, dtype=bool)):
        with pytest.raises(InvalidTour, match="permutation of the integers 0..3"):
            solvers.tour_length(D, bad)
    assert solvers.tour_length(D, np.array([0, 1, 2, 3], dtype=np.uint8)) == 6.0


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


def test_brute_force_deterministic_tie_break(monkeypatch):
    # every tour of the uniform instance has the same length, so the
    # lexicographically smallest order must win, although the tours are
    # summed grouped by their last city and it is not the first of the first
    # group; n = 11 and 12 fix leading cities per batch, and so does n = 11
    # in batches of 7
    for n, cities in [(6, 9), (10, 9), (11, 9), (11, 7), (12, 9)]:
        monkeypatch.setattr(solvers, "_BATCH_CITIES", cities)
        t = solvers.brute_force(uniform_instance(n))
        assert (t.order, t.length) == (list(range(n)), float(n)), (n, cities)


def test_distances_whose_tour_lengths_overflow_are_rejected():
    # every entry is finite, but n * max|D| is not, and so is no tour length
    D = np.full((5, 5), 1e308)
    np.fill_diagonal(D, 0.0)
    for method in (solvers.brute_force, solvers.held_karp, solvers.two_opt, bounds.bound_report):
        with pytest.raises(InvalidMatrix, match="overflow"):
            method(D)


@pytest.mark.parametrize("solve", [solvers.brute_force, solvers.held_karp, solvers.two_opt])
def test_each_solver_validates_its_matrix_once(monkeypatch, solve):
    seen = []
    check = bounds.check_distance_matrix

    def counted(D):
        seen.append(D)
        return check(D)

    for owner in (solvers, bounds):
        monkeypatch.setattr(owner, "check_distance_matrix", counted)
    t = solve(random_euclidean(9, seed=2)[0])
    assert len(seen) == 1
    assert solvers.tour_length(seen[0], t.order) == t.length and len(seen) == 2


def test_two_opt_judges_symmetry_as_compression_does():
    # skews around the default tolerance, at magnitudes where squares of raw
    # entries would over- or underflow
    W = random_symmetric(8, seed=4)
    K = random_asymmetric(8, seed=5)
    for rel in (0.0, 3e-9, 6e-9, 1e-8, 2e-8, 1e-6):
        for scale in (1.0, 1e-170, 1e160, 2.0**-600, 2.0**600):
            D = scale * (W + rel * (K - K.T))
            try:
                solvers.two_opt(D)
                symmetric = True
            except NotSymmetric:
                symmetric = False
            assert symmetric == bounds.Compression(D).symmetric == oracles.is_symmetric(D), (rel, scale)


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


def test_two_opt_compares_d_with_its_transpose_once(monkeypatch):
    # is_symmetric compared D with D^T, then two_opt compared them again to choose S
    compared = []
    array_equal = np.array_equal

    def counted(a, b, *args, **kwargs):
        compared.append(a.shape)
        return array_equal(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "array_equal", counted)
    D = random_symmetric(12, seed=3)
    for M in (D, D + 1e-12 * random_asymmetric(12, seed=3)):
        compared.clear()
        tour = solvers.two_opt(M)
        assert compared == [(12, 12)]
        assert tour.order == oracles.two_opt(M)[0]


def test_two_opt_seeds_are_integers():
    D = uniform_instance(8)  # every nearest-neighbour step is a tie, so the seed picks the tour
    assert solvers.two_opt(D, seed=np.int64(3)) == solvers.two_opt(D, seed=3)
    for seed in (2.5, np.float64(3.0), True, "3"):
        with pytest.raises(InvalidDimension, match="seed must be an integer"):
            solvers.two_opt(D, seed=seed)


def test_two_opt_rejects_asymmetric():
    # at 1e160 and 1e-170 squared norms that overflow or underflow judged
    # this symmetric, and the reversals then cycled without end
    for alpha in (1.0, 1e160, 1e-170):
        with pytest.raises(NotSymmetric):
            solvers.two_opt(alpha * random_asymmetric(6, seed=1))


def test_two_opt_takes_the_same_moves_at_every_scale():
    # with an absolute 1e-12 threshold, scales of 1e-13 and below took no
    # move and returned the nearest-neighbour start, 7.42 against 6.64
    D = random_euclidean(60, seed=1)[0]
    base = solvers.two_opt(D)
    # beyond 2^128 Compression judges symmetry on D / 2^k: the gate and the choice of S are D's
    near = D + 1e-12 * np.triu(random_asymmetric(60, seed=2), 1)
    for M, ks, want in ((D, (-900, -200, -66, -43, 40, 200, 900), base), (near, (-200, 200), solvers.two_opt(near))):
        for k in ks:
            t = solvers.two_opt(np.ldexp(M, k))
            assert t.order == want.order and t.length == np.ldexp(want.length, k), k
    for scale in (1e-10, 1e-13, 1e-20):
        assert solvers.two_opt(scale * D).length == pytest.approx(scale * base.length, rel=1e-12)
    small = np.ldexp(random_euclidean(25, seed=3)[0], -60)
    assert solvers.two_opt(small, seed=2).order == oracles.two_opt(small, 2)[0]


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
    D = np.floor(3.0 * random_symmetric(12, SEEDS[-1]))  # two leading cities, many ties
    t = solvers.brute_force(D)
    assert (t.order, t.length) == oracles.brute_force(D)


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


def test_prefix_tree_tables_are_read_only():
    for rising in (True, False):
        last, first, codes, starts = tables = solvers._tree(4, rising)
        assert tables is solvers._tree(4, rising)
        for a in (last, first, *codes):
            with pytest.raises(ValueError):
                a[0] = 0


@pytest.mark.parametrize("rising", [True, False])
def test_prefix_tree_rows_read_back_along_the_codes(rising):
    # row r is (last, t0, t1, ..., t_{m-2}): its root r // (m-2)! gives last
    # and t0, and t_k is b in the code a * m + b of its level-k node
    for m in range(2, 9):
        P = solvers._permutations(m)
        P = P[P[:, 1] < P[:, 0]] if rising else P
        last, first, codes, starts = solvers._tree(m, rising)
        r = np.arange(len(codes[-1]))
        ts = [codes[k - 1][r // math.factorial(m - k - 2)] % m for k in range(1, m - 1)]
        rows = np.column_stack([last[r // math.factorial(m - 2)], first[r // math.factorial(m - 2)], *ts])
        assert rows.dtype == np.int8 and np.array_equal(rows, P), (m, rising)
        for k in range(1, m - 1):
            f = math.factorial(m - k - 2)
            assert np.array_equal(codes[k - 1], P[::f, k] * m + P[::f, k + 1]), (m, k)
        assert np.array_equal(codes[-1], P[:, -1] * m + P[:, 0])
        assert starts == tuple(np.searchsorted(P[:, 0], np.arange(m + 1)).tolist())


@pytest.mark.parametrize(("rising", "bound"), [(True, 750_000), (False, 1_400_000)])
def test_prefix_tree_keeps_only_its_codes(rising, bound):
    # the tables kept for m = 9 are 0.68 MB rising and 1.35 MB otherwise; with
    # the permutation rows they were 2.20 and 4.40 MB
    solvers._tree.cache_clear()
    tracemalloc.start()
    try:
        solvers._tree(9, rising)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= bound


def test_brute_force_keeps_no_tour_table():
    # building the tables for symmetric n = 10 peaks at 2.53 MB (the rising
    # rows, 1.6 MB, built a block at a time and dropped once the codes are
    # read off them; building all 9! rows and keeping them peaked at 6.72 MB);
    # with them built a call peaks at 0.26 MB, summing one last city's tours
    # (at most 40320) at a time.  The whole-tail route peaked at 9.99 MB.
    D = random_symmetric(10, seed=5)
    solvers._tree.cache_clear()
    for bound in (2_650_000, 1_010_000):
        tracemalloc.start()
        try:
            t = solvers.brute_force(D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
        assert (t.order, t.length) == oracles.brute_force(D)


def _negative(n, seed):
    D = random_symmetric(n, seed)
    D[0, 1] = -0.25  # asymmetric too, so both directions are enumerated
    return D


# families the cut meets: random, integer ties, every tour tied (uniform),
# one optimum up to direction (line, circle), and a negative entry (no cut)
CUT_FAMILIES = {
    "symmetric": random_symmetric,
    "asymmetric": random_asymmetric,
    "euclidean": lambda n, seed: random_euclidean(n, seed)[0],
    "symmetric ties": lambda n, seed: np.floor(3.0 * random_symmetric(n, seed)),
    "asymmetric ties": lambda n, seed: np.floor(3.0 * random_asymmetric(n, seed)),
    "uniform": lambda n, seed: uniform_instance(n),
    "line": lambda n, seed: line_instance(n),
    "circle": lambda n, seed: circle_instance(n),
    "negative": _negative,
}


def _same_as_the_oracle(sizes, seeds, cities=9):
    for n in sizes:
        for name, family in CUT_FAMILIES.items():
            for seed in seeds:
                D = family(n, seed)
                t = solvers.brute_force(D)
                order, length = oracles.brute_force(D, cities)
                assert (t.order, t.length.hex()) == (order, length.hex()), (name, n, seed, cities)


@pytest.mark.parametrize("part_rows", [0, solvers._PART_ROWS])
def test_cut_tree_is_the_batch_oracle(monkeypatch, part_rows):
    # part_rows 0 grows every node as a part of its own, down to n = 3; at
    # n = 10 that is some 20 s of one-node steps, so it stops at n = 9
    monkeypatch.setattr(solvers, "_PART_ROWS", part_rows)
    _same_as_the_oracle(range(3, 10), SEEDS[::3])
    if part_rows:
        _same_as_the_oracle([10], SEEDS[:1])


@pytest.mark.parametrize("rows", [1, 5, 64])
def test_parts_grown_in_chunks_are_the_batch_oracle(monkeypatch, rows):
    # a part whose children pass `rows` goes on in chunks, each cut at the
    # limit its turn meets; at 1 every node is a part of its own
    monkeypatch.setattr(solvers, "_PART_ROWS", rows)
    _same_as_the_oracle(range(3, 9), SEEDS[:1])


@pytest.mark.parametrize("cities", range(1, 9))
def test_cut_tree_in_small_batches_is_the_batch_oracle(monkeypatch, cities):
    # the cut meets leading cities fixed per batch, and a beam that reaches
    # every leaf of the first batch
    monkeypatch.setattr(solvers, "_BATCH_CITIES", cities)
    largest = max(n for n in range(3, 13) if math.perm(n - 1, n - 1 - min(n - 1, cities)) <= 60)
    _same_as_the_oracle(range(3, largest + 1), SEEDS[::3], cities)


@pytest.mark.parametrize("beam", [1, 2, 7])
def test_any_beam_gives_the_same_tour(monkeypatch, beam):
    # a narrow beam starts from a poor limit, which the cut must survive
    monkeypatch.setattr(solvers, "_BEAM", beam)
    _same_as_the_oracle([6, 9], SEEDS[:1])


def _tree_order_sum(D, order):
    """A tour's length summed as brute_force's tree sums it: the closing
    edge, then every edge from city 0 on."""
    total = D[order[-1], 0]
    for u, v in itertools.pairwise(order):
        total += D[u, v]
    return total


def test_limit_is_a_tour_summed_in_tree_order(monkeypatch):
    # held_karp's length of this optimum is one ulp below the tree's total
    # of the same tour: as a limit it would cut every leaf of the optimum
    D = random_euclidean(10, 3)[0]
    hk = solvers.held_karp(D)
    turned = [0, *hk.order[:0:-1]] if hk.order[1] > hk.order[-1] else hk.order
    assert (hk.length.hex(), _tree_order_sum(D, turned).hex()) == ("0x1.4d55914a73601p+1", "0x1.4d55914a73602p+1")
    for beam in (1, 64):
        monkeypatch.setattr(solvers, "_BEAM", beam)
        t = solvers.brute_force(D)
        assert (t.order, t.length) == oracles.brute_force(D) and t.order == turned
    # a beam of one finds [0, 3, 4, 1, 2, 5] first; the smaller [0, 1, 4, 3,
    # 2, 5] ties with it in the tree's order, while tour_length of the first
    # is one ulp lower: a limit taken from it drops the tie
    D = np.array([
        [0.0, 0.7, 1.1, 0.3, 1.1, 0.3],
        [0.7, 0.0, 0.7, 1.1, 0.1, 0.3],
        [1.1, 0.7, 0.0, 0.3, 1.1, 0.2],
        [0.3, 1.1, 0.3, 0.0, 0.2, 1.1],
        [1.1, 0.1, 1.1, 0.2, 0.0, 1.1],
        [0.3, 0.3, 0.2, 1.1, 1.1, 0.0],
    ])
    first, smaller = [0, 3, 4, 1, 2, 5], [0, 1, 4, 3, 2, 5]
    assert _tree_order_sum(D, first) == _tree_order_sum(D, smaller) > solvers.tour_length(D, first)
    monkeypatch.setattr(solvers, "_BEAM", 1)
    t = solvers.brute_force(D)
    assert (t.order, t.length) == oracles.brute_force(D) and t.order == smaller


class _CountedCodes(np.ndarray):
    """Edge codes that count the entries read from them through slices and take."""

    read = 0

    def __getitem__(self, key):
        out = super().__getitem__(key)
        _CountedCodes.read += np.size(out)
        return out

    def take(self, *args, **kwargs):
        out = super().take(*args, **kwargs)
        _CountedCodes.read += np.size(out)
        return out


@pytest.fixture
def leaves_summed(monkeypatch):
    """Reset to 0, then the number of tours brute_force gives a full sum.

    The closing edge is added only at the leaves, so the entries read from
    its codes count them."""
    tree = solvers._tree

    def counted(m, rising):
        last, first, codes, starts = tree(m, rising)
        return last, first, (*codes[:-1], codes[-1].view(_CountedCodes)), starts

    monkeypatch.setattr(solvers, "_tree", counted)

    def read():
        out, _CountedCodes.read = _CountedCodes.read, 0
        return out

    return read


def test_cut_sums_few_leaves(leaves_summed):
    # full enumeration gives all 10!/2 tours of symmetric n = 11 a full sum
    tours = math.factorial(10) // 2
    for seed in SEEDS:
        leaves_summed()
        D = random_symmetric(11, seed)
        t = solvers.brute_force(D)
        assert leaves_summed() < tours / 4, seed
    assert (t.order, t.length) == oracles.brute_force(D)


def test_small_trees_are_cut_too(leaves_summed):
    # symmetric n = 9 has 8!/2 = 20160 tours and n = 8 has 2520: the cut
    # reaches them as it reaches larger trees
    for n in (8, 9):
        for seed in SEEDS:
            leaves_summed()
            D = random_symmetric(n, seed)
            t = solvers.brute_force(D)
            assert leaves_summed() < math.factorial(n - 1) // 2, (n, seed)
            assert (t.order, t.length) == oracles.brute_force(D), (n, seed)


def test_negative_entries_turn_the_cut_off(leaves_summed):
    # a float sum with a negative term can fall, so a prefix above a tour's
    # length may still lead to a shorter one: every tour gets its full sum
    for n in (9, 10):
        leaves_summed()
        D = _negative(n, 3)
        t = solvers.brute_force(D)
        assert leaves_summed() == math.factorial(n - 1), n
        assert (t.order, t.length) == oracles.brute_force(D), n


def test_ties_everywhere_sum_every_tour_once(leaves_summed):
    # no partial sum of the uniform instance exceeds n - 1 < n = every tour's
    # length: nothing is cut, and each tour is summed once, besides the leaves
    # of the beam, at most _BEAM nodes with one child each at the last level
    for n in (10, 11):
        leaves_summed()
        t = solvers.brute_force(uniform_instance(n))
        tours = math.factorial(n - 1) // 2
        assert tours <= leaves_summed() <= tours + solvers._BEAM
        assert (t.order, t.length) == (list(range(n)), float(n))


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
    for n in (3, 4, 5, 6, 7, 8, 9, 11, 14, 20, 33, 60, 120, 250):
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
    # one block short of a whole scan at n - 1 rows
    for rows, n in ((1, 20), (2, 20), (3, 20), (4, 5), (11, 12), (40, 41)):
        monkeypatch.setattr(solvers, "_ROW_BLOCK", rows)
        for seed in SEEDS:
            for D in (random_euclidean(n, seed)[0], np.floor(3.0 * random_symmetric(n, seed))):
                t = solvers.two_opt(D, seed=seed)
                assert (t.order, t.length) == oracles.two_opt(D, seed), (rows, n, seed)


def test_two_opt_searches_the_symmetric_part(monkeypatch):
    # symmetric only within tol: on integer ties the 1e-10 noise decides each
    # move.  A reversal flips the direction of its inner edges, so a search
    # on D itself ran past 20000 move scans from n = 70 on; on
    # S = (D + D^T) / 2 every move shortens the tour.  The length is D's
    first_move, scans = solvers._first_move, []

    def capped(*args):
        scans.append(1)
        assert len(scans) <= 200, "two_opt keeps scanning"
        return first_move(*args)

    monkeypatch.setattr(solvers, "_first_move", capped)
    for n in (9, 20, 40, 70):
        for seed in SEEDS:
            D = np.floor(3.0 * random_symmetric(n, seed)) + 1e-10 * random_asymmetric(n, seed)
            assert bounds.Compression(D).symmetric and not np.array_equal(D, D.T)
            scans.clear()
            t = solvers.two_opt(D, seed=seed)
            assert (t.order, t.length) == oracles.two_opt(D, seed), (n, seed)
            assert t.order == solvers.two_opt((D + D.T) / 2, seed=seed).order, (n, seed)
            assert t.length == solvers.tour_length(D, t.order)


def test_held_karp_at_its_cap_is_fast():
    D = random_symmetric(20, seed=9)
    t0 = time.perf_counter()
    t = solvers.held_karp(D)
    assert time.perf_counter() - t0 < 6.0  # about 2 s on 2 cores; one mask at a time took 12 s
    assert t.length <= solvers.two_opt(D).length + 1e-12
