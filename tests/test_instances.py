import hashlib
import math

import numpy as np
import pytest

import oracles
from spectral_tsp import instances
from spectral_tsp.errors import InvalidDimension


def test_splitmix64_matches_reference_stream():
    # Known-answer test against an independent transcription of the
    # generator; seed 0 starts e220a8397b1dcdaf, 6e789e6aa1b965f4, ...
    assert instances._u64s(0, 1).tolist() == [0xE220A8397B1DCDAF]
    for seed in (0, 1, 3, 0x123456789ABCDEF, 2**64 - 1, -1):
        words = instances._u64s(seed, 5)
        assert words.dtype == np.uint64
        assert words.tolist() == oracles.splitmix64_reference(seed, 5), seed
    for seed in (np.int64(3), np.uint64(3), np.int16(3), np.int64(-1), np.uint64(2**64 - 1)):
        assert instances._u64s(seed, 5).tolist() == oracles.splitmix64_reference(int(seed), 5), seed
    assert instances._u64s(0, 0).tolist() == []


def test_splitmix64_floats_are_unit_interval_and_deterministic():
    xs = instances._floats(42, 1000).tolist()
    assert xs == instances._floats(42, 1000).tolist()
    assert all(0.0 <= x < 1.0 for x in xs)
    assert min(xs) < 0.1 and max(xs) > 0.9  # not obviously degenerate


def test_uniform_instance_is_all_ones_off_diagonal():
    D = instances.uniform_instance(7)
    assert np.array_equal(D, np.ones((7, 7)) - np.eye(7))


def test_circle_instance_chord_lengths():
    n = 12
    D = instances.circle_instance(n)
    # consecutive cities sit at unit distance; the diameter is the longest
    np.testing.assert_allclose(np.diag(D, 1), 1.0, atol=1e-12)
    assert D[0, n // 2] == D.max()
    np.testing.assert_allclose(
        D[0, 3], math.sin(math.pi * 3 / n) / math.sin(math.pi / n), atol=1e-12
    )
    assert np.array_equal(D, D.T)


def test_line_instance_is_integer_gaps():
    D = instances.line_instance(6)
    i, j = np.indices((6, 6))
    assert np.array_equal(D, np.abs(i - j).astype(float))


def test_two_cluster_instance_block_structure():
    n = 4
    D = instances.two_cluster_instance(n)
    assert D.shape == (2 * n, 2 * n)
    assert np.array_equal(D[:n, :n], np.zeros((n, n)))
    assert np.array_equal(D[n:, n:], np.zeros((n, n)))
    assert np.array_equal(D[:n, n:], np.ones((n, n)))
    assert np.array_equal(D, D.T)


def test_random_symmetric_shape_and_range():
    D = instances.random_symmetric(9, seed=5)
    assert np.array_equal(D, D.T)
    assert np.array_equal(np.diag(D), np.zeros(9))
    off = D[~np.eye(9, dtype=bool)]
    assert off.min() >= 0.0 and off.max() < 1.0


def test_random_symmetric_draw_order_is_upper_triangle_row_major():
    """The documented draw order is part of the reproducibility contract."""
    n = 5
    r = oracles._unit_floats(31)
    expect = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            expect[i, j] = expect[j, i] = next(r)
    assert np.array_equal(instances.random_symmetric(n, seed=31), expect)


def test_random_asymmetric_draw_order_is_row_major():
    n = 4
    r = oracles._unit_floats(8)
    expect = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                expect[i, j] = next(r)
    assert np.array_equal(instances.random_asymmetric(n, seed=8), expect)


def test_random_circulant_structure():
    D = instances.random_circulant(7, seed=2)
    assert D[0, 0] == 0.0
    for i in range(7):
        assert np.array_equal(D[i], np.roll(D[0], i))


def test_random_euclidean_matches_its_points():
    D, pts = instances.random_euclidean(8, seed=3)
    assert pts.shape == (8, 2)
    G = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    np.testing.assert_allclose(D, G, atol=1e-12)


def test_same_seed_same_instance_different_seed_different():
    a = instances.random_symmetric(8, seed=1)
    b = instances.random_symmetric(8, seed=1)
    c = instances.random_symmetric(8, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    "factory",
    [
        instances.uniform_instance,
        instances.circle_instance,
        instances.line_instance,
        lambda n: instances.random_symmetric(n, seed=0),
    ],
)
def test_too_small_dimensions_rejected(factory):
    with pytest.raises(InvalidDimension):
        factory(2)


GENERATORS = {
    "uniform": instances.uniform_instance,
    "circle": instances.circle_instance,
    "line": instances.line_instance,
    "two_cluster": instances.two_cluster_instance,
    "random_euclidean": lambda n: instances.random_euclidean(n, 0)[0],
    "random_euclidean_dim": lambda dim: instances.random_euclidean(4, 0, dim=dim)[0],
    "random_symmetric": lambda n: instances.random_symmetric(n, 0),
    "random_asymmetric": lambda n: instances.random_asymmetric(n, 0),
    "random_circulant": lambda n: instances.random_circulant(n, 0),
    "seed_euclidean": lambda seed: instances.random_euclidean(4, seed)[0],
    "seed_symmetric": lambda seed: instances.random_symmetric(4, seed),
    "seed_asymmetric": lambda seed: instances.random_asymmetric(4, seed),
    "seed_circulant": lambda seed: instances.random_circulant(4, seed),
    "seed_splitmix": lambda seed: instances._u64s(seed, 3),
}


@pytest.mark.parametrize("name", GENERATORS)
@pytest.mark.parametrize("value", [2.5, 3.5, 4.5, np.float64(4.0), True, np.bool_(True), "4", None])
def test_sizes_and_seeds_must_be_integers(name, value):
    # circle_instance(3.5) and line_instance(4.5) returned 4 x 4 and 5 x 5
    # matrices, random_circulant(4.5, 1) raised IndexError
    with pytest.raises(InvalidDimension, match="must be an integer"):
        GENERATORS[name](value)


@pytest.mark.parametrize("name", GENERATORS)
def test_sizes_and_seeds_may_be_numpy_integers(name):
    # random_symmetric(4, np.int64(5)) raised OverflowError
    expected = GENERATORS[name](4)
    for value in (np.int64(4), np.uint64(4), np.int16(4)):
        assert np.array_equal(GENERATORS[name](value), expected), value


def test_numpy_integer_seeds_wrap_as_python_integers_do():
    for seed in (-1, 2**63 + 1, 2**64 - 1):
        expected = instances.random_symmetric(5, seed)
        np_seed = np.int64(seed) if seed < 0 else np.uint64(seed)
        assert np.array_equal(instances.random_symmetric(5, np_seed), expected)
        assert instances._u64s(np_seed, 3).tolist() == instances._u64s(seed, 3).tolist()


@pytest.mark.parametrize("dim", [0, -1])
def test_random_euclidean_needs_a_dimension(dim):
    with pytest.raises(InvalidDimension, match="dim must be at least 1"):
        instances.random_euclidean(5, 0, dim=dim)


# the top of the uint64 range exercises the counter's wraparound; negative
# and oversized seeds reduce modulo 2**64 as the stream's state does
@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 1, 2**64 - 1, -1, 2**64 + 3])
def test_random_families_are_the_per_draw_oracles(seed):
    for n in (3, 4, 7, 16, 61):
        for family in ("random_symmetric", "random_asymmetric", "random_circulant"):
            got = getattr(instances, family)(n, seed)
            assert got.tobytes() == getattr(oracles, family)(n, seed).tobytes(), (family, n)
        for dim in (1, 2, 3):
            D, pts = instances.random_euclidean(n, seed, dim)
            D0, pts0 = oracles.random_euclidean(n, seed, dim)
            assert pts.tobytes() == pts0.tobytes() and D.tobytes() == D0.tobytes(), (n, dim)


def test_floats_are_the_stream():
    for seed in (0, 2**63 + 1, 2**64 - 1):
        r = oracles._unit_floats(seed)
        assert instances._floats(seed, 300).tolist() == [next(r) for _ in range(300)]


@pytest.mark.parametrize(
    "n, seed, dim, digest",
    [
        (50, 7, 2, "a2a8e157158f8be49aac891a2d6be3753d9a590f0186385be86907a49937db65"),
        (31, 2**64 - 1, 3, "7b4e52cfab74c784f09f79923ea7098a2deac3263c2d8a87557e2f49faf471c8"),
    ],
)
def test_random_euclidean_reference_bytes(n, seed, dim, digest):
    D, pts = instances.random_euclidean(n, seed, dim)
    assert hashlib.sha256(D.tobytes() + pts.tobytes()).hexdigest() == digest
