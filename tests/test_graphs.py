import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as stn

import oracles
from spectral_tsp import graphs, linalg
from spectral_tsp.errors import (
    Disconnected,
    InputFormatError,
    InvalidDimension,
    InvalidMatrix,
    InvalidTolerance,
    SpectralTspError,
    TooLarge,
)
from spectral_tsp.graphs import (
    bow_tie,
    complement_phi,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    dihedral_reflection_cayley,
    distance_hamiltonian_screen,
    distance_matrix,
    distance_phi,
    from_edges,
    graph_from_text,
    hamiltonian_screen,
    is_connected,
    is_regular,
    path_graph,
    traceable_screen,
)


def random_graph(n: int, seed: int, density: float = 0.5) -> graphs.Graph:
    rng = oracles._unit_floats(seed)
    A = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(i + 1, n):
            if next(rng) < density:
                A[i, j] = A[j, i] = 1
    return graphs.Graph(adjacency=A)


def edge_count(g: graphs.Graph) -> int:
    return int(g.adjacency.sum()) // 2


def disjoint_cliques(n) -> graphs.Graph:
    """Two disjoint n-cliques: the complement of the package's K_{n,n}."""
    A = complete_bipartite(n, n).adjacency
    return graphs.Graph(1 - np.eye(len(A), dtype=np.int8) - A)


# ---------------------------------------------------------------- constructions


def test_basic_generator_shapes():
    bt = bow_tie()
    assert bt.n == 5 and edge_count(bt) == 6
    assert edge_count(complete_graph(6)) == 15
    assert edge_count(complete_bipartite(4, 3)) == 12
    assert edge_count(path_graph(7)) == 6
    assert edge_count(cycle_graph(7)) == 7
    assert edge_count(disjoint_cliques(4)) == 12  # 2 * C(4,2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: complete_graph(0),
        lambda: complete_graph(-2),
        lambda: complete_bipartite(0, 0),
        lambda: complete_bipartite(-1, 3),
        lambda: complete_bipartite(-2, -2),
        lambda: graphs.Graph(np.zeros((0, 0))),
        lambda: cycle_graph(2),
    ],
)
def test_empty_and_negative_sizes_are_rejected(build):
    with pytest.raises(InvalidDimension):
        build()


BUILDERS = {
    "from_edges": lambda n: from_edges(n, []),
    "complete_graph": complete_graph,
    "complete_bipartite_a": lambda n: complete_bipartite(n, 2),
    "complete_bipartite_b": lambda n: complete_bipartite(2, n),
    "path_graph": path_graph,
    "cycle_graph": cycle_graph,
    "disjoint_cliques": disjoint_cliques,
    "dihedral_reflection_cayley": graphs.dihedral_reflection_cayley,
}


@pytest.mark.parametrize("name", BUILDERS)
@pytest.mark.parametrize("size", [2.5, 3.5, np.float64(3.0), True, np.bool_(True), "3", None])
def test_builders_take_only_integer_sizes(name, size):
    # 2.5 raised numpy's TypeError
    with pytest.raises(InvalidDimension, match="must be an integer"):
        BUILDERS[name](size)


@pytest.mark.parametrize("name", BUILDERS)
def test_builders_take_numpy_integer_sizes(name):
    for size in (np.int64(4), np.uint8(4), np.int32(4)):
        assert np.array_equal(BUILDERS[name](size).adjacency, BUILDERS[name](4).adjacency)


def test_disjoint_cliques_is_the_block_construction():
    for n in range(1, 41):
        g = disjoint_cliques(n)
        assert g.adjacency.dtype == np.int8
        assert g.adjacency.tobytes() == oracles.disjoint_cliques(n).tobytes(), n


@pytest.mark.parametrize("n", [0, -1])
def test_disjoint_cliques_needs_a_positive_size(n):
    with pytest.raises(InvalidDimension):
        disjoint_cliques(n)


def test_from_edges_leaves_self_loops_to_graph():
    with pytest.raises(InvalidMatrix):
        from_edges(3, [(1, 1)])
    with pytest.raises(InvalidDimension):
        from_edges(3, [(-1, 2)])  # a negative index would wrap silently


def test_from_edges_and_validation():
    g = from_edges(3, [(0, 1), (1, 2)])
    assert edge_count(g) == 2
    with pytest.raises(Exception):
        from_edges(3, [(0, 3)])
    with pytest.raises(Exception):
        from_edges(3, [(1, 1)])


@pytest.mark.parametrize(
    "A",
    [
        np.array([[0, 257, 1], [257, 0, 1], [1, 1, 0]]),  # 257 wraps to 1 in int8
        np.array([[0, 0.5, 1], [0.5, 0, 1], [1, 1, 0]]),  # 0.5 truncates to 0
        np.array([[0, -255, 1], [-255, 0, 1], [1, 1, 0]]),
        np.array([[0, np.nan, 1], [np.nan, 0, 1], [1, 1, 0]]),
    ],
)
def test_graph_checks_entries_before_casting(A):
    with pytest.raises(InvalidMatrix, match="0 or 1"):
        graphs.Graph(A)


def test_graph_accepts_zero_one_values_of_any_dtype():
    for dtype in (bool, np.int64, float):
        g = graphs.Graph(complete_graph(4).adjacency.astype(dtype))
        assert g.adjacency.dtype == np.int8 and edge_count(g) == 6


def test_graph_is_an_immutable_copy():
    A = cycle_graph(5).adjacency.copy()
    g = graphs.Graph(A)
    A[0, 1] = A[1, 0] = 0  # the caller's array stays the caller's
    assert edge_count(g) == 5 and g.adjacency.dtype == np.int8
    assert not g.adjacency.flags.writeable
    with pytest.raises(ValueError):
        g.adjacency[0, 2] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.adjacency = A


@pytest.mark.parametrize(
    "A, match",
    [
        (np.zeros((2, 3)), "square"),
        (np.zeros(4), "square"),
        (np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]]), "symmetric"),
        ([[0, 1], [1]], "square"),  # ragged rows raised numpy's untyped ValueError
    ],
)
def test_graph_rejects_malformed_adjacency(A, match):
    with pytest.raises(InvalidMatrix, match=match):
        graphs.Graph(A)


@pytest.mark.parametrize(
    "edge, error, match",
    [
        ((0.5, 1), InvalidDimension, "integer endpoints"),
        ((np.float64(1.0), 2), InvalidDimension, "integer endpoints"),
        (("0", "1"), InvalidDimension, "integer endpoints"),
        ((True, 2), InvalidDimension, "integer endpoints"),
        ((np.bool_(True), 2), InvalidDimension, "integer endpoints"),
        ((0, 1, 2), InvalidMatrix, "pair"),
        (7, InvalidMatrix, "pair"),
    ],
)
def test_from_edges_takes_only_integer_pairs(edge, error, match):
    with pytest.raises(error, match=match):
        from_edges(3, [edge])


def test_from_edges_needs_an_iterable_of_edges():
    # iterating None raised an untyped TypeError
    for edges in (None, 3):
        with pytest.raises(InvalidMatrix, match="an edge is a pair"):
            from_edges(3, edges)


def test_from_edges_takes_numpy_integers():
    edges = np.array([[0, 1], [1, 2]], dtype=np.int32)
    assert np.array_equal(from_edges(3, edges).adjacency, path_graph(3).adjacency)
    assert edge_count(from_edges(3, [(np.uint8(0), np.int64(2))])) == 1
    # uint64 with int64 promotes to float64, which cannot index; mixed kinds still build the graph
    mixed = [(np.uint64(0), np.int64(1)), (np.int8(1), 2), (3, np.uint64(2)), (np.int64(4), np.uint64(0))]
    assert np.array_equal(from_edges(5, mixed).adjacency, oracles.from_edges(5, mixed).adjacency)


def _outcome(build, *args):
    """The adjacency bytes a build returns, or the type and message of what it raises."""
    try:
        return ("graph", build(*args).adjacency.tobytes())
    except SpectralTspError as exc:
        return (type(exc).__name__, str(exc))


def _random_edges(rng, n: int, m: int) -> list[tuple[int, int]]:
    """m random edges of an n-vertex graph, self-loops left out, repeats and both orientations kept."""
    u, v = rng.integers(0, n, size=(2, m))
    keep = u != v
    return [(int(a), int(b)) for a, b in zip(u[keep], v[keep])]


def test_from_edges_is_the_per_edge_build():
    rng = np.random.default_rng(21)
    for trial in range(60):
        n = int(rng.integers(2, 40))
        edges = _random_edges(rng, n, int(rng.integers(0, 3 * n)))
        edges += edges[: len(edges) // 3] + [(v, u) for u, v in edges[len(edges) // 3 :]]
        want = _outcome(oracles.from_edges, n, edges)
        assert want[0] == "graph"
        assert _outcome(from_edges, n, edges) == want, trial
        assert _outcome(from_edges, n, [list(e) for e in edges]) == want, trial
        assert _outcome(from_edges, n, (e for e in edges)) == want, trial
        for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64):
            E = np.array(edges, dtype=dtype).reshape(-1, 2)
            assert _outcome(from_edges, n, E) == want, (trial, dtype)
            assert _outcome(from_edges, n, [tuple(e) for e in E]) == want, (trial, dtype)  # numpy scalars
    for n in (1, 5):
        assert _outcome(from_edges, n, []) == _outcome(oracles.from_edges, n, []) == _outcome(from_edges, n, iter(()))


BAD_EDGES = [(0, 9), (0.5, 1), ("0", "1"), (True, 2), (1, 2, 0), 7, (-1, 2), (2**70, 1), (np.bool_(False), 1), (1, 1)]


@pytest.mark.parametrize("first", range(len(BAD_EDGES)))
def test_from_edges_names_the_first_bad_edge_as_the_per_edge_build(first):
    rng = np.random.default_rng(first)
    for trial in range(20):
        good = _random_edges(rng, 6, 8)
        bad = [BAD_EDGES[first]] + [BAD_EDGES[i] for i in rng.permutation(len(BAD_EDGES))[:3]]
        edges = good[:4] + bad[:1] + good[4:] + bad[1:]
        want = _outcome(oracles.from_edges, 6, edges)
        assert want[0] != "graph"
        assert _outcome(from_edges, 6, edges) == want, edges
        assert _outcome(from_edges, 6, iter(edges)) == want, edges


def test_from_edges_finds_a_bool_among_ints():
    # np.asarray would read True as 1 and build the edge (1, 2)
    edges = [(0, 1), (3, 4), (True, 2), (2, 3)]
    with pytest.raises(InvalidDimension, match=r"^edge \(True, 2\) needs integer endpoints$"):
        from_edges(5, edges)
    with pytest.raises(InvalidDimension, match="needs integer endpoints"):
        from_edges(5, [(0, 1), (3, np.bool_(True))])
    with pytest.raises(InvalidDimension, match="needs integer endpoints"):
        from_edges(5, np.array([[0, 1], [1, 0]], dtype=bool))


def test_from_edges_walks_no_edge_of_a_valid_list_or_tuple(monkeypatch):
    # the walk applies _is_index's rule inline: no helper is called per endpoint of a valid list,
    # so the one call per graph is check_int's on n, and graphs binds no _is_index of its own
    assert not hasattr(graphs, "_is_index")
    calls = []
    is_index = linalg._is_index
    monkeypatch.setattr(linalg, "_is_index", lambda x: calls.append(x) or is_index(x))
    rng = np.random.default_rng(5)
    edges = _random_edges(rng, 50, 200)
    want = oracles.from_edges(50, edges).adjacency
    for given in (edges, tuple(edges), [list(e) for e in edges], [(np.int32(u), v) for u, v in edges]):
        calls.clear()
        assert np.array_equal(from_edges(50, given).adjacency, want)
        assert calls == [50]


def test_from_edges_reads_a_generator_only_up_to_its_first_bad_edge():
    def edges():
        yield (0, 1)
        yield (0, 9)
        raise RuntimeError("read past the first bad edge")

    with pytest.raises(InvalidDimension, match=r"^edge \(0, 9\) out of range for 3 vertices$"):
        from_edges(3, edges())
    endless = itertools.chain([(0, 1), (2, "x")], itertools.repeat((0, 1)))
    with pytest.raises(InvalidDimension, match="needs integer endpoints"):
        from_edges(3, endless)


def test_connectivity_and_distances():
    assert is_connected(path_graph(6))
    assert not is_connected(disjoint_cliques(3))
    D = distance_matrix(path_graph(5))
    i, j = np.indices((5, 5))
    assert np.array_equal(D, np.abs(i - j).astype(float))
    with pytest.raises(Disconnected):
        distance_matrix(disjoint_cliques(3))


def _assert_bfs_is_the_oracle(g):
    H = oracles.hop_distances(g)
    connected = bool(np.isfinite(H).all())
    assert is_connected(g) is connected
    if connected:
        assert np.array_equal(distance_matrix(g), H)
    else:
        with pytest.raises(Disconnected):
            distance_matrix(g)
    return connected


def _union(*parts) -> graphs.Graph:
    """The disjoint union of the parts, numbered in order."""
    A = np.zeros((sum(g.n for g in parts),) * 2, dtype=np.int8)
    start = 0
    for g in parts:
        A[start : start + g.n, start : start + g.n] = g.adjacency
        start += g.n
    return graphs.Graph(A)


_BFS_FAMILIES = {
    **{f"P{n}": path_graph(n) for n in (1, 2, 3, 50)},
    **{f"C{n}": cycle_graph(n) for n in (3, 50)},
    **{f"K{n}": complete_graph(n) for n in (1, 2, 3, 50)},
    **{f"K{a},{b}": complete_bipartite(a, b) for a, b in ((0, 3), (1, 1), (1, 5), (2, 3), (20, 30))},
    **{f"reflections{m}": dihedral_reflection_cayley(m) for m in (2, 3, 10, 25)},
    "two-12-cycles": oracles.cayley_graph(oracles.dihedral_table(12), {1, 11}),
    "prism12": oracles.cayley_graph(oracles.dihedral_table(12), {1, 11, 12}),
    # components that turn complete at different depths: K5 from the start, P40 after six squarings
    "K5+P40": _union(complete_graph(5), path_graph(40)),
    "C50+K1": _union(cycle_graph(50), complete_graph(1)),
    "P30+P31": _union(path_graph(30), path_graph(31)),
    **{f"Gnp150#{seed}": random_graph(150, seed, 6 / 149) for seed in (150, 152)},  # mean degree 6
}
_DISCONNECTED = {"K0,3", "two-12-cycles", "K5+P40", "C50+K1", "P30+P31"}


@pytest.mark.parametrize("name", _BFS_FAMILIES)
def test_breadth_first_search_is_floyd_warshall_on_the_families(name):
    assert _assert_bfs_is_the_oracle(_BFS_FAMILIES[name]) is (name not in _DISCONNECTED)


def test_distance_matrix_matches_floyd_warshall():
    for seed in range(30):
        _assert_bfs_is_the_oracle(random_graph(4 + seed % 9, seed=500 + seed, density=0.45))
    connected = isolated = 0
    for n in (1, 2, 5, 12, 30, 60):
        for density in (0.05, 0.1, 0.2, 0.4, 0.9):
            for seed in range(3):
                g = random_graph(n, seed=7000 + 10 * n + seed, density=density)
                connected += _assert_bfs_is_the_oracle(g)
                isolated += bool((g.degrees == 0).any())
    assert 0 < connected < 90 and isolated > 0  # both kinds, and isolated vertices, were compared


@pytest.mark.parametrize("n", [2, 3, 200, 601, 1024])
def test_path_and_cycle_distances_are_the_closed_forms(n):
    # diameters 1 to 1023: both parities, and up to 10 squarings to unwind
    i, j = np.indices((n, n))
    assert np.array_equal(distance_matrix(path_graph(n)), np.abs(i - j))
    if n >= 3:
        assert np.array_equal(distance_matrix(cycle_graph(n)), np.minimum(np.abs(i - j), n - np.abs(i - j)))


@pytest.mark.parametrize("g", [complete_graph(300), complete_bipartite(150, 150)], ids=["K300", "K150,150"])
def test_distance_matrix_of_dense_graphs_is_fast(g):
    # one squaring makes a dense graph complete, and one product unwinds it
    t0 = time.perf_counter()
    distance_matrix(g)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("g", [path_graph(600), cycle_graph(600)], ids=["P600", "C600"])
def test_distance_matrix_of_long_graphs_is_fast(g):
    # about log2(diameter) squarings, however long the graph: no step per level or per source
    t0 = time.perf_counter()
    distance_matrix(g)
    assert time.perf_counter() - t0 < 1.0


def test_distance_matrix_of_the_path_at_the_size_cap_is_the_closed_form():
    # diameter 2047, eleven squarings, and products up to 2047^2 in float32
    n = graphs.SIZE_CAP
    D = distance_matrix(path_graph(n))
    idx = np.arange(n)
    assert D.dtype == np.float64 and np.array_equal(D, np.abs(np.subtract.outer(idx, idx)))


def test_products_run_in_float32_up_to_4097_vertices():
    # product entries reach (n - 1)^2, and float32 holds every integer up to 2^24 = 4096^2, not 2^24 + 1
    assert graphs._exact_float(4097) is np.float32 and graphs._exact_float(4098) is np.float64
    assert graphs._exact_float(1) is graphs._exact_float(graphs.SIZE_CAP) is np.float32
    assert int(np.float32(4096) * np.float32(4096)) == 2**24 == int(np.float32(2**24 + 1))


def test_distance_matrix_multiplies_in_the_exact_float(monkeypatch):
    seen = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, out: seen.append((a.dtype, b.dtype, out.dtype)) or matmul(a, b, out=out))
    distance_matrix(cycle_graph(40))
    assert seen and set(seen) == {(np.dtype(np.float32),) * 3}
    seen.clear()
    monkeypatch.setattr(graphs, "_exact_float", lambda n: np.float64)
    distance_matrix(cycle_graph(40))
    assert seen and set(seen) == {(np.dtype(np.float64),) * 3}


@pytest.mark.parametrize("name", [name for name in _BFS_FAMILIES if name not in _DISCONNECTED])
def test_float32_and_float64_products_give_the_same_bits(monkeypatch, name):
    g = _BFS_FAMILIES[name]
    D = distance_matrix(g)
    monkeypatch.setattr(graphs, "_exact_float", lambda n: np.float64)
    assert D.dtype == np.float64 and D.tobytes() == distance_matrix(g).tobytes()


_RELABELLED = {
    **{name: g for name, g in _BFS_FAMILIES.items() if name not in _DISCONNECTED and g.n >= 3},
    **{f"C{n}": cycle_graph(n) for n in (5, 7, 40)},
    "bow-tie": bow_tie(),
    "C12{1,5}": oracles.cayley_graph(oracles.cyclic_table(12), {1, 5, 7, 11}),
}


@pytest.mark.parametrize("name", _RELABELLED)
def test_relabelled_graphs_keep_hop_distances_and_screen_verdicts(name):
    g = _RELABELLED[name]
    D = distance_matrix(g)
    screens = (hamiltonian_screen, traceable_screen, distance_hamiltonian_screen)
    want = [(s(g).verdict, s(g).saturated) for s in screens]
    rng = np.random.default_rng(g.n)
    for _ in range(3):
        p = rng.permutation(g.n)  # vertex k of the copy is vertex p[k]: P A P^T, P[k, p[k]] = 1
        copy = graphs.Graph(g.adjacency[np.ix_(p, p)])
        assert distance_matrix(copy).tobytes() == D[np.ix_(p, p)].tobytes()
        assert [(s(copy).verdict, s(copy).saturated) for s in screens] == want


def test_distance_screen_of_a_long_path_peaks_within_four_and_a_half_matrices():
    # the squarings' layers are bool; float64 layers would peak near 14 matrices
    n = 1024
    g = path_graph(n)
    tracemalloc.start()
    try:
        distance_hamiltonian_screen(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * n * n


def test_regularity_predicates():
    assert is_regular(cycle_graph(8))
    assert not is_regular(path_graph(8))
    assert oracles.is_transmission_regular(cycle_graph(9))
    assert not oracles.is_transmission_regular(path_graph(9))


# ---------------------------------------------------------------- group tables


def test_cyclic_and_dihedral_tables_are_groups():
    oracles.validate_group(oracles.cyclic_table(7))
    oracles.validate_group(oracles.dihedral_table(5))


def test_dihedral_table_relations():
    m = 4
    M = oracles.dihedral_table(m)
    inverse = oracles.group_inverse(M)
    assert len(M) == 2 * m
    r, s = 1, m  # a generating rotation and a reflection
    assert M[s, s] == 0  # reflections are involutions
    # s r s = r^-1
    sr = M[s, r]
    assert M[sr, s] == inverse[r]


def test_group_table_rejects_non_latin():
    M = oracles.cyclic_table(4)
    M[1, 2] = M[1, 1]
    with pytest.raises(ValueError):
        oracles.validate_group(M)


def test_group_table_rejects_broken_inverses():
    # a latin square with identity whose "inverses" are one-sided only
    M = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
    )
    with pytest.raises(ValueError):
        oracles.validate_group(M)


# ---------------------------------------------------------------- cayley graphs


def test_cayley_graphs_are_the_loops():
    # the reflections s r^k are m..2m-1, and h o g^-1 is one exactly when g and h lie in
    # different cosets of the rotations: the package builds this Cayley graph as K_{m,m}
    for m in range(2, 41):
        M = oracles.dihedral_table(m)
        want = oracles.cayley_adjacency(M, oracles.group_inverse(M), range(m, 2 * m))
        assert dihedral_reflection_cayley(m).adjacency.tobytes() == want.tobytes(), m
    with pytest.raises(InvalidDimension, match="^m must be at least 2, got 1$"):
        dihedral_reflection_cayley(1)


def test_cayley_non_generating_set_gives_disconnected_graph():
    g = oracles.cayley_graph(oracles.cyclic_table(6), {2, 4})
    assert not is_connected(g)
    assert is_regular(g)


def test_cayley_graphs_are_regular_and_transmission_regular():
    c8, c10 = oracles.circulant_graph(8, (1,)), oracles.circulant_graph(10, (1, 5))
    assert np.array_equal(c8.adjacency, oracles.cayley_graph(oracles.cyclic_table(8), {1, 7}).adjacency)
    assert np.array_equal(c10.adjacency, oracles.cayley_graph(oracles.cyclic_table(10), {1, 9, 5}).adjacency)
    for g in (c8, c10, dihedral_reflection_cayley(5)):
        assert is_regular(g)
        if is_connected(g):
            assert oracles.is_transmission_regular(g)
            T = distance_matrix(g)
            assert np.ptp(T.sum(axis=1)) == 0


def test_dihedral_reflection_cayley_shape():
    for m in (3, 4, 6):
        g = dihedral_reflection_cayley(m)
        assert g.n == 2 * m
        assert np.all(g.adjacency.sum(axis=1) == m)
        assert is_connected(g)
    # and it is what the generic construction gives for the reflections
    m = 5
    direct = oracles.cayley_graph(oracles.dihedral_table(m), set(range(m, 2 * m)))
    assert np.array_equal(dihedral_reflection_cayley(m).adjacency, direct.adjacency)


def test_dihedral_reflection_cayley_distance_spectrum():
    # one eigenvalue 3m-2, one m-2, and -2 with multiplicity 2m-2
    m = 6
    g = dihedral_reflection_cayley(m)
    w = np.sort(np.linalg.eigvalsh(distance_matrix(g)))[::-1]
    expect = np.array([3 * m - 2, m - 2] + [-2] * (2 * m - 2), dtype=float)
    np.testing.assert_allclose(w, np.sort(expect)[::-1], atol=1e-8)


# ---------------------------------------------------------------- phi helpers


def test_complement_identity_on_random_graphs():
    """phi of the complement's adjacency equals N plus phi of the negated
    adjacency: the all-ones part vanishes on the restricted subspace."""
    from spectral_tsp.bounds import phi_symmetric as phi_mat

    for seed in range(200):
        n = 5 + seed % 5
        g = random_graph(n, seed=seed, density=0.3 + 0.05 * (seed % 9))
        lhs = complement_phi(g)
        A = g.adjacency.astype(float)
        # phi of -A computed directly on the matrix (it has zero diagonal)
        rhs = n + phi_mat(-A)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_complement_phi_builds_no_graph(monkeypatch):
    from spectral_tsp.bounds import phi_symmetric

    gs = [random_graph(5 + seed % 9, seed=seed, density=0.2 + 0.1 * (seed % 7)) for seed in range(60)]
    gs += [cycle_graph(9), complete_graph(6), disjoint_cliques(4), dihedral_reflection_cayley(5)]
    # the bytes of the route through an int8 complement adjacency
    want = [phi_symmetric((1 - np.eye(g.n, dtype=np.int8) - g.adjacency).astype(float)) for g in gs]
    built = []
    monkeypatch.setattr(graphs.Graph, "__post_init__", lambda self: built.append(self))
    assert [complement_phi(g) for g in gs] == want
    assert built == []


def test_complement_screens_share_one_spectral_pass(calls):
    g = random_graph(10, seed=7, density=0.5)
    ham, trace = hamiltonian_screen(g), traceable_screen(g)
    assert ham.value == trace.value == complement_phi(g) and (ham.threshold, trace.threshold) == (0.0, 1.0)
    # the complement is built from a graph that was validated: it is not validated again
    assert calls == {"compression": 1, "eigensolve": 1, "pairing": 1}


def _graphs_of_every_family():
    """Cycles, paths, complete graphs (an all-zero complement), K_{a,b}, dihedral Cayley graphs, G(n, p)."""
    yield from (cycle_graph(n) for n in (3, 4, 9, 40))
    yield from (path_graph(n) for n in (3, 5, 30))
    yield from (complete_graph(n) for n in (3, 6, 25))
    yield from (complete_bipartite(a, b) for a, b in ((1, 2), (3, 3), (4, 7), (10, 12)))
    yield from (dihedral_reflection_cayley(m) for m in (2, 3, 6, 20))
    yield from (random_graph(n, seed=n, density=p) for n, p in ((8, 0.3), (20, 0.5), (60, 0.1), (120, 0.05)))


def test_screens_on_built_matrices_are_the_validating_path_bit_for_bit():
    from spectral_tsp.bounds import phi_symmetric

    connected = 0
    for g in _graphs_of_every_family():
        want = phi_symmetric(1.0 - np.eye(g.n) - g.adjacency).hex()  # checked as input from outside
        ham, trace = hamiltonian_screen(g), traceable_screen(g)
        assert complement_phi(g).hex() == ham.value.hex() == trace.value.hex() == want, g.n
        if is_connected(g):
            connected += 1
            H = distance_matrix(g)
            assert np.array_equal(H, H.T)  # which the screen takes as known
            want = phi_symmetric(H).hex()
            assert distance_phi(g).hex() == distance_hamiltonian_screen(g).value.hex() == want, g.n
    assert connected >= 18


@pytest.mark.parametrize("g", [path_graph(1), path_graph(2), complete_graph(2)], ids=["P1", "P2", "K2"])
def test_built_matrix_bounds_keep_the_three_city_error(g):
    for phi in (complement_phi, distance_phi):
        with pytest.raises(InvalidDimension, match="^tours need at least 3 cities$"):
            phi(g)


def test_regular_fast_path_matches_generic():
    for g in (cycle_graph(9), complete_graph(7), complete_bipartite(4, 4),
              dihedral_reflection_cayley(4)):
        assert abs(oracles.complement_phi_regular(g) - complement_phi(g)) < 1e-9


def test_regular_fast_path_rejects_irregular():
    with pytest.raises(Exception):
        oracles.complement_phi_regular(path_graph(5))


def test_transmission_regular_fast_path_matches_generic():
    for g in (cycle_graph(8), cycle_graph(11), dihedral_reflection_cayley(5)):
        assert abs(oracles.distance_phi_transmission_regular(g) - distance_phi(g)) < 1e-9


@pytest.mark.parametrize(
    "n, steps",
    [(97, (1, 5)), (300, (1, 2, 7)), (1000, (3, 10)), (97, (1,)), (600, (1,)), (1000, (1,))],
    ids=["C97{1,5}", "C300{1,2,7}", "C1000{3,10}", "cycle97", "cycle600", "cycle1000"],
)
def test_screen_values_are_the_closed_forms_on_circulants(n, steps):
    # values only: the cycles' verdicts at tol 0 are a separate question
    S = {x % n for s in steps for x in (s, -s)}
    g = cycle_graph(n) if steps == (1,) else oracles.circulant_graph(n, steps)
    eps = np.finfo(float).eps
    for value, reference in (
        (complement_phi, oracles.circulant_complement_phi),
        (distance_phi, oracles.circulant_distance_phi),
    ):
        exact, magnitude = reference(n, steps)
        assert abs(np.longdouble(value(g)) - exact) <= 8 * n * eps * magnitude


# ---------------------------------------------------------------- screens


def test_bow_tie_is_excluded_by_the_adjacency_screen():
    res = hamiltonian_screen(bow_tie())
    assert res.verdict == "excluded"
    assert abs(res.value - 0.658) < 1e-3
    assert res.threshold == 0.0
    # a spanning path exists (the two triangles in sequence), and the
    # traceable screen indeed does not rule it out
    assert oracles.is_traceable(bow_tie())
    assert traceable_screen(bow_tie()).verdict == "not_excluded"


def test_complete_bipartite_screen_formula():
    for n in range(2, 6):
        for m in range(2, 6):
            g = complete_bipartite(n, m)
            val = complement_phi(g)
            N = n + m
            angle = math.pi * (1 - (-1) ** N) / (2 * N)
            expect = (n - m) ** 2 / N + (1 - math.cos(angle)) * 2 * n * m / N
            assert abs(val - expect) < 1e-8
            verdict = hamiltonian_screen(g).verdict
            assert verdict == ("not_excluded" if n == m else "excluded")


def test_disjoint_cliques_screens():
    # two cliques sharing no vertex: never Hamiltonian, and the screen
    # catches it at every size; the path screen only up to size four
    for n in (3, 4, 5, 6):
        g = disjoint_cliques(n)
        assert hamiltonian_screen(g).verdict == "excluded"
        expect = "excluded" if n <= 4 else "not_excluded"
        assert traceable_screen(g).verdict == expect


def test_cycle_graphs_never_excluded():
    for n in (5, 8, 13):
        g = cycle_graph(n)
        assert hamiltonian_screen(g).verdict == "not_excluded"
        assert traceable_screen(g).verdict == "not_excluded"
        res = distance_hamiltonian_screen(g)
        assert res.verdict == "not_excluded"
        assert res.value <= n + 1e-8


def test_path_graph_distance_screen_excludes():
    res = distance_hamiltonian_screen(path_graph(10))
    assert res.verdict == "excluded"
    assert abs(res.value - 13.052) < 1e-3
    assert res.threshold == 10.0


def test_dihedral_distance_screen_saturates():
    for m in (3, 5, 7):
        g = dihedral_reflection_cayley(m)
        res = distance_hamiltonian_screen(g)
        assert res.verdict == "not_excluded"
        assert res.saturated
        assert abs(res.value - 2 * m) < 1e-8


def test_distance_screen_rejects_disconnected():
    with pytest.raises(Disconnected):
        distance_hamiltonian_screen(disjoint_cliques(3))


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_screens_reject_a_tol_outside_zero_to_infinity(tol):
    for screen in (hamiltonian_screen, traceable_screen, distance_hamiltonian_screen):
        with pytest.raises(InvalidTolerance):
            screen(cycle_graph(6), tol)


@pytest.mark.parametrize("n", [1, 2])
def test_screens_name_what_needs_three_vertices(n):
    g = path_graph(n)
    for screen, need in (
        (hamiltonian_screen, "Hamiltonian cycles need"),
        (traceable_screen, "screen needs"),
        (distance_hamiltonian_screen, "Hamiltonian cycles need"),
    ):
        with pytest.raises(InvalidDimension, match=f"^{need} at least 3 vertices$"):
            screen(g)
        with pytest.raises(InvalidTolerance):  # tol is checked first
            screen(g, -1.0)


def test_screens_sound_on_small_corpus():
    # never exclude a graph that provably has the structure
    for seed in range(120):
        n = 5 + seed % 4
        g = random_graph(n, seed=1000 + seed, density=0.35 + 0.06 * (seed % 8))
        if oracles.is_hamiltonian(g):
            assert hamiltonian_screen(g).verdict == "not_excluded"
            if is_connected(g):
                assert distance_hamiltonian_screen(g).verdict == "not_excluded"
        if oracles.is_traceable(g):
            assert traceable_screen(g).verdict == "not_excluded"


# ---------------------------------------------------------------- oracles


def test_hamiltonicity_oracle_known_cases():
    assert oracles.is_hamiltonian(cycle_graph(7))
    assert oracles.is_hamiltonian(complete_graph(5))
    assert not oracles.is_hamiltonian(path_graph(7))
    assert not oracles.is_hamiltonian(bow_tie())
    assert oracles.is_traceable(path_graph(7))
    assert not oracles.is_traceable(disjoint_cliques(3))
    assert oracles.is_traceable(complete_graph(1)) and not oracles.is_hamiltonian(complete_graph(1))


def test_oracle_cap():
    for oracle in (oracles.is_hamiltonian, oracles.is_traceable):
        with pytest.raises(TooLarge, match="capped at 12 vertices, got 13"):
            oracle(cycle_graph(13))
        assert oracle(cycle_graph(12))


# ---------------------------------------------------------------- text input


def test_graph_from_text_edge_list():
    g = graph_from_text("5\n0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n")
    assert np.array_equal(g.adjacency, bow_tie().adjacency)


def test_graph_from_text_adjacency():
    text = "0 1 1\n1 0 1\n1 1 0\n"
    g = graph_from_text(text)
    assert np.array_equal(g.adjacency, complete_graph(3).adjacency)


def test_graph_from_text_comments_and_errors():
    g = graph_from_text("# triangle\n3\n0 1\n1 2\n0 2\n")
    assert edge_count(g) == 3
    with pytest.raises(InputFormatError):
        graph_from_text("3\n0 5\n")
    with pytest.raises(InputFormatError, match="non-integer edge endpoint"):
        graph_from_text("3\n0 1.0\n")
    with pytest.raises(InputFormatError):
        graph_from_text("0 1\n1 0 1\n")
    with pytest.raises(InputFormatError):
        graph_from_text("0 1\n1 1\n")  # nonzero diagonal
    for big in ("256", "257", str(10**30), "-1"):
        with pytest.raises(InputFormatError, match="0 or 1"):
            graph_from_text(f"0 {big} 1\n{big} 0 1\n1 1 0\n")


def test_graph_from_text_caps_the_declared_vertex_count():
    for n in (graphs.SIZE_CAP + 1, 40000, 10**12):
        with pytest.raises(TooLarge, match="capped"):
            graph_from_text(f"{n}\n0 1\n")
    assert graph_from_text(f"{graphs.SIZE_CAP}\n0 1\n").n == graphs.SIZE_CAP


def cycle_text(n: int, form: str) -> str:
    """The n-cycle as an edge list or as adjacency rows."""
    if form == "edges":
        return f"{n}\n" + "".join(f"{i} {(i + 1) % n}\n" for i in range(n))
    return "".join(" ".join(map(str, row)) + "\n" for row in cycle_graph(n).adjacency.tolist())


@pytest.mark.parametrize("form, fmt", [("edges", "auto"), ("edges", "edges"), ("adjacency", "auto"), ("adjacency", "adjacency")])
def test_graph_files_of_both_formats_are_capped_at_the_same_vertex_count(monkeypatch, form, fmt):
    monkeypatch.setattr(graphs, "SIZE_CAP", 4)
    assert np.array_equal(graph_from_text(cycle_text(4, form), fmt).adjacency, cycle_graph(4).adjacency)
    kind = {"edges": "edge lists", "adjacency": "adjacency matrices"}[form]
    with pytest.raises(TooLarge, match=f"^{kind} are capped at 4 vertices, got 5$"):
        graph_from_text(cycle_text(5, form), fmt)


def test_adjacency_rows_are_counted_before_any_entry_is_read():
    rows = "x y\n" * (graphs.SIZE_CAP + 1)
    with pytest.raises(TooLarge, match="^adjacency matrices are capped at 2048 vertices, got 2049$"):
        graph_from_text(rows)
    with pytest.raises(InputFormatError, match="integers"):
        graph_from_text("x y\n" * graphs.SIZE_CAP)


def test_graph_from_text_rejects_digits_int_cannot_read():
    with pytest.raises(InputFormatError, match="vertex count"):
        graph_from_text("\u00b2\n")  # superscript two: str.isdigit, but not int()


_TOKENS = stn.one_of(
    stn.integers(-2, 6).map(str),
    stn.sampled_from(["", "#", "x", "1.5", "1e3", "0x1", "1_0", "\u00b2", "\u0661", str(10**30)]),
    stn.just(str(graphs.SIZE_CAP + 1)),
)


@settings(max_examples=300, deadline=None)
@given(
    stn.lists(stn.lists(_TOKENS, max_size=6).map(" ".join), max_size=8).map("\n".join) | stn.text(max_size=40),
    stn.sampled_from(["auto", "edges", "adjacency", "csv"]),
)
def test_graph_reader_fails_only_with_package_errors_and_returns_clean_graphs(text, fmt):
    try:
        g = graph_from_text(text, fmt)
    except SpectralTspError:
        return
    A = g.adjacency
    assert A.ndim == 2 and A.shape[0] == A.shape[1] >= 1
    assert np.isin(A, (0, 1)).all() and np.array_equal(A, A.T) and not np.diagonal(A).any()


def test_graph_reader_reads_tokens_as_int_does():
    # tokens a numpy or byte-level reader could read otherwise
    assert graph_from_text("12\n0 1_0\n").adjacency[0, 10] == 1
    assert edge_count(graph_from_text("0 +1\n+1 0\n")) == 1
    assert edge_count(graph_from_text("0 \u0661\n\u0661 0\n")) == 1  # Arabic-Indic one
    with pytest.raises(InputFormatError, match="non-integer edge endpoint"):
        graph_from_text("3\n0 1.0\n")
    with pytest.raises(InputFormatError, match=f"^edge \\(0, {2**63}\\) out of range for 3 vertices$"):
        graph_from_text(f"3\n0 {2**63}\n")
    with pytest.raises(InputFormatError, match="0 or 1"):
        graph_from_text(f"0 {2**63}\n{2**63} 0\n")


def test_graph_reader_reads_random_files_in_both_formats():
    rng = np.random.default_rng(8)
    for trial in range(12):
        n = int(rng.integers(1, 120))
        A = np.triu(rng.random((n, n)) < rng.random(), 1)
        A = A | A.T
        gaps = rng.choice([" ", "  ", "\t", " \x1f"], size=A.size)
        rows = ["".join(f"{x}{s}" for x, s in zip(row, gaps[i * n :])) for i, row in enumerate(A.astype(int))]
        u, v = np.nonzero(A)
        for text in ("\n".join(rows), f"{n}  # vertices\n" + "".join(f"{a}\t{b}\n" for a, b in zip(u, v))):
            assert graph_from_text(text).adjacency.tobytes() == A.astype(np.int8).tobytes(), trial
