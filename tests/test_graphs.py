import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as stn

import oracles
from spectral_tsp import graphs
from spectral_tsp.errors import (
    Disconnected,
    IdentityInConnectionSet,
    InputFormatError,
    InvalidDimension,
    InvalidMatrix,
    NotInverseClosed,
    InvalidTolerance,
    SpectralTspError,
    TooLarge,
)
from spectral_tsp.graphs import (
    GroupTable,
    bow_tie,
    cayley_graph,
    complement,
    complement_phi,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    cyclic_group,
    dihedral_group,
    dihedral_reflection_cayley,
    disjoint_cliques,
    distance_hamiltonian_screen,
    distance_matrix,
    distance_phi,
    from_edges,
    graph_from_text,
    hamiltonian_screen,
    is_connected,
    is_hamiltonian,
    is_regular,
    is_traceable,
    path_graph,
    traceable_screen,
)
from spectral_tsp.instances import SplitMix64


def random_graph(n: int, seed: int, density: float = 0.5) -> graphs.Graph:
    rng = SplitMix64(seed)
    A = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next_float() < density:
                A[i, j] = A[j, i] = 1
    return graphs.Graph(adjacency=A)


# ---------------------------------------------------------------- constructions


def test_basic_generator_shapes():
    bt = bow_tie()
    assert bt.n == 5 and bt.edge_count == 6
    assert complete_graph(6).edge_count == 15
    assert complete_bipartite(4, 3).edge_count == 12
    assert path_graph(7).edge_count == 6
    assert cycle_graph(7).edge_count == 7
    assert disjoint_cliques(4).edge_count == 12  # 2 * C(4,2)


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
        lambda: cyclic_group(0),
        lambda: dihedral_group(0),
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
    "cyclic_group": cyclic_group,
    "dihedral_group": dihedral_group,
    "dihedral_reflection_cayley": graphs.dihedral_reflection_cayley,
}


@pytest.mark.parametrize("name", BUILDERS)
@pytest.mark.parametrize("size", [2.5, 3.5, np.float64(3.0), True, np.bool_(True), "3", None])
def test_builders_take_only_integer_sizes(name, size):
    # 2.5 raised numpy's TypeError, and cyclic_group(2.5) an InvalidMatrix about its table
    with pytest.raises(InvalidDimension, match="must be an integer"):
        BUILDERS[name](size)


@pytest.mark.parametrize("name", BUILDERS)
def test_builders_take_numpy_integer_sizes(name):
    for size in (np.int64(4), np.uint8(4), np.int32(4)):
        built, expected = BUILDERS[name](size), BUILDERS[name](4)
        table = "mult" if isinstance(expected, graphs.GroupTable) else "adjacency"
        assert np.array_equal(getattr(built, table), getattr(expected, table))


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
    assert g.edge_count == 2
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
        assert g.adjacency.dtype == np.int8 and g.edge_count == 6


def test_graph_is_an_immutable_copy():
    A = cycle_graph(5).adjacency.copy()
    g = graphs.Graph(A)
    A[0, 1] = A[1, 0] = 0  # the caller's array stays the caller's
    assert g.edge_count == 5 and g.adjacency.dtype == np.int8
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


def test_from_edges_takes_numpy_integers():
    edges = np.array([[0, 1], [1, 2]], dtype=np.int32)
    assert np.array_equal(from_edges(3, edges).adjacency, path_graph(3).adjacency)
    assert from_edges(3, [(np.uint8(0), np.int64(2))]).edge_count == 1


def test_complement_is_involution():
    for seed in range(5):
        g = random_graph(7, seed=seed)
        assert np.array_equal(complement(complement(g)).adjacency, g.adjacency)
    assert complement(complete_graph(5)).edge_count == 0


def test_connectivity_and_distances():
    assert is_connected(path_graph(6))
    assert not is_connected(disjoint_cliques(3))
    D = distance_matrix(path_graph(5))
    i, j = np.indices((5, 5))
    assert np.array_equal(D, np.abs(i - j).astype(float))
    with pytest.raises(Disconnected):
        distance_matrix(disjoint_cliques(3))


def test_distance_matrix_matches_floyd_warshall():
    for seed in range(30):
        g = random_graph(4 + seed % 9, seed=500 + seed, density=0.45)
        if is_connected(g):
            assert np.array_equal(distance_matrix(g), oracles.hop_distances(g))


def test_regularity_predicates():
    assert is_regular(cycle_graph(8))
    assert not is_regular(path_graph(8))
    assert oracles.is_transmission_regular(cycle_graph(9))
    assert not oracles.is_transmission_regular(path_graph(9))


# ---------------------------------------------------------------- group tables


def test_cyclic_and_dihedral_tables_are_groups():
    oracles.validate_group(cyclic_group(7))
    oracles.validate_group(dihedral_group(5))


def test_dihedral_table_relations():
    m = 4
    t = dihedral_group(m)
    assert t.order == 2 * m
    r, s = 1, m  # a generating rotation and a reflection
    assert t.mult[s, s] == t.identity  # reflections are involutions
    # s r s = r^-1
    sr = t.mult[s, r]
    assert t.mult[sr, s] == t.inverse[r]


def test_group_table_rejects_non_latin():
    M = cyclic_group(4).mult.copy()
    M[1, 2] = M[1, 1]
    with pytest.raises(ValueError):
        oracles.validate_group(GroupTable(mult=M))


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
        oracles.validate_group(GroupTable(mult=M))


def test_group_tables_are_the_loops():
    for m in range(1, 41):
        d = dihedral_group(m)
        assert d.mult.tobytes() == oracles.dihedral_table(m).tobytes(), m
        assert d.inverse.tobytes() == oracles.group_inverse(d.mult).tobytes(), m
        c = cyclic_group(m)
        assert c.mult.tobytes() == oracles.cyclic_table(m).tobytes(), m
        assert c.inverse.tobytes() == oracles.group_inverse(c.mult).tobytes(), m
        # the inverse read off the table is negation mod m
        assert c.inverse.tolist() == [-a % m for a in range(m)], m
        assert c.identity == d.identity == 0


def test_group_table_without_unique_inverse_names_the_first_element():
    rng = np.random.default_rng(0)
    for trial in range(40):
        n = 2 + trial % 7
        M = rng.integers(0, n, size=(n, n))
        try:
            want = oracles.group_inverse(M)
        except ValueError as exc:
            with pytest.raises(InvalidMatrix, match=f"^{exc}$"):
                GroupTable(mult=M)
        else:
            assert GroupTable(mult=M).inverse.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "M, match",
    [
        (np.zeros((2, 3), dtype=int), "square"),
        ([[0, 1], [1]], "square"),
        ([[0, 1.5], [1.5, 0]], "integers"),
        ([[0, 5], [5, 0]], "integers"),
        ([[0, -1], [-1, 0]], "integers"),
        ([["0", "1"], ["1", "0"]], "integers"),
        (np.array([[False, True], [True, False]]), "integers"),
    ],
)
def test_group_table_takes_only_integer_entries_in_range(M, match):
    with pytest.raises(InvalidMatrix, match=match):
        GroupTable(mult=M)


def test_group_table_keeps_int64_entries():
    M = cyclic_group(5).mult
    for dtype in (np.int8, np.uint16, np.int64):
        t = GroupTable(mult=M.astype(dtype))
        assert t.mult.dtype == np.int64 and t.mult.tobytes() == M.tobytes()


def _inverse_closed_sets(table, rng, count):
    """Random connection sets: unions of {a, a^-1} over non-identity a."""
    others = np.flatnonzero(np.arange(table.order) != table.identity)
    for _ in range(count):
        picked = rng.choice(others, size=rng.integers(1, len(others) + 1), replace=True)
        yield set(picked.tolist()) | set(table.inverse[picked].tolist())


def test_cayley_graphs_are_the_loops():
    rng = np.random.default_rng(1)
    for m in range(1, 41):
        for table in (cyclic_group(m + 1), dihedral_group(m)):
            for S in _inverse_closed_sets(table, rng, 3):
                want = oracles.cayley_adjacency(table.mult, table.inverse, S)
                assert cayley_graph(table, S).adjacency.tobytes() == want.tobytes(), (m, S)
        if m >= 2:
            t = dihedral_group(m)
            want = oracles.cayley_adjacency(oracles.dihedral_table(m), t.inverse, range(m, 2 * m))
            assert dihedral_reflection_cayley(m).adjacency.tobytes() == want.tobytes(), m


# ---------------------------------------------------------------- cayley graphs


def test_cayley_cycle_from_cyclic_group():
    n = 9
    t = cyclic_group(n)
    g = cayley_graph(t, {1, n - 1})
    assert np.array_equal(g.adjacency, cycle_graph(n).adjacency)


def test_cayley_odd_residues_look_like_complete_bipartite():
    # Z_2n with the odd residues: same degree sequence and adjacency
    # spectrum as K_{n,n}, which pins the graph up to isomorphism here.
    for n in (2, 3, 4):
        t = cyclic_group(2 * n)
        g = cayley_graph(t, set(range(1, 2 * n, 2)))
        kb = complete_bipartite(n, n)
        assert sorted(g.adjacency.sum(axis=1)) == sorted(kb.adjacency.sum(axis=1))
        a = np.sort(np.linalg.eigvalsh(g.adjacency.astype(float)))
        b = np.sort(np.linalg.eigvalsh(kb.adjacency.astype(float)))
        np.testing.assert_allclose(a, b, atol=1e-8)


def test_cayley_connection_set_validation():
    t = cyclic_group(6)
    with pytest.raises(IdentityInConnectionSet):
        cayley_graph(t, {0, 1, 5})
    with pytest.raises(NotInverseClosed):
        cayley_graph(t, {1})  # inverse of 1 is 5
    for outside in (6, -1):
        with pytest.raises(InvalidDimension, match="out of range"):
            cayley_graph(t, {1, 5, outside})
    with pytest.raises(InvalidDimension):
        dihedral_reflection_cayley(1)


@pytest.mark.parametrize("connection", [[4.7, 5.2, 6, 7], ["4", "5"], [True, 7], [np.float64(4.0), 4]])
def test_cayley_connection_set_takes_only_integers(connection):
    with pytest.raises(InvalidDimension, match="not an integer"):
        cayley_graph(dihedral_group(4), connection)


def test_cayley_connection_set_takes_numpy_integers():
    want = dihedral_reflection_cayley(4).adjacency
    assert np.array_equal(cayley_graph(dihedral_group(4), np.arange(4, 8)).adjacency, want)


def test_cayley_non_generating_set_gives_disconnected_graph():
    t = cyclic_group(6)
    g = cayley_graph(t, {2, 4})
    assert not is_connected(g)
    assert is_regular(g)


def test_cayley_graphs_are_regular_and_transmission_regular():
    for g in (
        cayley_graph(cyclic_group(8), {1, 7}),
        cayley_graph(cyclic_group(10), {1, 9, 5}),
        dihedral_reflection_cayley(5),
    ):
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
    direct = cayley_graph(dihedral_group(m), set(range(m, 2 * m)))
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
    # the bytes of the route through a validated complement Graph
    want = [phi_symmetric(complement(g).adjacency.astype(float)) for g in gs]
    built = []
    monkeypatch.setattr(graphs.Graph, "__post_init__", lambda self: built.append(self))
    assert [complement_phi(g) for g in gs] == want
    assert built == []


def test_complement_screens_share_one_spectral_pass(calls):
    g = random_graph(10, seed=7, density=0.5)
    ham, trace = hamiltonian_screen(g), traceable_screen(g)
    assert ham.value == trace.value == complement_phi(g) and (ham.threshold, trace.threshold) == (0.0, 1.0)
    assert calls == {"validation": 1, "as_square": 1, "compression": 1, "eigensolve": 1}


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


# ---------------------------------------------------------------- screens


def test_bow_tie_is_excluded_by_the_adjacency_screen():
    res = hamiltonian_screen(bow_tie())
    assert res.verdict == "excluded"
    assert abs(res.value - 0.658) < 1e-3
    assert res.threshold == 0.0
    # a spanning path exists (the two triangles in sequence), and the
    # traceable screen indeed does not rule it out
    assert is_traceable(bow_tie())
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
        if is_hamiltonian(g):
            assert hamiltonian_screen(g).verdict == "not_excluded"
            if is_connected(g):
                assert distance_hamiltonian_screen(g).verdict == "not_excluded"
        if is_traceable(g):
            assert traceable_screen(g).verdict == "not_excluded"


# ---------------------------------------------------------------- oracles


def test_hamiltonicity_oracle_known_cases():
    assert is_hamiltonian(cycle_graph(7))
    assert is_hamiltonian(complete_graph(5))
    assert not is_hamiltonian(path_graph(7))
    assert not is_hamiltonian(bow_tie())
    assert is_traceable(path_graph(7))
    assert not is_traceable(disjoint_cliques(3))
    assert is_traceable(complete_graph(1)) and not is_hamiltonian(complete_graph(1))


def test_oracle_cap():
    for oracle in (is_hamiltonian, is_traceable):
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
    assert g.edge_count == 3
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
