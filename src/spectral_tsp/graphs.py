"""Graphs, stock families, and spectral Hamiltonicity screens.

A Hamiltonian cycle in a graph G is a zero-cost tour of the complement's
adjacency matrix and a cost-n tour of G's hop-distance matrix.  Feeding
either matrix to the symmetric tour bound therefore yields necessary
conditions:

    G Hamiltonian  =>  phi(complement adjacency) <= 0
    G traceable    =>  phi(complement adjacency) <= 1
    G Hamiltonian  =>  phi(hop distances) <= n        (G connected)

A bound value above the threshold certifies non-Hamiltonicity (verdict
"excluded"); at or below it the screen says nothing ("not_excluded").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import Compression
from .errors import Disconnected, InputFormatError, InvalidDimension, InvalidMatrix, TooLarge
from .linalg import _INTEGER, DEFAULT_TOL, SIZE_CAP, _Checked, _top, check_int, check_tol


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph, an immutable value: its 0/1 adjacency is a read-only int8 copy."""

    adjacency: np.ndarray

    def __post_init__(self):
        try:
            A = np.asarray(self.adjacency)
        except ValueError:  # a ragged nested list
            raise InvalidMatrix("adjacency must be square, got ragged rows") from None
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InvalidMatrix(f"adjacency must be square, got shape {A.shape}")
        if A.shape[0] < 1:
            raise InvalidDimension("graphs need at least one vertex")
        if not ((A == 0) | (A == 1)).all():
            raise InvalidMatrix("adjacency entries must be 0 or 1")
        A = A.astype(np.int8)  # a copy even of int8 input, so no caller can change it
        if not np.array_equal(A, A.T):
            raise InvalidMatrix("adjacency must be symmetric")
        if np.any(np.diagonal(A)):
            raise InvalidMatrix("self-loops are not allowed")
        A.flags.writeable = False
        object.__setattr__(self, "adjacency", A)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    @cached_property
    def _complement_phi(self) -> float:
        """The complement bound, computed on first use and kept; complement_phi reads it."""
        M = np.subtract(1.0, self.adjacency)  # 1 - I - A in one n x n array
        np.fill_diagonal(M, 0.0)
        return _built_phi(M)


def _built_phi(M: np.ndarray) -> float:
    """phi_symmetric of a matrix built here from a Graph, which was validated: 1 - I - A or hop counts,
    finite and exactly symmetric with a zero diagonal.  It goes to Compression as a _Checked pair known
    to be exactly symmetric, and nothing is checked again; below 3 vertices tsp_coefficients raises
    the InvalidDimension that check_distance_matrix raises, before any spectrum is taken."""
    c = Compression(_Checked(M, _top(M)))
    c.exactly_symmetric = True
    return c.phi_symmetric


def from_edges(n: int, edges) -> Graph:
    """Graph on vertices 0..n-1 with the given (u, v) edges, read lazily and in order: an error
    names the first bad edge, and no edge after it is read."""
    n = check_int(n, "vertex count", 1)
    try:
        edges = iter(edges)
    except TypeError:
        raise InvalidMatrix(f"edges must hold pairs: an edge is a pair (u, v), got {edges!r}") from None
    us, vs = [], []
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise InvalidMatrix(f"an edge is a pair (u, v), got {edge!r}") from None
        # _is_index's rule, inline: a call per endpoint would double the walk's time
        if not (isinstance(u, _INTEGER) and isinstance(v, _INTEGER)) or u.__class__ is bool or v.__class__ is bool:
            raise InvalidDimension(f"edge {edge!r} needs integer endpoints")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidDimension(f"edge ({u}, {v}) out of range for {n} vertices")
        us.append(u)
        vs.append(v)
    A = np.zeros((n, n), dtype=np.int8)
    u, v = np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp)  # mixed numpy kinds would promote to float
    A[u, v] = A[v, u] = 1
    return Graph(A)


def is_connected(g: Graph) -> bool:
    """Whether breadth-first search from vertex 0 reaches every vertex, one array step per level."""
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:  # the unseen neighbours of the whole frontier
        frontier = np.flatnonzero(g.adjacency[frontier].any(axis=0) & ~seen)
        seen[frontier] = True
    return bool(seen.all())


def _exact_float(n: int) -> type:
    """float32 if it holds every integer up to (n - 1)^2 exactly (n <= 4097), else float64."""
    return np.float32 if (n - 1) ** 2 <= 1 << 24 else np.float64


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop distances, as float64, by Seidel's repeated squaring (JCSS 51(3), 1995).  Raises Disconnected.

    G_{k+1} = [G_k^2 > 0] | G_k less its diagonal, from the adjacency G_0 until G_K is complete;
    from T = G_K down, G_k's distances are 2T - [T G_k < T deg_k].  Every product and partial
    sum is a non-negative integer of at most (n - 1)^2, so the products run in _exact_float(n),
    float32 up to n = 4097, and are exact at any BLAS thread count: the same bits as float64.
    """
    G = g.adjacency.astype(bool)
    dtype = _exact_float(len(G))
    layers, F, X = [], np.empty(G.shape, dtype), np.empty(G.shape, dtype)  # bool layers, two buffers
    while np.count_nonzero(G) < G.size - len(G):  # about log2(diameter) squarings
        np.copyto(F, G)
        H = (np.matmul(F, F, out=X) > 0) | G
        np.fill_diagonal(H, False)
        if np.array_equal(H, G):
            raise Disconnected("hop distances are only defined for connected graphs")
        layers.append(G)
        G = H
    T = G.astype(dtype if layers else float)  # a complete G_0 needs no product
    for G in reversed(layers):
        np.copyto(F, G)
        np.matmul(T, F, out=X)
        np.multiply(T, G.sum(axis=0, dtype=dtype), out=F)
        T *= 2
        T -= np.less(X, F, out=X)
    return T.astype(float, copy=False)


def is_regular(g: Graph) -> bool:
    d = g.degrees
    return bool((d == d[0]).all())


# ---------------------------------------------------------------------------
# stock graphs


def complete_graph(n: int) -> Graph:
    n = check_int(n, "vertex count", 1)
    return Graph(np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8))


def complete_bipartite(a: int, b: int) -> Graph:
    a, b = (check_int(x, "part size", 0) for x in (a, b))
    n = a + b
    A = np.zeros((n, n), dtype=np.int8)
    A[:a, a:] = A[a:, :a] = 1
    return Graph(A)


def path_graph(n: int) -> Graph:
    n = check_int(n, "vertex count", 1)
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    n = check_int(n, "vertex count", 3)
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def bow_tie() -> Graph:
    """Two triangles glued at a single vertex (5 vertices, 6 edges)."""
    return from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def dihedral_reflection_cayley(m: int) -> Graph:
    """Cayley graph of the dihedral group of order 2m with all m reflections as its connection set.

    With the rotations r^k as vertices 0..m-1 and the reflections s r^k as m..2m-1, h o g^-1 is a
    reflection exactly when g and h lie in different cosets of the rotation subgroup: the graph
    is K_{m,m}, adjacency and all.
    """
    m = check_int(m, "m", 2)  # a nontrivial reflection set
    return complete_bipartite(m, m)


# ---------------------------------------------------------------------------
# spectral screens


def complement_phi(g: Graph) -> float:
    """The tour bound applied to the complement's adjacency matrix, computed once per graph."""
    return g._complement_phi


def distance_phi(g: Graph) -> float:
    """The tour bound applied to the hop-distance matrix (connected graphs)."""
    return _built_phi(distance_matrix(g))


@dataclass
class ScreenResult:
    """Outcome of one spectral screen.

    verdict is "excluded" when the bound value exceeds the threshold by more
    than tol * max(1, |threshold|), else "not_excluded"; `saturated` flags
    values within that margin of the threshold (the tight families).
    """

    value: float
    threshold: float
    verdict: str
    saturated: bool


def _screen(g: Graph, value, threshold: float, tol: float, need: str = "Hamiltonian cycles need") -> ScreenResult:
    """Judge value(g) against threshold, once tol and n >= 3 are checked."""
    check_tol(tol)
    if g.n < 3:
        raise InvalidDimension(f"{need} at least 3 vertices")
    v = value(g)
    margin = tol * max(1.0, abs(threshold))
    return ScreenResult(
        value=v,
        threshold=threshold,
        verdict="excluded" if v > threshold + margin else "not_excluded",
        saturated=abs(v - threshold) <= margin,
    )


def hamiltonian_screen(g: Graph, tol: float = DEFAULT_TOL) -> ScreenResult:
    """Excludes Hamiltonicity when the complement bound rises above 0."""
    return _screen(g, complement_phi, 0.0, tol)


def traceable_screen(g: Graph, tol: float = DEFAULT_TOL) -> ScreenResult:
    """Excludes Hamiltonian paths when the complement bound rises above 1."""
    return _screen(g, complement_phi, 1.0, tol, "screen needs")


def distance_hamiltonian_screen(g: Graph, tol: float = DEFAULT_TOL) -> ScreenResult:
    """Excludes Hamiltonicity when the hop-distance bound rises above n."""
    return _screen(g, distance_phi, float(g.n), tol)


# ---------------------------------------------------------------------------
# text formats


def graph_from_text(text: str, fmt: str = "auto") -> Graph:
    """Parse a graph from edge-list or adjacency-matrix text.

    Edge list: first non-comment line is the vertex count, each further line
    one "u v" pair, 0-based.  Adjacency matrix: n whitespace-separated rows
    of n entries each, 0/1.  Blank lines and '#' comments are ignored.  With
    fmt="auto", a single leading integer selects the edge-list form.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise InputFormatError("empty graph description")

    if fmt == "auto":
        fmt = "edges" if len(lines[0].split()) == 1 else "adjacency"

    if fmt == "edges":
        head = lines[0].split()
        if len(head) != 1 or not head[0].isdecimal():
            raise InputFormatError(f"expected a vertex count on the first line, got {lines[0]!r}")
        n = int(head[0])
        if n > SIZE_CAP:
            raise TooLarge(f"edge lists are capped at {SIZE_CAP} vertices, got {n}")
        edges = []
        for line in lines[1:]:
            parts = line.split()
            if len(parts) != 2:
                raise InputFormatError(f"expected 'u v', got {line!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise InputFormatError(f"non-integer edge endpoint in {line!r}") from None
        try:
            return from_edges(n, edges)
        except (InvalidDimension, InvalidMatrix) as exc:
            raise InputFormatError(str(exc)) from None

    if fmt == "adjacency":
        if len(lines) > SIZE_CAP:  # one row per vertex, counted before any entry is read
            raise TooLarge(f"adjacency matrices are capped at {SIZE_CAP} vertices, got {len(lines)}")
        try:
            rows = [[int(tok) for tok in line.split()] for line in lines]
        except ValueError:
            raise InputFormatError("adjacency matrix entries must be integers") from None
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise InputFormatError("adjacency matrix must be square")
        try:
            return Graph(np.array(rows))
        except InvalidMatrix as exc:
            raise InputFormatError(str(exc)) from None

    raise InputFormatError(f"unknown graph format {fmt!r}")
