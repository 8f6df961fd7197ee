"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way, with different numpy
primitives (projector instead of an explicit basis, complex `eig` instead
of a real-arithmetic split, exhaustive enumeration instead of assignment
solvers) so that agreement with the library is evidence, not tautology.
The loop versions of the solvers, instance generators, TSPLIB distance
rules and group and Cayley builders are the reference the library's array
versions must match bit for bit; so are the whole-array routes of
brute_force, squared distances and GEO distances for the library's cached
tables and row blocks.  The dense passes of a symmetric report (the
Householder basis as I minus an outer product, the compression negated out
of place, A - A^T for the skew and (A + A^T) / 2 for n2) are the reference
for the library's in-place and exactly-symmetric routes, bit for bit.  The
two-step normality rule (an early accept before the commutator) is the
reference the library's one commutator test must decide alike.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def cosine_coefficients(n: int) -> np.ndarray:
    """The multiset {1 - cos(2 pi k / n), k = 1..n-1}, ascending."""
    k = np.arange(1, n)
    return np.sort(1.0 - np.cos(2.0 * np.pi * k / n))


def _restricted_eigs_projector(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of -M on the hyperplane orthogonal to the ones vector.

    Route: eigendecompose -PMP on the full space (P the centering
    projector), then discard the eigenpair whose vector lies along ones.
    """
    n = M.shape[0]
    P = np.eye(n) - np.ones((n, n)) / n
    w, V = np.linalg.eigh(-P @ ((M + M.T) / 2.0) @ P)
    ones = np.ones(n) / math.sqrt(n)
    drop = int(np.argmax(np.abs(V.T @ ones)))
    return np.delete(w, drop)  # ascending


def phi_projector(D) -> float:
    """Spectral tour bound via the projector route (symmetric part of D)."""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    mu = _restricted_eigs_projector(D)  # ascending
    return float(cosine_coefficients(n) @ mu[::-1])


def is_psd(S, tol: float = 1e-8) -> bool:
    """True iff the symmetric matrix S has no eigenvalue below -tol * ||S||_F."""
    S = np.asarray(S, dtype=float)
    S = 0.5 * (S + S.T)
    return float(np.linalg.eigvalsh(S)[0]) >= -tol * float(np.linalg.norm(S))


def schoenberg_projector(D, tol: float = 1e-8) -> bool:
    """Embeddability test on the full space: is -P D P positive semidefinite?"""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    P = np.eye(n) - np.ones((n, n)) / n
    return is_psd(-P @ D @ P, tol)


def householder_basis(n: int) -> np.ndarray:
    """Columns 2..n of I - 2 w w^T / (w^T w), w = e_1 - (1/sqrt(n)) 1, formed densely."""
    w = -np.full(n, 1.0 / np.sqrt(n))
    w[0] += 1.0
    return (np.eye(n) - (2.0 / (w @ w)) * np.outer(w, w))[:, 1:]


def dense_report_fields(A, scale: float, tol: float) -> dict:
    """The BoundReport fields of a matrix judged symmetric, from A = D / scale by dense passes.

    Every step is the one a report took before it worked in place: R is
    -(Q^T A Q) for the dense basis above, S = (R + R^T) / 2, the skew reads
    A - A^T, and n2 partitions (A + A^T) / 2 plus an infinite diagonal.
    """
    n = A.shape[0]
    Q = householder_basis(n)
    R = -(Q.T @ A @ Q)
    S = 0.5 * (R + R.T)
    spectrum = np.linalg.eigvalsh(S)[::-1]
    skew = float(0.5 * np.abs(A - A.T).max(axis=1).sum())
    off = 0.5 * (A + A.T) + np.diag(np.full(n, np.inf))
    coeffs = np.sort(1.0 - np.cos(2.0 * np.pi * np.arange(1, n) / n))
    return {
        "symmetric": float(np.linalg.norm(A - A.T)) <= tol * float(np.linalg.norm(A)),
        "psd": bool(spectrum[-1] >= -tol * float(np.linalg.norm(S))),
        "phi_symmetric": scale * (float(coeffs @ spectrum) - skew),
        "n2": scale * (float(0.5 * np.partition(off, 1, axis=1)[:, :2].sum()) - skew),
        "mu": [float(x) for x in scale * spectrum],
        "skew": skew,
        "R": R,
        "S": S,
        "K": 0.5 * (R - R.T),
    }


def parts_commute_two_step(S, K, scale: float, tol: float) -> bool:
    """The normality test of S + K in two steps: the O(n^2) early accept
    4 ||K||_F ||S||_F <= tol * scale, then the commutator test
    2 ||K S + (K S)^T||_F <= tol * scale.

    For antisymmetric K, ||K||_2 <= ||K||_F / sqrt(2), so the commutator
    norm is at most 2 sqrt(2) ||K||_F ||S||_F: whenever the first step
    accepts, the second would too, and the package keeps the second alone.
    """
    if 4.0 * float(np.linalg.norm(K)) * float(np.linalg.norm(S)) <= tol * scale:
        return True
    KS = K @ S
    return 2.0 * float(np.linalg.norm(KS + KS.T)) <= tol * scale


def min_pairing(coeffs, values) -> float:
    """Exhaustive minimum of sum coeffs[j] * values[sigma(j)].  n <= 8."""
    coeffs = np.asarray(coeffs, dtype=float)
    best = math.inf
    for sigma in itertools.permutations(range(len(coeffs))):
        best = min(best, float(coeffs @ np.asarray(values, dtype=float)[list(sigma)]))
    return best


def max_pairing(coeffs, values) -> float:
    return -min_pairing(coeffs, -np.asarray(values, dtype=float))


def restricted_complex_spectrum(R) -> np.ndarray:
    """Complex spectrum of -R restricted to the ones-orthogonal hyperplane.

    Builds the basis by QR (a different construction from the library) and
    uses the complex eigensolver directly.
    """
    R = np.asarray(R, dtype=float)
    n = R.shape[0]
    A = np.hstack([np.ones((n, 1)) / math.sqrt(n), np.eye(n)[:, : n - 1]])
    Q, _ = np.linalg.qr(A)
    B = Q[:, 1:]
    return np.linalg.eigvals(-B.T @ R @ B)


def phi_normal_exhaustive(R) -> float:
    """min over all bijections of sum Re((1 - w^j) varpi_sigma(j)).  n <= 8."""
    R = np.asarray(R, dtype=float)
    n = R.shape[0]
    varpi = restricted_complex_spectrum(R)
    w = 1.0 - np.exp(2j * np.pi * np.arange(1, n) / n)
    best = math.inf
    for sigma in itertools.permutations(range(n - 1)):
        best = min(best, float(np.real(w @ varpi[list(sigma)])))
    return best


def phi_general_exhaustive(R) -> float:
    """Split-form bound with each term minimised by brute enumeration."""
    R = np.asarray(R, dtype=float)
    n = R.shape[0]
    S = (R + R.T) / 2.0
    K = (R - R.T) / 2.0
    lam = _restricted_eigs_projector(S)
    # imaginary parts of the restricted antisymmetric spectrum, via -iK
    P = np.eye(n) - np.ones((n, n)) / n
    H = -1j * (-P @ K @ P)  # Hermitian; spectrum {0} u {+-theta}
    theta = np.linalg.eigvalsh(H)
    # drop one zero for the ones direction (K is centered by P, so the
    # extra null dimension is exactly that one)
    theta = np.delete(theta, int(np.argmin(np.abs(theta))))
    k = np.arange(1, n)
    c = 1.0 - np.cos(2.0 * np.pi * k / n)
    s = np.sin(2.0 * np.pi * k / n)
    return min_pairing(c, lam) + min_pairing(s, theta)


def directed_optimum(D) -> float:
    """Exact directed tour minimum by full enumeration.  n <= 8."""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    best = math.inf
    for p in itertools.permutations(range(1, n)):
        t = (0, *p)
        best = min(best, sum(D[t[i], t[(i + 1) % n]] for i in range(n)))
    return float(best)


def circulant_center_spectrum(first_row) -> np.ndarray:
    """Complex spectrum of the restricted operator of a circulant, by DFT.

    The DFT diagonalises every circulant; the ones vector is the k = 0
    mode, so restricting just drops that one eigenvalue.
    """
    lam = np.fft.fft(np.asarray(first_row, dtype=float))
    return -lam[1:]


def _splitmix64(seed: int):
    """The well-known 64-bit mixing generator, transcribed independently."""
    mask = (1 << 64) - 1
    x = seed & mask
    while True:
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def splitmix64_reference(seed: int, count: int) -> list[int]:
    return list(itertools.islice(_splitmix64(seed), count))


def _unit_floats(seed: int):
    return ((u >> 11) * 2.0**-53 for u in _splitmix64(seed))


# ---------------------------------------------------------------------------
# the random instance families, one Python draw per entry in the documented order


def random_euclidean(n: int, seed: int, dim: int = 2) -> tuple[np.ndarray, np.ndarray]:
    draws = _unit_floats(seed)
    pts = np.array([[next(draws) for _ in range(dim)] for _ in range(n)])
    diff = pts[:, None, :] - pts[None, :, :]
    D = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(D, 0.0)
    return D, pts


def squared_distances(points) -> np.ndarray:
    """The whole (n, n, dim) difference array, squared and summed in one step."""
    diff = points[:, None, :] - points[None, :, :]
    diff *= diff
    return diff.sum(axis=2)


def random_symmetric(n: int, seed: int) -> np.ndarray:
    draws = _unit_floats(seed)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = next(draws)
    return D


def random_asymmetric(n: int, seed: int) -> np.ndarray:
    draws = _unit_floats(seed)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = next(draws)
    return D


def random_circulant(n: int, seed: int) -> np.ndarray:
    draws = _unit_floats(seed)
    r = np.zeros(n)
    for k in range(1, n):
        r[k] = next(draws)
    idx = np.arange(n)
    return r[(idx[None, :] - idx[:, None]) % n]


# ---------------------------------------------------------------------------
# solvers, one subset or one pair at a time; each returns (order, length)
# with the length summed as solvers.tour_length sums it


def _closed_length(D: np.ndarray, order: list[int]) -> float:
    p = np.asarray(order)
    return float(D[p, np.roll(p, -1)].sum())


@functools.cache
def _permutation_rows(m: int) -> np.ndarray:
    """Every permutation of range(m) in itertools order, one int8 row each."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(m)))
    return np.fromiter(flat, dtype=np.int8, count=math.factorial(m) * m).reshape(-1, m)


def _chunk_lengths(D: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Lengths of the closed tours 0 -> tails[i, 0] -> ... -> tails[i, -1] -> 0."""
    total = D[0, tails[:, 0]] + D[tails[:, -1], 0]
    for k in range(tails.shape[1] - 1):
        total = total + D[tails[:, k], tails[:, k + 1]]
    return total


def brute_force(D, batch_cities: int = 9) -> tuple[list[int], float]:
    """Enumeration in numpy batches of whole tails: each batch tiles its
    leading cities beside every permutation of the other batch_cities, keeps
    the tails with first < last on exactly symmetric input and measures
    them edge by edge; the first minimum in lexicographic order wins."""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    symmetric = np.array_equal(D, D.T)
    cities = np.arange(1, n, dtype=np.int8)
    suffixes = _permutation_rows(min(n - 1, batch_cities))
    lead = n - 1 - suffixes.shape[1]
    best_len, best_tail = np.inf, None
    for head in itertools.permutations(range(1, n), lead):
        rest = np.setdiff1d(cities, head)
        tails = np.hstack([np.tile(np.array(head, dtype=np.int8), (len(suffixes), 1)), rest[suffixes]])
        if symmetric:
            tails = tails[tails[:, 0] < tails[:, -1]]
        if not len(tails):
            continue
        lengths = _chunk_lengths(D, tails)
        i = int(np.argmin(lengths))
        if lengths[i] < best_len:
            best_len, best_tail = lengths[i], tails[i]
    order = [0, *(int(c) for c in best_tail)]
    return order, _closed_length(D, order)


def held_karp(D) -> tuple[list[int], float]:
    """Held-Karp over the masks in increasing order; first index wins every tie."""
    D = np.asarray(D, dtype=float)
    m = D.shape[0] - 1
    Dsub = D[1:, 1:]
    dp = np.full((1 << m, m), np.inf)
    parent = np.full((1 << m, m), -1, dtype=np.int8)
    dp[[1 << j for j in range(m)], range(m)] = D[0, 1:]
    for mask in range(3, 1 << m):
        if mask & (mask - 1) == 0:
            continue  # single-city masks were seeded above
        members = [j for j in range(m) if mask >> j & 1]
        js = np.array(members)
        cand = dp[[mask ^ (1 << j) for j in members], :] + Dsub.T[js]
        k = np.argmin(cand, axis=1)
        dp[mask, js] = cand[np.arange(len(js)), k]
        parent[mask, js] = k
    mask = (1 << m) - 1
    j = int(np.argmin(dp[mask] + D[1:, 0]))
    tail = []
    while j >= 0:
        tail.append(j + 1)
        j, mask = int(parent[mask, j]), mask ^ (1 << j)
    order = [0, *reversed(tail)]
    return order, _closed_length(D, order)


def two_opt(D, seed: int = 0) -> tuple[list[int], float]:
    """Nearest neighbour from city 0 (ties by a SplitMix64 draw), then
    first-improvement 2-opt, one pair (i, j) at a time, taking a move that
    gains more than 1e-12 times the power of two math.frexp gives for max|D|.
    Both run on S = (D + D^T) / 2 (D itself when exactly symmetric); the
    length is measured on D."""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    least = math.ldexp(1e-12, math.frexp(float(np.abs(D).max()))[1])
    S = D if np.array_equal(D, D.T) else (D + D.T) / 2
    draws = _splitmix64(seed)
    order = [0]
    unvisited = set(range(1, n))
    while unvisited:
        cand = sorted(unvisited)
        dists = S[order[-1], cand]
        lo = dists.min()
        near = [c for c, d in zip(cand, dists) if d == lo]
        pick = near[0] if len(near) == 1 else near[next(draws) % len(near)]
        order.append(pick)
        unvisited.remove(pick)
    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            for j in range(i + 2, n + 1):
                a, b, c, d = order[i - 1], order[i], order[j - 1], order[j % n]
                if S[a, c] + S[b, d] - S[a, b] - S[c, d] < -least:
                    order[i:j] = reversed(order[i:j])
                    improved = True
    return order, _closed_length(D, order)


# ---------------------------------------------------------------------------
# graph quantities with closed forms on regular families


def hop_distances(g) -> np.ndarray:
    """All-pairs hop distances by Floyd-Warshall relaxation (inf when unreachable)."""
    A = np.asarray(g.adjacency)
    D = np.where(A == 1, 1.0, np.inf)
    np.fill_diagonal(D, 0.0)
    for k in range(len(D)):
        D = np.minimum(D, D[:, k : k + 1] + D[k])
    return D


def is_transmission_regular(g) -> bool:
    """True iff every vertex has the same total hop distance to all others."""
    t = hop_distances(g).sum(axis=1)
    return bool(np.all(t == t[0]))


def complement_phi_regular(g) -> float:
    """phi of the complement's adjacency for a regular graph: n plus the
    coefficient pairing against the adjacency spectrum of G with one copy
    of the valency removed."""
    A = np.asarray(g.adjacency, dtype=float)
    if np.ptp(A.sum(axis=1)) != 0:
        raise ValueError("requires a regular graph")
    n = len(A)
    lam = np.sort(np.linalg.eigvalsh(A))[::-1]
    return float(n + cosine_coefficients(n) @ lam[1:])


def distance_phi_transmission_regular(g) -> float:
    """phi of the hop-distance matrix for a transmission-regular graph: the
    coefficients (ascending) paired against the non-Perron distance
    eigenvalues (ascending), negated."""
    if not is_transmission_regular(g):
        raise ValueError("requires a transmission-regular graph")
    D = hop_distances(g)
    kappa = np.sort(np.linalg.eigvalsh(D))  # ascending; the Perron value is last
    return float(-(cosine_coefficients(len(D)) @ kappa[:-1]))


# ---------------------------------------------------------------------------
# TSPLIB distance rules, one pair at a time as the format's reference code
# computes them; each returns the full symmetric matrix


def _nint(x: float) -> int:
    return int(math.floor(x + 0.5))


def tsplib_euc_2d(coords) -> np.ndarray:
    n = len(coords)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dx = coords[i][0] - coords[j][0]
            dy = coords[i][1] - coords[j][1]
            D[i, j] = D[j, i] = _nint(math.sqrt(dx * dx + dy * dy))
    return D


def tsplib_att(coords) -> np.ndarray:
    n = len(coords)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dx = coords[i][0] - coords[j][0]
            dy = coords[i][1] - coords[j][1]
            r = math.sqrt((dx * dx + dy * dy) / 10.0)
            t = _nint(r)
            D[i, j] = D[j, i] = t + 1 if t < r else t
    return D


def tsplib_geo(coords) -> np.ndarray:
    """The TSPLIB95 FAQ's GEO code: `deg = (int) x`, PI = 3.141592."""
    PI = 3.141592
    RRR = 6378.388

    def radians(x: float) -> float:
        deg = int(x)
        minutes = x - deg
        return PI * (deg + 5.0 * minutes / 3.0) / 180.0

    latitude = [radians(float(x)) for x, _ in coords]
    longitude = [radians(float(y)) for _, y in coords]
    n = len(coords)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            q1 = math.cos(longitude[i] - longitude[j])
            q2 = math.cos(latitude[i] - latitude[j])
            q3 = math.cos(latitude[i] + latitude[j])
            D[i, j] = D[j, i] = int(RRR * math.acos(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3)) + 1.0)
    return D


def tsplib_geo_pairs(coords) -> np.ndarray:
    """The same GEO rule as tsplib_geo, over every pair i < j in one array step."""
    coords = np.asarray(coords, dtype=float)
    deg = np.trunc(coords)
    lat, lon = (3.141592 * (deg + 5.0 * (coords - deg) / 3.0) / 180.0).T
    n = len(coords)
    i, j = np.triu_indices(n, 1)
    q1 = np.cos(lon[i] - lon[j])
    q2 = np.cos(lat[i] - lat[j])
    q3 = np.cos(lat[i] + lat[j])
    D = np.zeros((n, n))
    D[i, j] = D[j, i] = np.trunc(6378.388 * np.arccos(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3)) + 1.0)
    return D


# ---------------------------------------------------------------------------
# stock graphs, group tables and Cayley graphs, one block or entry at a time


def disjoint_cliques(n: int) -> np.ndarray:
    """Adjacency of two disjoint n-cliques, one diagonal block at a time."""
    A = np.zeros((2 * n, 2 * n), dtype=np.int8)
    for at in (0, n):
        A[at : at + n, at : at + n] = 1
    np.fill_diagonal(A, 0)
    return A


def dihedral_table(m: int) -> np.ndarray:
    """Element e * m + k is s^e r^k; s r s = r^-1."""
    n = 2 * m
    M = np.zeros((n, n), dtype=np.int64)
    for g in range(n):
        e1, k1 = divmod(g, m)
        for h in range(n):
            e2, k2 = divmod(h, m)
            sign = -1 if e2 else 1
            M[g, h] = ((e1 ^ e2) * m) + (sign * k1 + k2) % m
    return M


def cyclic_table(n: int) -> np.ndarray:
    return np.array([[(a + b) % n for b in range(n)] for a in range(n)], dtype=np.int64)


def group_inverse(M, identity: int = 0) -> np.ndarray:
    """inv[a] is the one b with a o b = identity; ValueError naming the first a without one."""
    n = len(M)
    inv = np.full(n, -1, dtype=np.int64)
    for a in range(n):
        hits = np.flatnonzero(M[a] == identity)
        if len(hits) != 1:
            raise ValueError(f"element {a} has no unique inverse")
        inv[a] = hits[0]
    return inv


def cayley_adjacency(M, inverse, connection) -> np.ndarray:
    """A[g, h] = 1 iff g != h and h o g^-1 lies in the connection set."""
    S = set(int(s) for s in connection)
    n = len(M)
    A = np.zeros((n, n), dtype=np.int8)
    for g in range(n):
        for h in range(n):
            if g != h and int(M[h, inverse[g]]) in S:
                A[g, h] = 1
    return A


def validate_group(table) -> None:
    """ValueError unless the table is a group: closed, latin, with its identity,
    inverses and associativity, each checked element by element."""
    M, e, inverse = table.mult, table.identity, table.inverse
    n = len(M)
    elements = set(range(n))
    for a in range(n):
        if set(int(x) for x in M[a]) != elements or set(int(M[b, a]) for b in range(n)) != elements:
            raise ValueError(f"row or column {a} of the table is not a permutation")
        if M[e, a] != a or M[a, e] != a:
            raise ValueError("identity element does not act as identity")
        if M[a, inverse[a]] != e or M[inverse[a], a] != e:
            raise ValueError(f"inverse of {a} is wrong")
        for b, c in itertools.product(range(n), repeat=2):
            if M[M[a, b], c] != M[a, M[b, c]]:
                raise ValueError(f"({a} {b}) {c} != {a} ({b} {c})")
