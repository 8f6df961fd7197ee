"""Exact and heuristic tour solvers used to certify the bounds.

Two independent exact routes, branch and bound (brute_force) and dynamic
programming over subsets (held_karp), and a 2-opt local search (two_opt).
Each validates its matrix once and is deterministic; its docstring gives
its tie rule.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import check_distance_matrix
from .errors import InvalidTour, NotSymmetric, TooLarge
from .instances import _u64s
from .linalg import DEFAULT_TOL, _near_symmetric

BRUTE_FORCE_CAP = 12
HELD_KARP_CAP = 20

# cities permuted inside one numpy batch of tours: 9! = 362880 rows, about 3 MB as int8
_BATCH_CITIES = 9
# brute_force grows a part of its tree to at most this many children per array
# step, else in chunks (a single node's children always go in one step)
_PART_ROWS = 1 << 15
# nodes per level of the beam that finds brute_force's first limit
_BEAM = 64
# rows of 2-opt moves measured in one array step
_ROW_BLOCK = 32


@dataclass
class Tour:
    """A closed tour: visiting order (starting at city 0) and its length."""

    order: list[int]
    length: float


def tour_length(D, order) -> float:
    """Length of the closed tour visiting `order` and returning to its start.

    Raises InvalidTour unless order holds n integers, a permutation of
    0..n-1: no float, bool or string entry is cast to one.
    """
    A = check_distance_matrix(D).A
    n = A.shape[0]
    try:
        p = np.asarray(order)
    except ValueError:  # ragged entries, such as [0, [1], 2]: no shape is (n,)
        p = np.empty(0)
    if (
        p.shape != (n,)
        or p.dtype.kind not in "iu"
        # a bool among ints leaves no trace in an int array
        or (not isinstance(order, np.ndarray) and any(isinstance(x, (bool, np.bool_)) for x in order))
        or not np.array_equal(np.sort(p), np.arange(n))
    ):
        raise InvalidTour(f"order must be a permutation of the integers 0..{n - 1}")
    return _length(A, p)


def _length(A: np.ndarray, order) -> float:
    """tour_length on a validated matrix, for tours a solver built itself."""
    return float(A[order, np.concatenate((order[1:], order[:1]))].sum())


def _permutations(m: int) -> np.ndarray:
    """Every permutation of range(m), one per row of an int8 array, in lexicographic order."""
    P = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, m + 1):
        # rows led by `first`, then the permutations of the other k - 1 values
        # in order: P with every value >= first moved up by one
        Q = np.empty((k * len(P), k), dtype=np.int8)
        for first, block in enumerate(np.split(Q, k)):
            block[:, 0] = first
            np.add(P, P >= first, out=block[:, 1:])
        P = Q
    return P


@functools.cache
def _tree(m: int, rising: bool) -> tuple:
    """The prefix tree over which one batch of m cities is summed, read-only, shared per (m, rising).

    Row (last, t0, ..., t_{m-2}) of _permutations(m) is the tail t0, ..., t_{m-2}, last of a tour;
    rising takes the rows Q with t0 < last, one orientation each, built a (last, t0) block at a time.
    Level k is Q[::(m-k-2)!, :k+2].  Its roots give `last` and `first` (t0); codes holds levels
    1..m-2's edges t_{k-1} -> t_k, then t_{m-2} -> last, as a * m + b <= 80 (int8) into the batch's
    flattened m x m block; rows with last = c start at starts[c].  Q itself is not kept: row r
    reads back as last and first at r // (m-2)!, and t_k as b in codes[k-1][r // (m-k-2)!].
    """
    if rising:  # blocks [a, b, the other cities permuted] for b < a, in row order
        pairs, P = [(a, b) for a in range(m) for b in range(a)], _permutations(m - 2)
        Q = np.empty((len(pairs) * len(P), m), dtype=np.int8)
        for (a, b), block in zip(pairs, np.split(Q, len(pairs))):
            block[:, :2] = a, b
            block[:, 2:] = np.delete(np.arange(m, dtype=np.int8), [b, a])[P]
    else:
        Q = _permutations(m)
    strides = (math.factorial(m - k - 2) for k in range(1, m - 1))
    codes = [Q[::f, k] * np.int8(m) + Q[::f, k + 1] for k, f in enumerate(strides, 1)]
    codes += [Q[:, -1] * np.int8(m) + Q[:, 0]] if m > 1 else []
    roots = Q[:: math.factorial(max(m - 2, 0))]
    last, first = roots[:, 0].copy(), roots[:, min(m - 1, 1)].copy()  # no view keeps Q alive
    for a in (last, first, *codes):
        a.flags.writeable = False
    starts = (np.searchsorted(last, np.arange(m + 1)) * len(Q) // len(last)).tolist()
    return last, first, tuple(codes), tuple(starts)


def _cheapest(total: np.ndarray, k: int) -> np.ndarray:
    """The positions of the k smallest entries of total, ascending (all if there are no more)."""
    return np.sort(np.argpartition(total, k)[:k]) if len(total) > k else np.arange(len(total))


def brute_force(D) -> Tour:
    """Exact minimum over every tour, by branch and bound.  Raises TooLarge above 12 cities.

    City 0 comes first; on exactly symmetric input each tour is taken in one direction, the
    one with the smaller second city.  Among tours of exactly minimal length the
    lexicographically smallest order wins.  Every length is summed in one order, the closing
    pair, then left to right: each batch fixes the leading cities and grows the last
    m = min(n - 1, 9) over _tree's prefix tree, a node's sum its parent's plus one edge.
    Unless an entry is negative, a node whose sum exceeds the best tour's so far is cut with
    its subtree (Little, Murty, Sweeney and Karel, 1963); ties are kept.  A leaf's cities are
    read back along the tree's codes: the winner's, and a tie's where the order decides.
    """
    A = check_distance_matrix(D).A
    n = A.shape[0]
    if n > BRUTE_FORCE_CAP:
        raise TooLarge(f"brute force is capped at {BRUTE_FORCE_CAP} cities, got {n}")
    symmetric = np.array_equal(A, A.T)
    m = min(n - 1, _BATCH_CITIES)
    last, first, codes, starts = _tree(m, symmetric and m == n - 1)
    # children per node at each level: the roots, then after each code
    fan = [len(b) // len(a) for a, b in itertools.pairwise((last, *codes))]
    per_root = math.factorial(max(m - 2, 0))  # leaves under a root
    cut = A.min() >= 0  # the diagonal is zero: no entry is negative

    def grow(level, nodes, total, select):
        # the children of nodes that select keeps (their positions, None for all), ascending;
        # every code is in range, so "clip" alters none and skips the bounds check
        r = fan[level]
        sums = block.take(codes[level].reshape(-1, r).take(nodes, axis=0), mode="clip")
        at = select(total := (total[:, None] + sums).ravel())
        if at is None:
            kids, base = np.empty(sums.shape, dtype=nodes.dtype), nodes * r
            for j in range(r):  # a column at a time: numpy broadcasts slowly over a few columns
                np.add(base, j, out=kids[:, j])
            return kids.ravel(), total
        parent = at // r  # at = parent * r + child
        return (nodes.take(parent) - parent) * r + at, total.take(at)

    def bound(total):  # the cut: every child but those above limit
        keep = total <= limit
        return None if keep.all() else np.flatnonzero(keep)

    def spell(r):  # leaf r's cities t0, ..., last as indices into rest: t_k is b in its level-k code a * m + b
        ts = [codes[k - 1][r // math.factorial(m - k - 2)] % m for k in range(1, m - 1)]
        return [first[r // per_root]] * (m > 1) + ts + [last[r // per_root]]

    best_len, best, limit = math.inf, None, math.inf
    for head in itertools.permutations(range(1, n), n - 1 - m):
        rest = np.array([c for c in range(1, n) if c not in head])
        root = A[rest, 0][last]
        for u, v in itertools.pairwise((0, *head)):
            root += A[u, v]
        root += A[head[-1] if head else 0, rest][first]
        block = A[np.ix_(rest, rest)].ravel()
        # one orientation, head[0] < rest[last]: the rows from the first last past head[0]
        lo = starts[int(np.searchsorted(rest, head[0])) if symmetric and head else 0] // per_root
        # parts of the tree still to sum: a level, some of its nodes (ascending) and their sums
        parts = [(0, np.arange(lo, len(last)), root[lo:])]
        if cut and limit == math.inf:
            # the first batch sends a beam to the leaves first: its best tour's sum is the first limit
            nodes, total = parts[0][1:]
            for level in range(len(codes)):
                nodes, total = grow(level, nodes, total, lambda t: _cheapest(t, _BEAM))
            limit = float(total.min(initial=math.inf))
        while parts:
            level, nodes, total = parts.pop()
            while level < len(codes) and len(nodes):
                if len(nodes) > 1 and len(nodes) * fan[level] > _PART_ROWS:
                    # too many children for one step: the part goes on in chunks, in order
                    k = max(1, _PART_ROWS // fan[level])
                    parts += [(level, nodes[i : i + k], total[i : i + k]) for i in reversed(range(0, len(nodes), k))]
                    break
                nodes, total = grow(level, nodes, total, bound)
                level += 1
            else:
                # the rows of one last are in tour order: the first of its
                # shortest is the lexicographically smallest; a tie with an
                # earlier batch loses, as a later head spells a larger tour
                if len(total) and (low := total.min()) <= best_len:
                    rows = nodes[total == low]
                    for u, v in itertools.pairwise(np.searchsorted(rows, starts).tolist()):
                        if u < v and (low < best_len or (head == best[0] and spell(int(rows[u])) < spell(best[1]))):
                            best_len, best = low, (head, int(rows[u]), rest)  # rows[u] is the first of its last
                if cut:
                    limit = min(limit, float(best_len))

    tour = [0, *best[0], *best[2][spell(best[1])].tolist()]
    return Tour(order=tour, length=_length(A, tour))


def held_karp(D) -> Tour:
    """Exact minimum by dynamic programming over subsets.  Raises TooLarge above 20 cities.

    Held and Karp (1962): O(2^n n^2) time, O(2^n n) memory for the int8 table of best
    predecessors.  Ties resolve to the smallest city index at every argmin, which need not be
    the order brute_force picks among equals.
    """
    A = check_distance_matrix(D).A
    n = A.shape[0]
    if n > HELD_KARP_CAP:
        raise TooLarge(f"held_karp is capped at {HELD_KARP_CAP} cities, got {n}")
    m = n - 1
    Dsub = A[1:, 1:]  # distances among cities 1..n-1
    parent = np.full((1 << m, m), -1, dtype=np.int8)

    sizes = np.zeros(1 << m, dtype=np.int8)  # popcount: setting bit b adds one
    for b in range(m):
        sizes[1 << b : 2 << b] = sizes[: 1 << b] + 1
    # two layers of the cost table: prev holds layer k - 1 while cur fills layer k, by rank[mask]
    rank = np.zeros(1 << m, dtype=np.int32)
    rank[1 << np.arange(m)] = np.arange(m)
    prev = np.where(np.eye(m, dtype=bool), A[0, 1:], np.inf)
    for k in range(2, m + 1):
        layer = np.flatnonzero(sizes == k)  # the masks of size k, ascending
        rank[layer] = np.arange(len(layer))
        cur = np.full((len(layer), m), np.inf)
        for j in range(m):
            rows = np.flatnonzero((layer >> j) & 1)
            ms = layer[rows]
            # cand[r, i]: reach city i through ms[r] without j, then step to j
            cand = prev[rank[ms ^ (1 << j)]] + Dsub[:, j]
            best = np.argmin(cand, axis=1)
            cur[rows, j] = cand[np.arange(len(ms)), best]
            parent[ms, j] = best
        prev = cur

    closing = prev[0] + A[1:, 0]
    j = int(np.argmin(closing))

    tail = []
    mask = (1 << m) - 1
    while j >= 0:
        tail.append(j + 1)
        j2 = int(parent[mask, j])
        mask ^= 1 << j
        j = j2
    order = [0, *reversed(tail)]
    return Tour(order=order, length=_length(A, order))


def _nearest_neighbour(A: np.ndarray, draws) -> np.ndarray:
    """The greedy start from city 0: among the nearest unvisited cities (ascending), the draw d
    from the iterator draws picks the (d mod count)-th; a unique nearest city consumes no draw."""
    n = A.shape[0]
    order = [0]
    W = A.copy()
    W[:, 0] = np.inf
    for _ in range(1, n):
        row = W[order[-1]]
        near = (row == np.minimum.reduce(row)).nonzero()[0]  # ascending city index
        pick = int(near[0] if len(near) == 1 else near[next(draws) % len(near)])
        order.append(pick)
        W[:, pick] = np.inf
    return np.array(order)


def _first_move(B: np.ndarray, i: int, j: int, upper: np.ndarray, least: float) -> tuple[int, int] | None:
    """The first improving 2-opt move from (i, j) on, in row-major order, or None.

    B[p, q] = A[order[p], order[q % n]], the tour-order matrix plus its closing column.  Move
    (i, j), 1 <= i <= n - 2 and i + 2 <= j <= n, reverses order[i:j]; it improves when its
    delta B[i - 1, j - 1] + B[i, j] - B[i - 1, i] - B[j - 1, j] is below -least.  A scan from
    a row's start measures _ROW_BLOCK rows per array step, upper[r, k] masking row i + r to
    j >= i + r + 2; one resuming inside row i measures that row alone.
    """
    n = B.shape[0]
    sup = np.diagonal(B, 1)
    while i < n - 1:
        r = min(i + _ROW_BLOCK, n - 1) if j == i + 2 else i + 1
        delta = B[i - 1 : r - 1, j - 1 : n] + B[i:r, j : n + 1]
        delta -= sup[i - 1 : r - 1, None]
        delta -= sup[j - 1 : n]
        hit = (delta < -least) & upper[: r - i, : n + 1 - j]
        if hit.any():
            k, m = divmod(int(np.argmax(hit)), n + 1 - j)  # the first hit in row-major order
            return i + k, j + m
        i, j = r, r + 2
    return None


def two_opt(D, seed: int = 0) -> Tour:
    """2-opt local search from a nearest-neighbour start.  Raises NotSymmetric unless D is
    symmetric at the default tolerance, as bounds.Compression judges it.

    The start's exact ties take the words of instances._u64s(seed) in order
    (see _nearest_neighbour).  The search applies the first improving
    reversal (see _first_move) until none shortens the tour by more than
    1e-12 times the power of two math.frexp gives for max|D|, so D and 2^k D
    take the same moves.  It runs on S = (D + D^T) / 2, D itself when D is
    exactly symmetric, where every move shortens the tour, so it ends; the
    length is measured on D.
    """
    A, top = check_distance_matrix(D)
    exact = np.array_equal(A, A.T)
    if not (exact or _near_symmetric(A, top, DEFAULT_TOL)):
        raise NotSymmetric("2-opt reversals only preserve tour structure for symmetric distances")
    n = A.shape[0]
    S = A if exact else 0.5 * (A + A.T)
    order = _nearest_neighbour(S, iter(_u64s(seed, n - 1).tolist()))
    least = math.ldexp(1e-12, math.frexp(top)[1])

    B = S[np.ix_(order, [*order, order[0]])]
    upper = np.triu(np.ones((_ROW_BLOCK, n), dtype=bool))
    improved = True
    while improved:
        improved, i, j = False, 1, 3
        # a reversal leaves every position from j on alone, so the scan
        # resumes at (i, j + 1)
        while move := _first_move(B, i, j, upper, least):
            i, j = move
            order[i:j] = order[i:j][::-1].copy()
            B[i:j] = B[i:j][::-1].copy()
            B[:, i:j] = B[:, i:j][:, ::-1].copy()
            improved, j = True, j + 1
    order = [int(x) for x in order]
    return Tour(order=order, length=_length(A, order))
