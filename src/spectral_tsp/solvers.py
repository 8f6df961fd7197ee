"""Exact and heuristic tour solvers used to certify the bounds.

Two independent exact routes (exhaustive enumeration and dynamic
programming over subsets) plus a 2-opt local search for sizes where
exactness is out of reach.  Everything is deterministic: enumeration
breaks ties toward the lexicographically smallest city order, the DP by
first index, and the heuristic draws any tie-breaking from an explicit
seed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .bounds import Compression, check_distance_matrix
from .errors import InvalidTour, NotSymmetric, TooLarge
from .instances import SplitMix64

BRUTE_FORCE_CAP = 12
HELD_KARP_CAP = 20

# cities permuted inside one numpy batch of tours: 9! = 362880 rows, about 3 MB as int8
_BATCH_CITIES = 9
# rows of 2-opt moves measured in one array step
_ROW_BLOCK = 16


@dataclass
class Tour:
    """A closed tour: visiting order (starting at city 0) and its length."""

    order: list[int]
    length: float


def tour_length(D, order) -> float:
    """Length of the closed tour visiting `order` and returning to its start."""
    A = check_distance_matrix(D)
    n = A.shape[0]
    p = np.asarray(order, dtype=int)
    if p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n)):
        raise InvalidTour(f"order must be a permutation of 0..{n - 1}")
    return float(A[p, np.roll(p, -1)].sum())


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
def _suffixes(m: int, rising: bool) -> tuple[np.ndarray, np.ndarray]:
    """The permutations of range(m) as the arrays a batch of tours reads.

    Returns P, the rows of _permutations(m) (with rising, only those whose
    first value is below their last: one orientation of each tour), and
    codes[k, r] = P[r, k] * m + P[r, k + 1], which index the flattened
    m x m block of distances among the batch's cities (at most 80, so
    int8).  Both are read-only and shared by every call with the same m.
    """
    P = _permutations(m)
    # column-major, so that each column a batch reads is contiguous
    P = np.asfortranarray(P[P[:, 0] < P[:, -1]] if rising else P)
    codes = np.empty((m - 1, len(P)), dtype=np.int8)
    for k in range(m - 1):
        np.add(P[:, k] * np.int8(m), P[:, k + 1], out=codes[k])
    P.flags.writeable = codes.flags.writeable = False
    return P, codes


def brute_force(D) -> Tour:
    """Exact minimum by enumerating every tour.  Hard cap at 12 cities.

    City 0 is pinned first so each cyclic order appears once; for exactly
    symmetric distances each direction of traversal is enumerated once as
    well (the orientation with the smaller second city is kept), since any
    asymmetry can make one direction the shorter.  Among tours of exactly
    minimal length the lexicographically smallest order wins, which makes
    the result reproducible bit for bit.  Tours are measured in numpy
    batches: each batch fixes the leading cities and permutes the last
    m = min(n - 1, 9), in lexicographic order, read from the permutation
    rows of _suffixes, built once per m.  Each length is summed in one
    order, the closing pair A[0, t0] + A[t_last, 0] and then every edge
    from left to right.
    """
    A = check_distance_matrix(D)
    n = A.shape[0]
    if n > BRUTE_FORCE_CAP:
        raise TooLarge(f"brute force is capped at {BRUTE_FORCE_CAP} cities, got {n}")
    symmetric = np.array_equal(A, A.T)
    m = min(n - 1, _BATCH_CITIES)
    lead = n - 1 - m
    # with no leading cities, keeping the tails whose first city is below
    # their last is keeping the rows whose first position is below their last
    P, codes = _suffixes(m, symmetric and not lead)
    first, last = P[:, 0], P[:, -1]
    total, edge = np.empty(len(P)), np.empty(len(P))

    best_len, best_tour = np.inf, None
    for head in itertools.permutations(range(1, n), lead):
        rest = np.setdiff1d(np.arange(1, n), head)
        block = A[np.ix_(rest, rest)].ravel()
        # every index is in range, so "clip" alters none; unlike "raise", it
        # lets take write into out without a buffer
        np.take(A[rest, 0], last, out=total, mode="clip")
        if head:
            total += A[0, head[0]]
            for u, v in itertools.pairwise(head):
                total += A[u, v]
        np.take(A[head[-1] if head else 0, rest], first, out=edge, mode="clip")
        total += edge
        for code in codes:
            np.take(block, code, out=edge, mode="clip")
            total += edge
        lengths, rows = total, None
        if symmetric and head:
            # one orientation: head[0] < rest[last], that is, last at or past
            # the number of cities in rest below head[0]
            rows = np.flatnonzero(last >= np.searchsorted(rest, head[0]))
            lengths = total[rows]
        if not len(lengths):
            continue
        # batches come in lexicographic order and argmin takes the first
        # minimum, so exact ties resolve to the lexicographically smallest order
        i = int(np.argmin(lengths))
        if lengths[i] < best_len:
            r = i if rows is None else int(rows[i])
            best_len, best_tour = lengths[i], [0, *head, *(int(c) for c in rest[P[r]])]

    return Tour(order=best_tour, length=tour_length(A, best_tour))


def held_karp(D) -> Tour:
    """Exact minimum by dynamic programming over subsets.  Cap at 20 cities.

    Standard table: for every subset of cities 1..n-1 and every last city j
    in it, the cheapest path from 0 through the subset ending at j.  The
    table is filled layer by layer over subset size, as Held and Karp (1962)
    lay it out: for each last city j, one array step extends every subset
    of the previous layer that lacks j.  Runs in O(2^n n^2) time; only two
    layers of costs are held, and O(2^n n) memory is the int8 table of best
    predecessors.  Ties resolve to the smallest city index at every argmin,
    so the order returned is deterministic (though not necessarily the same
    one brute_force picks among equals).
    """
    A = check_distance_matrix(D)
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
    return Tour(order=order, length=tour_length(A, order))


def _nearest_neighbour(A: np.ndarray, rng: SplitMix64) -> np.ndarray:
    n = A.shape[0]
    order = np.zeros(n, dtype=int)
    free = np.ones(n, dtype=bool)
    free[0] = False
    for step in range(1, n):
        row = np.where(free, A[order[step - 1]], np.inf)
        near = np.flatnonzero(row == row.min())  # ascending city index
        pick = near[0] if len(near) == 1 else near[rng.next_u64() % len(near)]
        order[step] = pick
        free[pick] = False
    return order


def _first_move(A: np.ndarray, order: np.ndarray, i: int, j: int, upper: np.ndarray) -> tuple[int, int] | None:
    """The first improving 2-opt move from (i, j) on, in row-major order, or None.

    Move (i, j), 1 <= i <= n - 2 and i + 2 <= j <= n, reverses order[i:j]
    and replaces the edges (a, b) = (order[i - 1], order[i]) and
    (c, d) = (order[j - 1], order[j % n]); it improves when it shortens the
    tour by more than 1e-12.  A scan from the start of a row measures
    _ROW_BLOCK rows in one array step, upper[r, k] masking row i + r to its
    own j >= i + r + 2; a scan resuming inside row i measures that row alone.
    """
    n = len(order)
    while i < n - 1:
        rows = np.arange(i, min(i + _ROW_BLOCK, n - 1) if j == i + 2 else i + 1)
        a, b = order[rows - 1], order[rows]
        c, d = order[j - 1 : n], order[np.arange(j, n + 1) % n]
        delta = A[a[:, None], c] + A[b[:, None], d] - A[a, b][:, None] - A[c, d]
        hit = (delta < -1e-12) & upper[: len(rows), : len(c)]
        if hit.any():
            r, k = divmod(int(np.argmax(hit)), len(c))  # the first hit in row-major order
            return i + r, j + k
        i += len(rows)
        j = i + 2
    return None


def two_opt(D, seed: int = 0) -> Tour:
    """2-opt local search from a nearest-neighbour start (symmetric only).

    Starts at city 0, greedily visits the nearest unvisited city (exact
    distance ties are broken by a SplitMix64 draw from `seed`), then applies
    first-improvement segment reversals until no reversal shortens the tour
    by more than 1e-12.  The result is a local optimum: never longer than
    its greedy start, and of course never shorter than the true minimum.
    Each sweep applies the first improving move from where the last one
    was found on, until a sweep finds none.
    Raises NotSymmetric unless D is symmetric at the default tolerance,
    judged as bounds.Compression judges it, at any magnitude.
    """
    A = check_distance_matrix(D)
    if not Compression(A).symmetric:
        raise NotSymmetric("2-opt reversals only preserve tour structure for symmetric distances")
    n = A.shape[0]
    order = _nearest_neighbour(A, SplitMix64(seed))

    upper = np.triu(np.ones((_ROW_BLOCK, n), dtype=bool))
    improved = True
    while improved:
        improved, i, j = False, 1, 3
        # a reversal leaves every position from j on alone, so the scan
        # resumes at (i, j + 1)
        while move := _first_move(A, order, i, j, upper):
            i, j = move
            order[i:j] = order[i:j][::-1].copy()
            improved, j = True, j + 1
    order = [int(x) for x in order]
    return Tour(order=order, length=tour_length(A, order))
