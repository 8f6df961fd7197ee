"""Exact and heuristic tour solvers used to certify the bounds.

Two independent exact routes (exhaustive enumeration and dynamic
programming over subsets) plus a 2-opt local search for sizes where
exactness is out of reach.  Everything is deterministic: enumeration
breaks ties toward the lexicographically smallest city order, the DP by
first index, and the heuristic draws any tie-breaking from an explicit
seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bounds import check_distance_matrix
from .errors import InvalidTour, NotSymmetric, TooLarge
from .instances import SplitMix64
from .linalg import is_symmetric

BRUTE_FORCE_CAP = 12
HELD_KARP_CAP = 20

# cities permuted inside one numpy batch of tours: 9! = 362880 rows, about 3 MB as int8
_BATCH_CITIES = 9


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


def _chunk_lengths(A: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Lengths of the closed tours 0 -> tails[i, 0] -> ... -> tails[i, -1] -> 0."""
    total = A[0, tails[:, 0]] + A[tails[:, -1], 0]
    for k in range(tails.shape[1] - 1):
        total = total + A[tails[:, k], tails[:, k + 1]]
    return total


def _permutations(m: int) -> np.ndarray:
    """Every permutation of range(m), one per row of an int8 array, in lexicographic order."""
    P = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, m + 1):
        # rows led by `first`, then the permutations of the other k - 1 values
        # in order: P with every value >= first moved up by one
        P = np.vstack([np.column_stack([np.full(len(P), first, np.int8), P + (P >= first)]) for first in range(k)])
    return P


def brute_force(D) -> Tour:
    """Exact minimum by enumerating every tour.  Hard cap at 12 cities.

    City 0 is pinned first so each cyclic order appears once; for exactly
    symmetric distances each direction of traversal is enumerated once as
    well (the orientation with the smaller second city is kept), since any
    asymmetry can make one direction the shorter.  Among tours of exactly
    minimal length the lexicographically smallest order wins, which makes
    the result reproducible bit for bit.  Tours are built and measured
    in numpy batches: each batch fixes the leading cities and permutes the
    last nine, in lexicographic order.
    """
    A = check_distance_matrix(D)
    n = A.shape[0]
    if n > BRUTE_FORCE_CAP:
        raise TooLarge(f"brute force is capped at {BRUTE_FORCE_CAP} cities, got {n}")
    symmetric = np.array_equal(A, A.T)

    cities = np.arange(1, n, dtype=np.int8)
    suffixes = _permutations(min(n - 1, _BATCH_CITIES))
    lead = n - 1 - suffixes.shape[1]
    best_len = np.inf
    best_tail: np.ndarray | None = None
    for head in itertools.permutations(range(1, n), lead):
        rest = np.setdiff1d(cities, head)
        tails = np.hstack([np.tile(np.array(head, dtype=np.int8), (len(suffixes), 1)), rest[suffixes]])
        if symmetric:
            tails = tails[tails[:, 0] < tails[:, -1]]
        if not len(tails):
            continue
        lengths = _chunk_lengths(A, tails)
        # batches come in lexicographic order and argmin takes the first
        # minimum, so exact ties resolve to the lexicographically smallest order
        i = int(np.argmin(lengths))
        if lengths[i] < best_len:
            best_len, best_tail = lengths[i], tails[i]

    order = [0, *(int(c) for c in best_tail)]
    return Tour(order=order, length=tour_length(A, order))


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


def two_opt(D, seed: int = 0) -> Tour:
    """2-opt local search from a nearest-neighbour start (symmetric only).

    Starts at city 0, greedily visits the nearest unvisited city (exact
    distance ties are broken by a SplitMix64 draw from `seed`), then applies
    first-improvement segment reversals until no reversal shortens the tour
    by more than 1e-12.  The result is a local optimum: never longer than
    its greedy start, and of course never shorter than the true minimum.
    Raises NotSymmetric unless D is symmetric at the default tolerance.
    """
    A = check_distance_matrix(D)
    if not is_symmetric(A):
        raise NotSymmetric("2-opt reversals only preserve tour structure for symmetric distances")
    n = A.shape[0]
    order = _nearest_neighbour(A, SplitMix64(seed))

    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            a, b = order[i - 1], order[i]
            # the move (i, j) reverses order[i:j]; edge (c, d) is (order[j - 1], order[j % n])
            # for j = i + 2 .. n.  A reversal leaves every position from j on
            # alone, so after one the scan resumes at j + 1 with only b changed.
            c = order[i + 1 :]
            d = np.append(order[i + 2 :], order[0])
            ac, cd = A[a, c], A[c, d]
            start = 0
            while start < len(d):
                delta = ac[start:] + A[b, d[start:]] - A[a, b] - cd[start:]
                hits = np.flatnonzero(delta < -1e-12)
                if not len(hits):
                    break
                j = i + 2 + start + int(hits[0])
                order[i:j] = order[i:j][::-1].copy()
                improved = True
                b = order[i]
                start = j - i - 1
    order = [int(x) for x in order]
    return Tour(order=order, length=tour_length(A, order))
