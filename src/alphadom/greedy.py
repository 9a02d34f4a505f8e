"""Deterministic greedy construction of a low-weight coverage set.

Three vertex-ordering strategies are supported.  Each ranks a vertex by a
ratio of integers; two vertices tie only when their ratios are
mathematically equal, and ties always fall back to the vertex index.
:func:`sort_key` is the exact definition of that order and :func:`rank_order`
computes it for all vertices at once.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from fractions import Fraction

import numpy as np

from .graph import DominatingSet, DominationInstance, WeightedGraph


class Strategy(Enum):
    """How candidate vertices are ranked when coverage must grow.

    S1 ranks by plain vertex weight; S2 by weight over closed degree,
    balancing weight against how much coverage the vertex brings; S3 by
    weight over the summed weight of the closed neighborhood, preferring
    light vertices sitting in heavy surroundings.
    """

    S1 = "s1"
    S2 = "s2"
    S3 = "s3"


SortKey = tuple[Fraction, int]


def sort_key(strategy: Strategy, g: WeightedGraph, v: int) -> SortKey:
    """Ranking key of v under the strategy; lower is picked first."""
    w = g.weights[v]
    if strategy is Strategy.S1:
        value = Fraction(w)
    elif strategy is Strategy.S2:
        value = Fraction(w, g.degree(v) + 1)
    else:
        nbhd = w + sum(g.weights[u] for u in g.adjacency[v])
        value = Fraction(w, nbhd)  # nbhd >= w >= 1, never zero
    return (value, v)


def _denominators(strategy: Strategy, g: WeightedGraph) -> list[int]:
    """Denominator of every vertex's ranking value; the numerator is its weight."""
    w = g.weights
    if strategy is Strategy.S1:
        return [1] * g.n
    if strategy is Strategy.S2:
        return [len(row) + 1 for row in g.adjacency]
    return [wv + sum(map(w.__getitem__, row)) for wv, row in zip(w, g.adjacency)]


def _approx(num: int, den: int) -> float:
    """num / den correctly rounded; a ratio past the float range reads inf."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def rank_order(strategy: Strategy, g: WeightedGraph) -> list[int]:
    """Position of every vertex in the order of :func:`sort_key`.

    Ratios are first sorted by their correctly rounded floats, with the
    vertex index breaking ties.  Rounding is monotone, so unequal floats are
    already in exact order; only a run of equal floats can hold distinct
    ratios (close values, or weights past 2**53).  Adjacent pairs in such
    runs are compared exactly by cross-multiplying, and a run that holds
    two distinct ratios is re-sorted by :func:`sort_key`.
    """
    nums, dens = g.weights, _denominators(strategy, g)
    approx = np.fromiter(map(_approx, nums, dens), dtype=np.float64, count=g.n)
    by_float = np.argsort(approx, kind="stable")
    ranked = approx[by_float]
    order = by_float.tolist()
    mixed = [i for i in np.flatnonzero(ranked[1:] == ranked[:-1]).tolist()
             if nums[order[i]] * dens[order[i + 1]] != nums[order[i + 1]] * dens[order[i]]]
    if mixed:
        runs = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), g.n]
        for r in {bisect_right(runs, i) - 1 for i in mixed}:
            lo, hi = runs[r], runs[r + 1]
            order[lo:hi] = sorted(order[lo:hi], key=lambda v: sort_key(strategy, g, v))
    rank = [0] * g.n
    for pos, v in enumerate(order):
        rank[v] = pos
    return rank


def greedy_dominate(inst: DominationInstance, strategy: Strategy) -> DominatingSet:
    """Grow a feasible coverage set by fixing violated vertices in index order.

    For each vertex v whose closed neighborhood holds fewer members than its
    demand, the missing count is filled with the best-ranked non-members of
    N[v].  Coverage only ever grows, so one ascending scan settles every
    vertex; the result is always feasible.
    """
    g = inst.graph
    n = g.n
    rank = rank_order(strategy, g)

    in_set = bytearray(n)
    cover = [0] * n
    members: list[int] = []

    for v in range(n):
        need = inst.demands[v] - cover[v]
        if need <= 0:
            continue
        candidates = [u for u in g.adjacency[v] if not in_set[u]]
        if not in_set[v]:
            candidates.append(v)
        candidates.sort(key=rank.__getitem__)
        for u in candidates[:need]:
            in_set[u] = 1
            members.append(u)
            cover[u] += 1
            for t in g.adjacency[u]:
                cover[t] += 1

    return DominatingSet.from_members(g, members)
