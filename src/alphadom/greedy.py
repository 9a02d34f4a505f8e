"""Deterministic greedy construction of a low-weight coverage set.

Three vertex-ordering strategies are supported.  Each ranks a vertex by a
ratio of integers; two vertices tie only when their ratios are
mathematically equal, and ties always fall back to the vertex index.
:func:`sort_key` is the exact definition of that order and :func:`rank_order`
computes it for all vertices at once.  One scan, :func:`_fill`, then tops a
set up to feasibility in that order: from the empty set for the greedy
strategies, and from a rounded set for :func:`alphadom.rounding.repair`.
The scan runs in C (:mod:`alphadom._native`) when that can be built, and
in Python (:func:`_fill_py`) otherwise, with the same picks.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from fractions import Fraction

import numpy as np

from . import _native
from .graph import (_INT64_LIMIT, DominatingSet, DominationInstance, WeightedGraph,
                    _exact_weights, _frozen)


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
        nbhd = w + sum(g.weights[u] for u in g.neighbors(v))
        value = Fraction(w, nbhd)  # nbhd >= w >= 1, never zero
    return (value, v)


_FLOAT_EXACT = 2**53  # every int below this is a float, and int / int is correctly rounded


def _ratios(strategy: Strategy, g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(numerators, denominators) of every vertex's ranking value: int64
    arrays when numpy computes them and their cross products exactly (every
    weight and denominator below 2**53, every product of a weight and a
    denominator below 2**63), arrays of Python ints as objects otherwise."""
    w = _exact_weights(g)
    if strategy is Strategy.S1:
        dens = np.ones(g.n, dtype=np.int64)
    elif strategy is Strategy.S2:
        dens = np.diff(g.indptr) + 1
    else:
        # no sum of distinct weights wraps in w's dtype, so the differences of
        # the prefix sums are exact even where the prefix sums themselves wrap
        sums = np.zeros(len(g.indices) + 1, dtype=w.dtype)
        np.cumsum(w[g.indices], out=sums[1:])
        dens = w + sums[g.indptr[1:]] - sums[g.indptr[:-1]]
    top, den_top = int(w.max(initial=0)), int(dens.max(initial=0))
    fits = max(top, den_top) < _FLOAT_EXACT and top * den_top < _INT64_LIMIT
    dtype = np.int64 if fits else object
    return w.astype(dtype, copy=False), dens.astype(dtype, copy=False)


def _weight_keys(g: WeightedGraph) -> np.ndarray | None:
    """w * n + v for every vertex v of weight w, as int64, when no key can
    pass int64: (largest weight + 1) * n below 2**63.  None otherwise.  The
    keys are distinct and ascend in the S1 order of :func:`sort_key`."""
    w = _exact_weights(g)
    if w.dtype == object or (int(w.max()) + 1) * g.n >= _INT64_LIMIT:
        return None
    return w * g.n + np.arange(g.n)


def _approx(num: int, den: int) -> float:
    """num / den correctly rounded; a ratio past the float range reads inf."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def rank_order(strategy: Strategy, g: WeightedGraph) -> np.ndarray:
    """Position of every vertex in the order of :func:`sort_key`, as a
    read-only int64 array.

    Computed once per graph and strategy and kept on the graph, so every
    greedy call and every repair on one graph share it.
    """
    ranks = g._ranks.get(strategy)
    if ranks is None:
        ranks = g._ranks[strategy] = _frozen(_rank_order(strategy, g))
    return ranks


def _rank_order(strategy: Strategy, g: WeightedGraph) -> np.ndarray:
    """The ranks of :func:`rank_order`, computed.

    Under S1 the order is that of the integer keys of :func:`_weight_keys`,
    sorted once, whenever they fit int64.  Otherwise, and under S2 and S3,
    the ratios of :func:`_ratios` are sorted by their correctly rounded
    floats, and each vertex is keyed by the number of its run of equal
    floats times n plus its index; one sort of those int64 keys puts the
    runs in float order and each run in index order.  Rounding is monotone,
    so unequal floats are already in exact order; only a run of equal floats
    can hold distinct ratios (close values, or weights past 2**53).  Adjacent
    pairs in such runs are compared exactly by cross-multiplying, in int64 or
    in Python ints as the arrays hold them, and a run that holds two
    distinct ratios is re-sorted by :func:`sort_key`.
    """
    n = g.n
    rank = np.empty(n, dtype=np.int64)
    if n == 0:
        return rank
    keys = _weight_keys(g) if strategy is Strategy.S1 else None
    if keys is not None:
        rank[np.sort(keys) % n] = np.arange(n)
        return rank
    nums, dens = _ratios(strategy, g)
    if nums.dtype == object:
        approx = np.fromiter(map(_approx, nums, dens), dtype=np.float64, count=n)
    else:
        approx = nums / dens
    by_float = np.argsort(approx)
    ranked = approx[by_float]
    new_run = ranked[1:] != ranked[:-1]
    run = np.zeros(n, dtype=np.int64)
    np.cumsum(new_run, out=run[1:])
    order = np.sort(run * n + by_float) % n  # each key is below n**2
    tied = np.flatnonzero(~new_run)
    a, b = order[tied], order[tied + 1]
    mixed = tied[nums[a] * dens[b] != nums[b] * dens[a]].tolist()
    if mixed:
        order = order.tolist()
        runs = [0, *(np.flatnonzero(new_run) + 1).tolist(), n]
        for r in {bisect_right(runs, i) - 1 for i in mixed}:
            lo, hi = runs[r], runs[r + 1]
            order[lo:hi] = sorted(order[lo:hi], key=lambda v: sort_key(strategy, g, v))
    rank[order] = np.arange(n)
    return rank


def _fill(inst: DominationInstance, strategy: Strategy, start: DominatingSet,
          cover: np.ndarray) -> DominatingSet:
    """``start`` topped up to a feasible set by one ascending scan.

    ``cover`` is the closed-neighbourhood coverage of ``start`` as an int64
    array, updated in place.  For each vertex v still short of its demand,
    the missing count is filled with the non-members of N[v] that come first
    in the order of :func:`rank_order`.  Coverage only ever grows, so one
    scan settles every vertex.  ``start`` is not modified: the scan marks
    its picks in a new membership mask of ``start``, and the result is
    built from that mask.  The scan reads no weights.
    """
    g = inst.graph
    in_set = np.zeros(g.n, dtype=np.uint8)
    in_set[start.vertices] = 1
    scan = _native.fill() or _fill_py
    scan(g.indptr, g.indices, rank_order(strategy, g), inst.demand_array(), cover, in_set)
    return DominatingSet.from_mask(g, in_set)


def _fill_py(indptr: np.ndarray, indices: np.ndarray, rank: np.ndarray, demands: np.ndarray,
             cover: np.ndarray, in_set: np.ndarray) -> None:
    """The scan of :func:`_fill` as a Python loop, with the arguments of the
    C scan (``run`` of :func:`alphadom._native.fill`): the fallback without
    a C compiler and the reference for the C scan.  Like it, it updates
    ``cover`` (int64) and ``in_set`` (uint8) in place, its only output."""
    bounds, flat, order = indptr.tolist(), indices.tolist(), rank.tolist()
    taken = bytearray(in_set.tobytes())
    counts = cover.tolist()

    for v, demand in enumerate(demands.tolist()):
        need = demand - counts[v]
        if need <= 0:
            continue
        candidates = [u for u in flat[bounds[v]:bounds[v + 1]] if not taken[u]]
        if not taken[v]:
            candidates.append(v)
        candidates.sort(key=order.__getitem__)
        for u in candidates[:need]:
            taken[u] = 1
            counts[u] += 1
            for t in flat[bounds[u]:bounds[u + 1]]:
                counts[t] += 1

    cover[:] = counts
    in_set[:] = np.frombuffer(taken, dtype=np.uint8)


def greedy_dominate(inst: DominationInstance, strategy: Strategy) -> DominatingSet:
    """Grow a feasible coverage set by fixing violated vertices in index order.

    For each vertex v whose closed neighborhood holds fewer members than its
    demand, the missing count is filled with the best-ranked non-members of
    N[v], in the order of :func:`rank_order`.  Coverage only ever grows, so
    one ascending scan (:func:`_fill`, from the empty set) settles every
    vertex; the result is always feasible.
    """
    return _fill(inst, strategy, DominatingSet.empty(),
                 np.zeros(inst.graph.n, dtype=np.int64))
