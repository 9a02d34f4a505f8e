"""Deterministic greedy construction of a low-weight coverage set.

Three vertex-ordering strategies are supported.  Each ranks a vertex by a
ratio of integers; two vertices tie only when their ratios are
mathematically equal, and ties always fall back to the vertex index.
:func:`sort_key` is the exact definition of that order.  One scan,
:func:`_fill`, tops a set up to feasibility in that order: from the empty
set for the greedy strategies, and from a rounded set for
:func:`alphadom.rounding.repair`.  The scan only ever compares the
candidates of one closed neighbourhood, so no order of all vertices is
built: :func:`_keys` gives each vertex its ratio as an int64 numerator and
denominator and a float quotient, and candidates are compared by the
quotient, then exactly by cross-multiplying, then by index.
The scan runs in C (:mod:`alphadom._native`) when that can be built, and
in Python (:func:`_fill_py`) otherwise, with the same picks.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction

import numpy as np

from . import _native
from .graph import DominatingSet, DominationInstance, WeightedGraph, _exact_weights, _frozen


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


def _keys(strategy: Strategy, g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nums, dens, q): every vertex's ranking value as an int64 numerator
    and denominator, and a float64 ``q`` that never reverses their order, as
    read-only arrays.

    While :func:`_exact_weights` is int64, the numerators are the weights
    and the denominators 1, closed degrees or closed-neighbourhood weight
    sums, each at most the largest weight times n, below 2**63.  ``q`` is
    ``nums / dens`` when every numerator and denominator is below 2**53,
    where numpy's quotient is correctly rounded, and all zeros otherwise.
    With Python int weights the numerators are the positions in the order of
    :func:`sort_key`, the denominators 1, and ``q`` the positions again.

    Computed once per graph and strategy and kept on the graph, so every
    greedy call and every repair on one graph share them.
    """
    keys = g._keys.get(strategy)
    if keys is not None:
        return keys
    w, n = _exact_weights(g), g.n
    if w.dtype == object:
        nums = np.empty(n, dtype=np.int64)
        nums[sorted(range(n), key=lambda v: sort_key(strategy, g, v))] = np.arange(n)
        dens, q = np.ones(n, dtype=np.int64), nums.astype(np.float64)
    else:
        nums = w
        if strategy is Strategy.S1:
            dens = np.ones(n, dtype=np.int64)
        elif strategy is Strategy.S2:
            dens = np.diff(g.indptr) + 1
        else:
            # no sum of distinct weights wraps in int64, so the differences of
            # the prefix sums are exact even where the prefix sums themselves wrap
            sums = np.zeros(len(g.indices) + 1, dtype=np.int64)
            np.cumsum(w[g.indices], out=sums[1:])
            dens = w + sums[g.indptr[1:]] - sums[g.indptr[:-1]]
        exact = max(int(w.max(initial=0)), int(dens.max(initial=0))) < _FLOAT_EXACT
        q = nums / dens if exact else np.zeros(n)
    keys = g._keys[strategy] = tuple(map(_frozen, (nums, dens, q)))
    return keys


def _fill(inst: DominationInstance, strategy: Strategy, start: DominatingSet,
          cover: np.ndarray) -> DominatingSet:
    """``start`` topped up to a feasible set by one ascending scan.

    ``cover`` is the closed-neighbourhood coverage of ``start`` as an int64
    array, updated in place.  For each vertex v still short of its demand,
    the missing count is filled with the non-members of N[v] that come first
    in the order of :func:`sort_key`, compared by the keys of :func:`_keys`.
    Coverage only ever grows, so one scan settles every vertex.  ``start``
    is not modified: the scan marks its picks in a new membership mask of
    ``start``, and the result is built from that mask.
    """
    g = inst.graph
    in_set = np.zeros(g.n, dtype=np.uint8)
    in_set[start.vertices] = 1
    scan = _native.fill() or _fill_py
    scan(g.indptr, g.indices, *_keys(strategy, g), inst.demand_array(), cover, in_set)
    return DominatingSet.from_mask(g, in_set)


def _fill_py(indptr: np.ndarray, indices: np.ndarray, nums: np.ndarray, dens: np.ndarray,
             q: np.ndarray, demands: np.ndarray, cover: np.ndarray, in_set: np.ndarray) -> None:
    """The scan of :func:`_fill` as a Python loop, with the arguments of the
    C scan (``run`` of :func:`alphadom._native.fill`): the fallback without
    a C compiler and the reference for the C scan.  Like it, it updates
    ``cover`` (int64) and ``in_set`` (uint8) in place, its only output.

    Each row's candidates are sorted by index and then, stably, by ``q``.
    ``q`` never reverses the exact order, so only a run of equal ``q`` that
    straddles the cut between taken and left candidates can be out of
    order; a run whose ratios are not all equal is sorted exactly.
    """
    bounds, flat, approx = indptr.tolist(), indices.tolist(), q.tolist()
    num, den = nums.tolist(), dens.tolist()
    taken = bytearray(in_set.tobytes())
    counts = cover.tolist()

    for v, demand in enumerate(demands.tolist()):
        need = demand - counts[v]
        if need <= 0:
            continue
        candidates = [u for u in flat[bounds[v]:bounds[v + 1]] if not taken[u]]
        if not taken[v]:
            candidates.append(v)
            candidates.sort()
        candidates.sort(key=approx.__getitem__)
        if need < len(candidates) and approx[candidates[need - 1]] == approx[candidates[need]]:
            edge = approx[candidates[need]]
            lo, hi = need - 1, need + 1
            while lo and approx[candidates[lo - 1]] == edge:
                lo -= 1
            while hi < len(candidates) and approx[candidates[hi]] == edge:
                hi += 1
            run, first = candidates[lo:hi], candidates[lo]
            if any(num[u] * den[first] != num[first] * den[u] for u in run):
                candidates[lo:hi] = sorted(run, key=lambda u: Fraction(num[u], den[u]))
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
    N[v], in the order of :func:`sort_key`.  Coverage only ever grows, so
    one ascending scan (:func:`_fill`, from the empty set) settles every
    vertex; the result is always feasible.
    """
    return _fill(inst, strategy, DominatingSet.empty(),
                 np.zeros(inst.graph.n, dtype=np.int64))
