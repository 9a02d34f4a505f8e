"""Modularity-based community detection and the divide-and-conquer solver.

The partitioned solver cuts the graph into communities, solves the covering
relaxation and rounds it inside each community independently (demands are
recomputed on the induced subgraph so every local program is feasible in
isolation), unions the per-community picks, and finishes with the global
repair sweep so cross-community demands are honored.  Every community's
program is cut from the closed CSR rows (A + I) of the whole graph in one
pass, and rounded on those same rows.  The community LPs run on one
thread pool that the process builds once and keeps, of at most one thread
per CPU it may run on, each started only when an LP finds no idle one,
since HiGHS releases the GIL while it solves; the result does not depend on
the thread count.
"""
from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import _native
from .graph import DominatingSet, DominationInstance, WeightedGraph, _indptr, _rows, demands
from .lp import LinearProgram, solve_lp
from .rounding import default_max_rounds, repair, round_rows
# Not called here, but perfbench/tracer.py POINTS wraps these by their names in
# this module, and a name that does not resolve fails the traced run's check.
from .lp import build_lp  # noqa: F401
from .rounding import is_feasible, round_once  # noqa: F401

_GAIN_TOL = 1e-12  # the least rise in modularity that earns another level


@dataclass(frozen=True)
class Partition:
    """Assignment of every vertex to exactly one community id in [0, k)."""

    community_of: tuple[int, ...]
    k: int

    def __post_init__(self):
        seen = set(self.community_of)
        if self.community_of and seen != set(range(self.k)):
            raise ValueError("community ids must cover 0..k-1 with none empty")
        if not self.community_of and self.k != 0:
            raise ValueError("empty partition must have k == 0")

    @classmethod
    def from_assignment(cls, assignment) -> "Partition":
        """Relabel integer ids to 0..k-1 by first appearance
        (:func:`_first_appearance`)."""
        if not isinstance(assignment, np.ndarray):
            assignment = np.fromiter(assignment, dtype=np.int64)
        labels = _first_appearance(assignment.astype(np.int64, copy=False))
        return cls(tuple(labels.tolist()), int(labels.max(initial=-1)) + 1)

    def communities(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.community_of):
            out[c].append(v)
        return out


def _modularity(g: WeightedGraph, community_of: np.ndarray) -> float:
    m = g.edge_count
    if m == 0:
        return 0.0
    k = int(community_of.max()) + 1
    deg = np.bincount(community_of, weights=np.diff(g.indptr), minlength=k)
    owners = community_of[_rows(g.indptr)]
    # each edge inside a community sits in two rows of the CSR arrays
    twice_intra = np.bincount(owners[owners == community_of[g.indices]], minlength=k)
    return float(np.sum(twice_intra / 2 / m - (deg / (2 * m)) ** 2))


def _check_covers(g: WeightedGraph, p: Partition) -> None:
    if len(p.community_of) != g.n:
        raise ValueError(f"partition assigns {len(p.community_of)} vertices, "
                         f"the graph has {g.n}")


def modularity(g: WeightedGraph, p: Partition) -> float:
    """Newman modularity with unit edge weights; defined as 0 on an edgeless graph."""
    _check_covers(g, p)
    return _modularity(g, np.asarray(p.community_of, dtype=np.int64))


def _local_moves(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 strength: np.ndarray, two_m: int) -> tuple[np.ndarray, bool]:
    """One complete local-move phase over one level, on its CSR rows with
    the integer weight of every entry in ``data``; returns (community of
    each level vertex as int64, whether anything moved).

    The phase runs in C (:mod:`alphadom._native`) when that can be built,
    and otherwise in Python (:func:`_local_moves_py`); both make the same
    moves.
    """
    return (_native.local_moves() or _local_moves_py)(indptr, indices, data, strength, two_m)


def _local_moves_py(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                    strength: np.ndarray, two_m: int) -> tuple[np.ndarray, bool]:
    """The local-move phase of :func:`_local_moves` in Python, line for line
    the C phase (``alphadom_local_moves`` in ``_native.c``), with its
    arguments and results.

    The row of v lists the neighbours of v other than itself, each once,
    with integer weights from ``data``.  Vertices are scanned in ascending
    index order, and each visit counts v's link weight to every
    neighbouring community afresh; v moves to the one with the greatest
    gain strictly above the gain of staying, and equal gains resolve to the
    lowest community id.  Sweeps repeat until a full sweep moves nothing.
    A gain is compared as the integer ``links * 2m - sigma * k_v``, 2m times
    the usual ``links - sigma * k_v / 2m``, so no comparison rounds.
    """
    bounds, flat, weights = indptr.tolist(), indices.tolist(), data.tolist()
    strength = strength.tolist()
    n = len(strength)
    comm = list(range(n))
    sigma = list(strength)  # strength per community
    moved_any, moved = False, True
    while moved:
        moved = False
        for v in range(n):
            cv, kv = comm[v], strength[v]
            links: dict[int, int] = {}  # v's link weight per community
            for e in range(bounds[v], bounds[v + 1]):
                c = comm[flat[e]]
                links[c] = links.get(c, 0) + weights[e]
            base = links.get(cv, 0) * two_m - (sigma[cv] - kv) * kv
            best_c, best_gain = cv, base
            for c, lc in links.items():
                gain = lc * two_m - sigma[c] * kv
                if c != cv and (gain > best_gain or (gain == best_gain and c < best_c)):
                    best_c, best_gain = c, gain
            if best_gain > base:  # a tie with staying keeps v where it is
                sigma[cv] -= kv
                sigma[best_c] += kv
                comm[v] = best_c
                moved = moved_any = True
    return np.array(comm, dtype=np.int64), moved_any


def _aggregate(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
               comm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next level: communities contracted to vertices, the CSR rows of
    the product Pᵀ A P of the level's int64 weights ``data`` with the edges
    inside a community (its diagonal) dropped, since a self-loop enters the
    gains only through the vertex strength.

    Every off-diagonal entry gets the key ``comm[row] * k + comm[col]``; one
    stable sort brings equal keys together, and ``np.add.reduceat`` sums
    their integer weights, so the rows come out with ascending columns.
    """
    k = int(comm.max()) + 1
    rows = comm[_rows(indptr)]
    cols = comm[indices]
    off = rows != cols
    keys = rows[off] * k + cols[off]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    firsts = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are >= 0
    keys = keys[firsts]
    return (_indptr(np.bincount(keys // k, minlength=k)), keys % k,
            np.add.reduceat(data[off][order], firsts))


def _first_appearance(ids: np.ndarray) -> np.ndarray:
    """``ids`` renumbered 0..k-1 by first appearance."""
    _, firsts, inverse = np.unique(ids, return_index=True, return_inverse=True)
    rank = np.empty(len(firsts), dtype=np.int64)
    rank[np.argsort(firsts)] = np.arange(len(firsts))
    return rank[inverse]


def louvain(g: WeightedGraph) -> Partition:
    """Greedy modularity maximization by local moves plus aggregation
    (Blondel et al., arXiv:0803.0476).

    Fully deterministic: the scan order is ascending vertex index and ties
    prefer the lowest community id, so the partition depends on the graph
    alone.  It is therefore computed once per graph object and kept on the
    graph; later calls return the same :class:`Partition`.  Every level is
    CSR rows with int64 weights: level 0 is the graph's own rows with
    weights all one, and each later level is contracted from the last
    (:func:`_aggregate`), so every gain is an exact integer and no
    comparison depends on rounding.
    """
    if g._partition is None:
        g._partition = _louvain(g)
    return g._partition


def _louvain(g: WeightedGraph) -> Partition:
    if g.n == 0:
        return Partition((), 0)
    two_m = 2 * g.edge_count
    indptr, indices = g.indptr, g.indices
    data = np.ones(len(indices), dtype=np.int64)
    strength = np.diff(indptr)  # per level vertex: the degrees of its members, summed
    membership = np.arange(g.n)  # original vertex -> current level vertex
    best_q = _modularity(g, membership)
    while True:
        comm, moved = _local_moves(indptr, indices, data, strength, two_m)
        if not moved:
            break
        comm = _first_appearance(comm)
        membership = comm[membership]
        q = _modularity(g, membership)
        if q <= best_q + _GAIN_TOL:
            break
        best_q = q
        strength = np.bincount(comm, weights=strength).astype(np.int64)
        indptr, indices, data = _aggregate(indptr, indices, data, comm)
    return Partition.from_assignment(membership)


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _lp_pool() -> ThreadPoolExecutor:
    """The process's thread pool for community LPs: at most one thread per CPU.

    It is built on first use and kept, and each of its threads keeps its
    HiGHS object (:func:`alphadom.lp._thread_highs`) from one call to the
    next.  The executor starts a thread only when no idle one can take a
    task, so it holds no more threads than LPs have been in flight at once.
    """
    return ThreadPoolExecutor(_cpus(), thread_name_prefix="alphadom-lp")


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    # a forked child holds none of the pool's threads, so a task queued on
    # the inherited pool would never run: the child builds its own
    os.register_at_fork(after_in_child=_lp_pool.cache_clear)


def community_programs(g: WeightedGraph, alpha: Fraction,
                       part: Partition) -> Iterator[tuple[int, np.ndarray, LinearProgram]]:
    """(community id, its vertices, its covering program) for every community
    of more than one vertex, in id order; the program is the one
    ``build_lp(DominationInstance(g.subgraph(vertices)[0], alpha))`` builds.

    All of them come from one pass over the closed CSR rows (A + I) of
    ``g``.  Vertices are ordered stably by community id, and the entries
    whose two ends share a community are kept and renumbered to indices
    local to it, in ascending vertex order.  Row v then holds N_c[v], the
    closed neighbourhood inside v's community, and demands
    ceil(alpha * |N_c[v]|).  Each program is a set of slices of those arrays.
    """
    community_of = np.asarray(part.community_of, dtype=np.int64)
    indptr, indices = g.closed_csr()
    rows = _rows(indptr)
    inside = community_of[rows] == community_of[indices]
    rows, cols = rows[inside], indices[inside]
    order = np.argsort(community_of, kind="stable")
    starts = _indptr(np.bincount(community_of, minlength=part.k))
    local = np.empty(g.n, dtype=np.int64)
    local[order] = np.arange(g.n) - starts[community_of[order]]
    sizes = np.bincount(rows, minlength=g.n)[order]  # |N_c[v]|, in community order
    row_ptr = _indptr(sizes)
    entries = local[cols[np.argsort(community_of[rows], kind="stable")]]
    bounds = demands(alpha, sizes)
    try:
        weights = g.weight_array()[order]
    except ValueError:
        # a singleton enters no program, so only it may weigh past int64;
        # any other such vertex raises, named, as rr's program does
        alone = (np.diff(starts) == 1)[community_of].tolist()
        weights = g.with_weights([1 if a else w for a, w in zip(alone, g.weights)]) \
            .weight_array()[order]
    starts = starts.tolist()
    for c in range(part.k):
        s, e = starts[c], starts[c + 1]
        if e - s > 1:
            a, b = int(row_ptr[s]), int(row_ptr[e])
            yield c, order[s:e], LinearProgram(e - s, weights[s:e], row_ptr[s:e + 1] - a,
                                               entries[a:b], bounds[s:e])


def community_rounding(inst: DominationInstance, seed: int,
                       partition: Partition | None = None) -> DominatingSet:
    """Divide-and-conquer randomized rounding over detected communities.

    Communities come from :func:`louvain` unless a precomputed ``partition``
    is supplied.  Each community of more than one vertex gets its own
    covering program (:func:`community_programs`), solved by
    :func:`alphadom.lp.solve_lp` and rounded on its rows by
    :func:`alphadom.rounding.round_rows`, the pass loop of ``rr``, with
    ``default_rng([seed, community id])`` and the pass budget of the whole
    graph; a singleton is picked.  The union of the local picks goes through
    the global repair sweep, so the result is feasible on the full graph for
    every seed.

    Each community LP is handed to the process's thread pool
    (:func:`_lp_pool`, at most one thread per CPU) as soon as it is cut, and
    the rounding then takes the solutions in community-id order, so the set
    is the one a sequential loop would give.  The pool is built once and
    outlives the call: its threads, and the HiGHS object each one holds,
    serve every later call, and a forked child builds its own.
    """
    g = inst.graph
    part = partition if partition is not None else louvain(g)
    _check_covers(g, part)
    rounds = default_max_rounds(g)  # max degree of the whole graph, not the community
    community_of = np.asarray(part.community_of, dtype=np.int64)
    sizes = np.bincount(community_of, minlength=part.k)
    picked = sizes[community_of] == 1  # a singleton's own demand is 1: itself

    pool = _lp_pool()
    solving = [(cid, verts, lp, pool.submit(solve_lp, lp))
               for cid, verts, lp in community_programs(g, inst.alpha, part)]
    for cid, verts, lp, frac in solving:
        local = round_rows(lp.indptr, lp.indices, lp.bounds, frac.result().values,
                           np.random.default_rng([seed, cid]), rounds)
        picked[verts[local]] = True

    return repair(inst, DominatingSet.from_mask(g, picked))
