"""Modularity-based community detection and the divide-and-conquer solver.

The partitioned solver cuts the graph into communities, solves the covering
relaxation and rounds it inside each community independently (demands are
recomputed on the induced subgraph so every local program is feasible in
isolation), unions the per-community picks, and finishes with the global
repair sweep so cross-community demands are honored.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DominatingSet, DominationInstance, WeightedGraph
from .lp import build_lp, solve_lp
from .rounding import default_max_rounds, repair, round_until_feasible
# Not called here, but perfbench/tracer.py POINTS wraps both by their names in
# this module, and a name that does not resolve fails the traced run's check.
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
        """Relabel arbitrary ids to 0..k-1 by first appearance."""
        relabel: dict[int, int] = {}
        out = []
        for c in assignment:
            if c not in relabel:
                relabel[c] = len(relabel)
            out.append(relabel[c])
        return cls(tuple(out), len(relabel))

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
    owners = community_of[g._owners()]
    # each edge inside a community sits in two rows of the CSR arrays
    twice_intra = np.bincount(owners[owners == community_of[g.indices]], minlength=k)
    return float(np.sum(twice_intra / 2 / m - (deg / (2 * m)) ** 2))


def modularity(g: WeightedGraph, p: Partition) -> float:
    """Newman modularity with unit edge weights; defined as 0 on an edgeless graph."""
    if len(p.community_of) != g.n:
        raise ValueError("partition does not cover the graph")
    return _modularity(g, np.asarray(p.community_of, dtype=np.int64))


def _local_moves(rows, weights, strength: list[int], two_m: int) -> tuple[list[int], bool]:
    """One complete local-move phase over one level; returns (community of
    each level vertex, whether anything moved).

    ``rows[v]`` lists the neighbours of v other than itself, with integer
    weights ``weights[v]``, or unit weights when ``weights`` is None.
    Vertices are scanned in ascending index order and moved to the
    neighbouring community with the greatest strictly positive modularity
    gain; equal gains resolve to the lowest community id.  Sweeps repeat
    until a full sweep moves nothing.  A gain is compared as the integer
    ``links * 2m - sigma * k_v``, 2m times the usual
    ``links - sigma * k_v / 2m``, so no comparison rounds.
    """
    n = len(rows)
    comm = list(range(n))
    sigma = list(strength)  # total strength per community
    moved_any = False
    while True:
        moved = False
        for v in range(n):
            cv = comm[v]
            kv = strength[v]
            links: dict[int, int] = {}
            if weights is None:
                for u in rows[v]:
                    c = comm[u]
                    links[c] = links.get(c, 0) + 1
            else:
                for u, w in zip(rows[v], weights[v]):
                    c = comm[u]
                    links[c] = links.get(c, 0) + w
            sigma[cv] -= kv
            base = links.get(cv, 0) * two_m - sigma[cv] * kv
            best_c, best_gain = cv, base
            for c, lc in links.items():
                gain = lc * two_m - sigma[c] * kv
                if gain > best_gain or (gain == best_gain and c < best_c):
                    best_c, best_gain = c, gain
            if best_gain == base:
                best_c = cv  # only a strictly better community is worth the move
            sigma[best_c] += kv
            if best_c != cv:
                comm[v] = best_c
                moved = moved_any = True
        if not moved:
            return comm, moved_any


def _aggregate(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray | None,
               comm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next level: communities contracted to vertices by one product
    Pᵀ A P, with the edges inside a community (its diagonal) dropped, since
    a self-loop enters the gains only through the vertex strength."""
    from scipy.sparse import csr_array

    n, k = len(comm), int(comm.max()) + 1
    if data is None:
        data = np.ones(len(indices), dtype=np.int64)
    a = csr_array((data, indices, indptr), shape=(n, n))
    p = csr_array((np.ones(n, dtype=np.int64), (np.arange(n), comm)), shape=(n, k))
    b = (p.T @ a @ p).tocoo()
    off = b.row != b.col
    b = csr_array((b.data[off], (b.row[off], b.col[off])), shape=(k, k))
    return b.indptr, b.indices, b.data


def _split_rows(indptr: np.ndarray, values: np.ndarray) -> list[list[int]]:
    bounds = indptr.tolist()
    flat = values.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def louvain(g: WeightedGraph) -> Partition:
    """Greedy modularity maximization by local moves plus aggregation
    (Blondel et al., arXiv:0803.0476).

    Fully deterministic: the scan order is ascending vertex index and ties
    prefer the lowest community id, so the partition depends on the graph
    alone.  It is therefore computed once per graph object and kept on the
    graph; later calls return the same :class:`Partition`.  Level 0 reads
    the graph's own rows with unit weights, and each later level is one
    sparse product with integer weights, so every gain is an exact integer
    and no comparison depends on rounding.
    """
    if g._partition is None:
        g._partition = _louvain(g)
    return g._partition


def _louvain(g: WeightedGraph) -> Partition:
    if g.n == 0:
        return Partition((), 0)
    two_m = 2 * g.edge_count
    indptr, indices, data = g.indptr, g.indices, None
    rows, weights = g.adjacency, None
    strength = np.diff(indptr)  # per level vertex: the degrees of its members, summed
    membership = np.arange(g.n)  # original vertex -> current level vertex
    best_q = _modularity(g, membership)
    while True:
        comm, moved = _local_moves(rows, weights, strength.tolist(), two_m)
        if not moved:
            break
        comm = np.asarray(Partition.from_assignment(comm).community_of)
        membership = comm[membership]
        q = _modularity(g, membership)
        if q <= best_q + _GAIN_TOL:
            break
        best_q = q
        strength = np.bincount(comm, weights=strength).astype(np.int64)
        indptr, indices, data = _aggregate(indptr, indices, data, comm)
        rows, weights = _split_rows(indptr, indices), _split_rows(indptr, data)
    return Partition.from_assignment(membership.tolist())


def community_rounding(inst: DominationInstance, seed: int,
                       partition: Partition | None = None) -> DominatingSet:
    """Divide-and-conquer randomized rounding over detected communities.

    Communities come from :func:`louvain` unless a precomputed ``partition``
    is supplied.  Each is solved as its own induced instance and rounded by
    :func:`alphadom.rounding.round_until_feasible`, the pass loop of ``rr``,
    with ``default_rng([seed, community id])`` and the pass budget of the
    whole graph.  The union of the local picks goes through the global repair
    sweep, so the result is feasible on the full graph for every seed.
    """
    g = inst.graph
    part = partition if partition is not None else louvain(g)
    rounds = default_max_rounds(g)  # max degree of the whole graph, not the community
    picked: set[int] = set()

    for cid, verts in enumerate(part.communities()):
        if len(verts) == 1:
            picked.add(verts[0])  # induced demand of a singleton is 1: itself
            continue
        sub, to_global = g.subgraph(verts)
        sub_inst = DominationInstance(sub, inst.alpha)
        frac = solve_lp(build_lp(sub_inst))
        local = round_until_feasible(sub_inst, frac.values,
                                     np.random.default_rng([seed, cid]), rounds)
        picked.update(int(to_global[v]) for v in local.members)

    return repair(inst, DominatingSet.from_members(g, picked))
