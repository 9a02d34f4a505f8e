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

from .graph import DominatingSet, DominationInstance, WeightedGraph, is_feasible
from .lp import build_lp, solve_lp
from .rounding import RoundingConfig, repair, round_once

_GAIN_TOL = 1e-12


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

    def members(self, cid: int) -> list[int]:
        return [v for v, c in enumerate(self.community_of) if c == cid]

    def communities(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.community_of):
            out[c].append(v)
        return out


def modularity(g: WeightedGraph, p: Partition) -> float:
    """Newman modularity with unit edge weights; defined as 0 on an edgeless graph."""
    if len(p.community_of) != g.n:
        raise ValueError("partition does not cover the graph")
    m = g.edge_count
    if m == 0:
        return 0.0
    intra = [0] * p.k
    deg = [0] * p.k
    for v in range(g.n):
        deg[p.community_of[v]] += g.degree(v)
    for u, v in g.edges():
        if p.community_of[u] == p.community_of[v]:
            intra[p.community_of[u]] += 1
    return sum(intra[c] / m - (deg[c] / (2 * m)) ** 2 for c in range(p.k))


class _LevelGraph:
    """Aggregated weighted view used between phases: neighbor weights,
    self-loop weight, and vertex strength (degree including twice the loop)."""

    def __init__(self, neighbors: list[dict[int, float]], self_w: list[float]):
        self.neighbors = neighbors
        self.self_w = self_w
        self.strength = [sum(nb.values()) + 2 * sw
                         for nb, sw in zip(neighbors, self_w)]
        self.total = sum(self.strength) / 2.0  # == total edge weight incl. loops

    @classmethod
    def from_graph(cls, g: WeightedGraph) -> "_LevelGraph":
        return cls([{u: 1.0 for u in g.adjacency[v]} for v in range(g.n)],
                   [0.0] * g.n)

    def local_moves(self) -> tuple[list[int], bool]:
        """One complete local-move phase; returns (community of each vertex,
        whether anything moved).

        Vertices are scanned in ascending index order and moved to the
        neighboring community with the greatest strictly positive modularity
        gain; equal gains resolve to the lowest community id.  Sweeps repeat
        until a full sweep moves nothing.
        """
        n = len(self.neighbors)
        comm = list(range(n))
        sigma = self.strength[:]  # total strength per community
        two_m = 2.0 * self.total
        if two_m == 0:
            return comm, False
        moved_any = False
        while True:
            moved = False
            for v in range(n):
                cv = comm[v]
                links: dict[int, float] = {}
                for u, w in self.neighbors[v].items():
                    cu = comm[u]
                    links[cu] = links.get(cu, 0.0) + w
                sigma[cv] -= self.strength[v]
                base = links.get(cv, 0.0) - sigma[cv] * self.strength[v] / two_m
                best_c, best_gain = cv, base
                for c in sorted(links):
                    if c == cv:
                        continue
                    gain = links[c] - sigma[c] * self.strength[v] / two_m
                    if gain > best_gain + _GAIN_TOL or (
                            gain > best_gain - _GAIN_TOL and c < best_c):
                        best_c, best_gain = c, gain
                if best_gain <= base + _GAIN_TOL:
                    best_c = cv
                sigma[best_c] += self.strength[v]
                if best_c != cv:
                    comm[v] = best_c
                    moved = True
                    moved_any = True
            if not moved:
                return comm, moved_any

    def aggregate(self, comm: list[int]) -> tuple["_LevelGraph", list[int]]:
        """Contract communities to vertices; returns the smaller level plus the
        dense relabeling applied to ``comm``."""
        relabel: dict[int, int] = {}
        for c in comm:
            if c not in relabel:
                relabel[c] = len(relabel)
        k = len(relabel)
        nbrs: list[dict[int, float]] = [{} for _ in range(k)]
        self_w = [0.0] * k
        for v, nb in enumerate(self.neighbors):
            cv = relabel[comm[v]]
            self_w[cv] += self.self_w[v]
            for u, w in nb.items():
                if u <= v:
                    continue
                cu = relabel[comm[u]]
                if cu == cv:
                    self_w[cv] += w
                else:
                    nbrs[cv][cu] = nbrs[cv].get(cu, 0.0) + w
                    nbrs[cu][cv] = nbrs[cu].get(cv, 0.0) + w
        return _LevelGraph(nbrs, self_w), [relabel[c] for c in comm]


def louvain(g: WeightedGraph) -> Partition:
    """Greedy modularity maximization by local moves plus aggregation.

    Fully deterministic: the scan order is ascending vertex index and ties
    prefer the lowest community id, so the partition depends on the graph
    alone.
    """
    if g.n == 0:
        return Partition((), 0)
    level = _LevelGraph.from_graph(g)
    membership = list(range(g.n))  # original vertex -> current level vertex
    best_q = modularity(g, Partition.from_assignment(membership))
    while True:
        comm, moved = level.local_moves()
        if not moved:
            break
        level, comm_dense = level.aggregate(comm)
        membership = [comm_dense[c] for c in membership]
        q = modularity(g, Partition.from_assignment(membership))
        if q <= best_q + _GAIN_TOL:
            break
        best_q = q
    return Partition.from_assignment(membership)


def _rounding_over_partition(inst: DominationInstance, part: Partition,
                             cfg: RoundingConfig) -> DominatingSet:
    """Per-community relaxation and rounding, then one global repair."""
    g = inst.graph
    rounds = cfg.rounds_for(g)  # max degree of the whole graph, not the community
    picked: set[int] = set()

    for cid, verts in enumerate(part.communities()):
        if len(verts) == 1:
            picked.add(verts[0])  # induced demand of a singleton is 1: itself
            continue
        sub, to_global = g.subgraph(verts)
        sub_inst = DominationInstance(sub, inst.alpha)
        frac = solve_lp(build_lp(sub_inst))
        rng = np.random.default_rng([cfg.seed, cid])
        local = DominatingSet.empty()
        for _ in range(rounds):
            for v in round_once(frac.values, rng, cfg.threshold_upper):
                local.add(sub, int(v))
            if is_feasible(sub_inst, local):
                break
        picked.update(int(to_global[v]) for v in local.members)

    return repair(inst, DominatingSet.from_members(g, picked))


def community_rounding(inst: DominationInstance, cfg: RoundingConfig,
                       partition: Partition | None = None) -> DominatingSet:
    """Divide-and-conquer randomized rounding over detected communities.

    Communities come from :func:`louvain` unless a precomputed ``partition``
    is supplied; each is solved as its own induced instance, and the union of
    the local picks goes through the global repair sweep, so the result is
    feasible on the full graph for every seed.
    """
    part = partition if partition is not None else louvain(inst.graph)
    return _rounding_over_partition(inst, part, cfg)
