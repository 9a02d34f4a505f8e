"""The dict-based Louvain that ``alphadom.community.louvain`` replaced, kept
only as a reference for tests: the flat-array version must give the same
partition on every graph.

Each level holds one dict of neighbour weights per vertex, and gains are
floats compared with a tolerance of 1e-12.
"""
from __future__ import annotations

from alphadom import Partition, WeightedGraph

_GAIN_TOL = 1e-12


def reference_modularity(g: WeightedGraph, community_of) -> float:
    p = Partition.from_assignment(community_of)
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
    """Neighbor weights, self-loop weight, and vertex strength (degree
    including twice the loop) of one level."""

    def __init__(self, neighbors: list[dict[int, float]], self_w: list[float]):
        self.neighbors = neighbors
        self.self_w = self_w
        self.strength = [sum(nb.values()) + 2 * sw
                         for nb, sw in zip(neighbors, self_w)]
        self.total = sum(self.strength) / 2.0

    @classmethod
    def from_graph(cls, g: WeightedGraph) -> "_LevelGraph":
        return cls([{u: 1.0 for u in g.adjacency[v]} for v in range(g.n)],
                   [0.0] * g.n)

    def local_moves(self) -> tuple[list[int], bool]:
        n = len(self.neighbors)
        comm = list(range(n))
        sigma = self.strength[:]
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


def reference_louvain(g: WeightedGraph) -> tuple[int, ...]:
    """``community_of`` of the reference partition of ``g``."""
    if g.n == 0:
        return ()
    level = _LevelGraph.from_graph(g)
    membership = list(range(g.n))
    best_q = reference_modularity(g, membership)
    while True:
        comm, moved = level.local_moves()
        if not moved:
            break
        level, comm_dense = level.aggregate(comm)
        membership = [comm_dense[c] for c in membership]
        q = reference_modularity(g, membership)
        if q <= best_q + _GAIN_TOL:
            break
        best_q = q
    return Partition.from_assignment(membership).community_of
