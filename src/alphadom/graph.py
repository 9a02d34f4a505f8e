"""Weighted-graph data model and the coverage arithmetic shared by every solver.

A graph is immutable once built; solvers construct and mutate
:class:`DominatingSet` objects on the side.  The coverage threshold of a
vertex ``v`` is ``ceil(alpha * (deg(v) + 1))`` and is computed with exact
rational arithmetic, so a threshold never moves because of a float rounding
artifact.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

AlphaLike = Fraction | str | float | int


def as_alpha(value: AlphaLike) -> Fraction:
    """Normalize a coverage rate to an exact Fraction in (0, 1].

    Floats are routed through their decimal string form, so ``as_alpha(0.1)``
    is exactly 1/10 rather than the binary expansion of ``0.1``.
    """
    if isinstance(value, Fraction):
        alpha = value
    elif isinstance(value, float):
        alpha = Fraction(str(value))
    else:
        alpha = Fraction(value)
    if not 0 < alpha <= 1:
        raise ValueError(f"coverage rate must be in (0, 1], got {alpha}")
    return alpha


class WeightedGraph:
    """Undirected simple graph with positive integer vertex weights.

    Vertices are dense indices ``0 .. n-1``.  Optional string labels map
    bijectively to indices and are used only at the file-format boundary.
    Neighbor lists are kept sorted ascending; together with index-ordered
    scans in the solvers this pins down every deterministic tie-break.
    """

    __slots__ = ("n", "adjacency", "weights", "labels",
                 "_label_index", "_weight_array", "_closed", "_edge_count")

    def __init__(self, adjacency: Sequence[Sequence[int]],
                 weights: Sequence[int],
                 labels: Sequence[str] | None = None):
        n = len(adjacency)
        if len(weights) != n:
            raise ValueError(f"{len(weights)} weights for {n} vertices")
        adj = []
        incoming: list[list[int]] = [[] for _ in range(n)]
        edge_ends = 0
        for v, nbrs in enumerate(adjacency):
            row = tuple(nbrs)
            prev = -1
            for u in row:
                if not 0 <= u < n:
                    raise ValueError(f"neighbor {u} of vertex {v} out of range")
                if u == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if u <= prev:
                    raise ValueError(f"neighbor list of {v} not sorted/unique")
                prev = u
                incoming[u].append(v)
            adj.append(row)
            edge_ends += len(row)
        # v is listed under each neighbor in ascending v, so every row is rebuilt
        # exactly iff every edge has its mirror; O(m), unlike a scan per edge
        if any(tuple(into) != row for into, row in zip(incoming, adj)):
            v, u = min((v, u) for u, (into, row) in enumerate(zip(incoming, adj))
                       for v in set(into).difference(row))
            raise ValueError(f"edge {v}-{u} missing its mirror")
        w = tuple(int(x) for x in weights)
        if any(x < 1 for x in w):
            raise ValueError("vertex weights must be >= 1")
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise ValueError("label count does not match vertex count")
            if len(set(labels)) != n:
                raise ValueError("vertex labels must be unique")
        self.n = n
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(adj)
        self.weights: tuple[int, ...] = w
        self.labels: tuple[str, ...] | None = labels
        self._label_index: dict[str, int] | None = None
        self._weight_array: np.ndarray | None = None
        self._closed: list[np.ndarray] | None = None
        self._edge_count = edge_ends // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   weights: Sequence[int] | None = None,
                   labels: Sequence[str] | None = None) -> "WeightedGraph":
        """Build a graph from an edge iterable; duplicate edges collapse.

        Self-loops are rejected.  ``weights`` defaults to all ones.
        """
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        if weights is None:
            weights = [1] * n
        return cls([sorted(s) for s in nbrs], weights, labels)

    # -- basic accessors ----------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in ascending order."""
        for u, row in enumerate(self.adjacency):
            for v in row:
                if u < v:
                    yield (u, v)

    def weight_array(self) -> np.ndarray:
        if self._weight_array is None:
            self._weight_array = np.asarray(self.weights, dtype=np.int64)
        return self._weight_array

    def closed_neighborhood(self, v: int) -> np.ndarray:
        """Sorted index array of v together with its neighbors (cached)."""
        if self._closed is None:
            self._closed = [
                np.asarray(sorted(row + (u,)), dtype=np.int64)
                for u, row in enumerate(self.adjacency)
            ]
        return self._closed[v]

    def max_degree(self) -> int:
        """Maximum vertex degree; 0 for an edgeless graph."""
        if self.n == 0:
            return 0
        return max(len(row) for row in self.adjacency)

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def index_of(self, label: str) -> int:
        if self.labels is None:
            try:
                v = int(label)
            except ValueError:
                raise KeyError(label) from None
            if not 0 <= v < self.n:
                raise KeyError(label)
            return v
        if self._label_index is None:
            self._label_index = {s: i for i, s in enumerate(self.labels)}
        return self._label_index[label]

    # -- derived graphs ------------------------------------------------------

    def with_weights(self, weights: Sequence[int]) -> "WeightedGraph":
        """Same topology and labels, new weight vector."""
        return WeightedGraph(self.adjacency, weights, self.labels)

    def subgraph(self, vertices: Sequence[int]) -> tuple["WeightedGraph", np.ndarray]:
        """Induced subgraph on ``vertices`` plus the local->global index map."""
        verts = sorted(set(vertices))
        local = {g: i for i, g in enumerate(verts)}
        adj = [[local[u] for u in self.adjacency[g] if u in local] for g in verts]
        weights = [self.weights[g] for g in verts]
        labels = None if self.labels is None else [self.labels[g] for g in verts]
        return WeightedGraph(adj, weights, labels), np.asarray(verts, dtype=np.int64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (self.n == other.n and self.adjacency == other.adjacency
                and self.weights == other.weights and self.labels == other.labels)

    __hash__ = None  # value equality above; graphs are not dict keys

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.edge_count})"


def closed_degree(g: WeightedGraph, v: int) -> int:
    """Degree of v plus one (v counts itself)."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return g.degree(v) + 1


class DominationInstance:
    """A weighted graph paired with the coverage rate alpha in (0, 1].

    Per-vertex demands ``ceil(alpha * closed_degree)`` are precomputed with
    integer ceiling division at construction time.
    """

    __slots__ = ("graph", "alpha", "demands", "_demand_array")

    def __init__(self, graph: WeightedGraph, alpha):
        self.graph = graph
        self.alpha = as_alpha(alpha)
        num, den = self.alpha.numerator, self.alpha.denominator
        self.demands: tuple[int, ...] = tuple(
            -((-num * (graph.degree(v) + 1)) // den) for v in range(graph.n)
        )
        self._demand_array: np.ndarray | None = None

    def demand(self, v: int) -> int:
        """Required closed-neighborhood coverage of v; always in [1, closed_degree]."""
        return self.demands[v]

    def demand_array(self) -> np.ndarray:
        if self._demand_array is None:
            self._demand_array = np.asarray(self.demands, dtype=np.int64)
        return self._demand_array

    def __repr__(self) -> str:
        return f"DominationInstance(n={self.graph.n}, alpha={self.alpha})"


def demand(inst: DominationInstance, v: int) -> int:
    if not 0 <= v < inst.graph.n:
        raise ValueError(f"vertex {v} out of range")
    return inst.demands[v]


class DominatingSet:
    """Candidate solution: a vertex subset with a cached total weight.

    Single-owner mutable; the cache is maintained by :meth:`add` and can be
    audited against a fresh sum at any time.
    """

    __slots__ = ("members", "total_weight")

    def __init__(self, members: set[int], total_weight: int):
        self.members = members
        self.total_weight = total_weight

    @classmethod
    def empty(cls) -> "DominatingSet":
        return cls(set(), 0)

    @classmethod
    def from_members(cls, g: WeightedGraph, members: Iterable[int]) -> "DominatingSet":
        ms = set(members)
        for v in ms:
            if not 0 <= v < g.n:
                raise ValueError(f"member {v} out of range")
        return cls(ms, sum(g.weights[v] for v in ms))

    def add(self, g: WeightedGraph, v: int) -> None:
        if v not in self.members:
            self.members.add(v)
            self.total_weight += g.weights[v]

    def copy(self) -> "DominatingSet":
        return DominatingSet(set(self.members), self.total_weight)

    def recomputed_weight(self, g: WeightedGraph) -> int:
        return sum(g.weights[v] for v in self.members)

    def as_sorted_tuple(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, v: int) -> bool:
        return v in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"DominatingSet(size={len(self.members)}, weight={self.total_weight})"


@dataclass(frozen=True)
class DeficiencyReport:
    """Vertices whose coverage falls short of demand, with the shortfall amount."""

    shortfalls: dict[int, int] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return not self.shortfalls


def _member_set(candidate) -> set[int]:
    if isinstance(candidate, DominatingSet):
        return candidate.members
    return set(candidate)


def coverage_count(g: WeightedGraph, candidate, v: int) -> int:
    """|N[v] ∩ D| where N[v] is the closed neighborhood."""
    members = _member_set(candidate)
    c = 1 if v in members else 0
    for u in g.adjacency[v]:
        if u in members:
            c += 1
    return c


def coverage_counts(g: WeightedGraph, candidate) -> np.ndarray:
    """Closed-neighborhood coverage of every vertex at once.

    Equivalent to stacking :func:`coverage_count` over all vertices but runs
    as one bincount over the members' closed neighborhoods.
    """
    members = _member_set(candidate)
    if not members:
        return np.zeros(g.n, dtype=np.int64)
    parts = [g.closed_neighborhood(v) for v in members]
    return np.bincount(np.concatenate(parts), minlength=g.n).astype(np.int64)


def deficiency(inst: DominationInstance, candidate) -> DeficiencyReport:
    """All vertices violating their demand, with shortfall = demand - coverage."""
    cover = coverage_counts(inst.graph, candidate)
    demands = inst.demand_array()
    short = demands - cover
    bad = np.nonzero(short > 0)[0]
    return DeficiencyReport({int(v): int(short[v]) for v in bad})


def is_feasible(inst: DominationInstance, candidate) -> bool:
    """True iff every vertex sees at least its demand inside the candidate set."""
    cover = coverage_counts(inst.graph, candidate)
    return bool(np.all(cover >= inst.demand_array()))


def total_weight(g: WeightedGraph, candidate) -> int:
    """Fresh weight sum over the candidate's members (ignores any cache)."""
    return sum(g.weights[v] for v in _member_set(candidate))


def max_degree(g: WeightedGraph) -> int:
    return g.max_degree()


def connected_components(g: WeightedGraph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest member."""
    seen = bytearray(g.n)
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = 1
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.adjacency[v]:
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


@dataclass(frozen=True)
class GraphStats:
    """Descriptive statistics of a weighted graph (the usual summary row)."""

    vertices: int
    edges: int
    components: int
    min_degree: int
    max_degree: int
    avg_degree: float
    min_weight: int
    max_weight: int
    avg_weight: float


def graph_stats(g: WeightedGraph) -> GraphStats:
    degrees = [g.degree(v) for v in range(g.n)] or [0]
    weights = list(g.weights) or [0]
    return GraphStats(
        vertices=g.n,
        edges=g.edge_count,
        components=len(connected_components(g)),
        min_degree=min(degrees),
        max_degree=max(degrees),
        avg_degree=2 * g.edge_count / g.n if g.n else 0.0,
        min_weight=min(weights),
        max_weight=max(weights),
        avg_weight=sum(weights) / g.n if g.n else 0.0,
    )
