"""Weighted-graph data model and the coverage arithmetic shared by every solver.

A graph is immutable once built, and so is a :class:`DominatingSet`, one
sorted int64 array of members built from a membership mask.  A graph's
topology is held once, as CSR arrays (``indptr``, ``indices``) from which
the closed neighbourhoods (A + I) that coverage and the LP read, induced
subgraphs and, on first use, the tuple rows that Python loops read are all
derived.  :meth:`WeightedGraph.from_edges` builds the CSR arrays with one
sort of the edge keys.  Labels are checked once, by the constructor or
``from_edges``, and held as a :class:`_Labels`, which derived graphs and
the file parsers (whose labels are distinct by construction) hand over
without a second check; int64 weight arrays are checked in numpy.  The
cached weight and demand arrays are read-only, like the CSR arrays.  The
coverage threshold of a vertex ``v`` is ``ceil(alpha * (deg(v) + 1))`` and
is computed with exact rational arithmetic, so a threshold never moves
because of a float rounding artifact.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

AlphaLike = Fraction | str | float | int


def as_alpha(value: AlphaLike) -> Fraction:
    """Normalize a coverage rate to an exact Fraction in (0, 1].

    Floats, numpy's included, are routed through their decimal string form,
    so ``as_alpha(0.1)`` is exactly 1/10 rather than the binary expansion of
    ``0.1``.  A boolean, or anything else that is not a number or a fraction
    string, raises ValueError.
    """
    alpha = None
    if not isinstance(value, bool):
        try:
            alpha = (Fraction(str(value)) if isinstance(value, (float, np.floating))
                     else Fraction(value))
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    if alpha is None:
        raise ValueError(f"coverage rate must be a number or a fraction string, got {value!r}")
    if not 0 < alpha <= 1:
        raise ValueError(f"coverage rate must be in (0, 1], got {alpha}")
    return alpha


def _as_indices(values, n: int) -> np.ndarray:
    """Vertex indices as int64; Python ints past the int64 range clamp to -1
    or n, which keeps them out of range."""
    arr = np.asarray(values)
    if arr.dtype == object:
        arr = np.clip(arr, -1, n)
    elif arr.size and arr.dtype.kind not in "iu":
        raise TypeError(f"vertex indices must be integers, not {arr.dtype}")
    return arr.astype(np.int64)


def _vertices(values: Iterable[int], n: int) -> np.ndarray:
    """Vertex indices as int64; ValueError names the first one outside 0..n-1."""
    if not isinstance(values, np.ndarray):
        values = list(values)
    arr = _as_indices(values, n)
    bad = (arr < 0) | (arr >= n)
    if bad.any():
        raise ValueError(f"vertex {values[int(np.argmax(bad))]} out of range for n={n}")
    return arr


def _indptr(lengths: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def _rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every entry of the CSR arrays that ``indptr`` bounds."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Labels(tuple):
    """Vertex labels already known to be distinct strs: a graph adopts them
    without converting or checking them again."""

    __slots__ = ()


def _checked_labels(labels: Sequence[str] | None, n: int) -> _Labels | None:
    """The labels as strs, checked to be n distinct ones; a :class:`_Labels`
    of length n is returned as it is."""
    if labels is None or (type(labels) is _Labels and len(labels) == n):
        return labels
    labels = _Labels(map(str, labels))
    if len(labels) != n:
        raise ValueError("label count does not match vertex count")
    if len(set(labels)) != n:
        raise ValueError("vertex labels must be unique")
    return labels


class WeightedGraph:
    """Undirected simple graph with positive integer vertex weights.

    Vertices are dense indices ``0 .. n-1``.  Optional string labels map
    bijectively to indices and are used only at the file-format boundary.
    The neighbours of ``v`` are ``indices[indptr[v]:indptr[v+1]]``, sorted
    ascending; the solvers read these CSR arrays, and their index-ordered
    scans pin down every deterministic tie-break.  ``adjacency[v]`` is the
    same row as a tuple of Python ints (all rows are built on first access).
    Weights stay Python ints, so they may exceed the int64 range.
    """

    __slots__ = ("n", "indptr", "indices", "weights", "labels", "_adjacency",
                 "_label_index", "_weight_array", "_closed", "_partition", "_keys")

    def __init__(self, adjacency: Sequence[Sequence[int]],
                 weights: Sequence[int],
                 labels: Sequence[str] | None = None):
        n = len(adjacency)
        rows = list(map(tuple, adjacency))
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        flat = list(chain.from_iterable(rows))
        indices = _as_indices(flat, n)
        indptr = _indptr(lengths)
        owner = _rows(indptr)
        rising = np.ones(len(indices), dtype=bool)
        rising[1:] = indices[1:] > indices[:-1]
        rising[indptr[:-1][lengths > 0]] = True  # a row's first entry
        bad = (indices < 0) | (indices >= n) | (indices == owner) | ~rising
        if bad.any():
            k = int(np.argmax(bad))
            v, u = int(owner[k]), flat[k]
            if not 0 <= u < n:
                raise ValueError(f"neighbor {u} of vertex {v} out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {v}")
            raise ValueError(f"neighbor list of {v} not sorted/unique")
        # the rows are sorted and in range, so the (row, col) keys ascend; the
        # graph is symmetric iff the (col, row) keys are the same set
        keys = owner * n + indices
        mirrors = indices * n + owner
        if not np.array_equal(keys, np.sort(mirrors)):
            k = int(np.argmax(~np.isin(mirrors, keys)))
            raise ValueError(f"edge {owner[k]}-{indices[k]} missing its mirror")
        self._set(n, indptr, indices, weights, _checked_labels(labels, n))

    @classmethod
    def _from_csr(cls, n: int, indptr: np.ndarray, indices: np.ndarray,
                  weights: Sequence[int] | np.ndarray,
                  labels: Sequence[str] | None) -> "WeightedGraph":
        """A graph from CSR arrays already known to be sorted and symmetric.

        Labels that are a :class:`_Labels` are proven distinct strs and are
        adopted as they are; any other labels are checked as the
        constructor checks them.
        """
        g = cls.__new__(cls)
        g._set(n, indptr, indices, weights, _checked_labels(labels, n))
        return g

    def _set(self, n, indptr, indices, weights, labels: _Labels | None) -> None:
        if len(weights) != n:
            raise ValueError(f"{len(weights)} weights for {n} vertices")
        array = None
        if isinstance(weights, np.ndarray) and weights.dtype == np.int64 and weights.ndim == 1:
            # checked in numpy; the graph keeps its own read-only copy
            if n and weights.min() < 1:
                raise ValueError("vertex weights must be >= 1")
            array = _frozen(weights.copy())
            w = tuple(array.tolist())
        else:
            try:
                if bool in map(type, weights):  # operator.index reads True as 1
                    raise TypeError
                w = tuple(map(operator.index, weights))
            except TypeError:
                v, bad = next((v, x) for v, x in enumerate(weights)
                              if isinstance(x, bool) or not hasattr(x, "__index__"))
                raise ValueError(f"weight {bad!r} of vertex {v} is not an integer") from None
            if w and min(w) < 1:
                raise ValueError("vertex weights must be >= 1")
        self.n = n
        self.indptr = _frozen(indptr)
        self.indices = _frozen(indices)
        self.weights: tuple[int, ...] = w
        self.labels: tuple[str, ...] | None = labels
        self._adjacency: tuple[tuple[int, ...], ...] | None = None
        self._label_index: dict[str, int] | None = None
        self._weight_array: np.ndarray | None = array
        self._closed: tuple[np.ndarray, np.ndarray] | None = None
        self._partition = None  # set by community.louvain on its first call
        self._keys: dict = {}  # strategy -> greedy._keys, filled on first use

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] | np.ndarray,
                   weights: Sequence[int] | np.ndarray | None = None,
                   labels: Sequence[str] | None = None) -> "WeightedGraph":
        """Build a graph from (u, v) pairs, an iterable or an (m, 2) array;
        duplicate edges collapse.

        Self-loops are rejected.  ``weights`` defaults to all ones; an int64
        array of them is checked in numpy and copied, never modified.
        """
        pairs = edges if isinstance(edges, np.ndarray) else list(edges)
        ends = _as_indices(pairs, n)
        if ends.size == 0:
            ends = ends.reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        a, b = ends[:, 0], ends[:, 1]
        bad = (a < 0) | (a >= n) | (b < 0) | (b >= n) | (a == b)
        if bad.any():
            u, v = pairs[int(np.argmax(bad))]
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            raise ValueError(f"self-loop at vertex {u}")
        # each edge in both orientations as a key row * n + col, sorted once;
        # dedupe by diff: numpy 2's np.unique hashes int64 keys, ~40x slower
        both = np.sort(np.concatenate((a * n + b, b * n + a)))
        both = both[np.diff(both, prepend=-1) != 0]
        rows = both // n
        if weights is None:
            weights = np.ones(n, dtype=np.int64)
        return cls._from_csr(n, _indptr(np.bincount(rows, minlength=n)), both - rows * n,
                             weights, labels)

    # -- basic accessors ----------------------------------------------------

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Every row as a tuple of Python ints.  Built once, on first access."""
        if self._adjacency is None:
            # one int object per vertex, shared by every row that lists it: a
            # loop over the rows then reads n ints, not one per entry
            flat = np.arange(self.n).astype(object)[self.indices].tolist()
            bounds = self.indptr.tolist()
            self._adjacency = tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
        return self._adjacency

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.indices[self.indptr[v]:self.indptr[v + 1]].tolist())

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once as (u, v) with u < v, in ascending order."""
        owners = _rows(self.indptr)
        upper = owners < self.indices
        return zip(owners[upper].tolist(), self.indices[upper].tolist())

    def weight_array(self) -> np.ndarray:
        """The weights as a read-only int64 array, built once; ValueError
        names the first weight past that range."""
        if self._weight_array is None:
            try:
                self._weight_array = _frozen(np.asarray(self.weights, dtype=np.int64))
            except OverflowError:
                limit = int(np.iinfo(np.int64).max)
                v = next(v for v, w in enumerate(self.weights) if w > limit)
                raise ValueError(f"vertex {self.label_of(v)} has weight {self.weights[v]}, "
                                 f"past the int64 limit {limit}") from None
        return self._weight_array

    def closed_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of A + I: each row holds v and its neighbours,
        sorted ascending.  Built once, read-only."""
        if self._closed is None:
            owners = _rows(self.indptr)
            indptr = self.indptr + np.arange(self.n + 1, dtype=np.int64)
            indices = np.empty(indptr[-1], dtype=np.int64)
            # every entry moves down by its row number, and one more past the diagonal
            indices[np.arange(len(owners)) + owners + (self.indices > owners)] = self.indices
            below = np.bincount(owners[self.indices < owners], minlength=self.n)
            indices[indptr[:-1] + below] = np.arange(self.n)
            self._closed = (_frozen(indptr), _frozen(indices))
        return self._closed

    def closed_neighborhood(self, v: int) -> np.ndarray:
        """Sorted index array of v together with its neighbors (a read-only view)."""
        indptr, indices = self.closed_csr()
        return indices[indptr[v]:indptr[v + 1]]

    def max_degree(self) -> int:
        """Maximum vertex degree; 0 for an edgeless graph."""
        return int(np.diff(self.indptr).max()) if self.n else 0

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def index_of(self, label: str) -> int:
        if self.labels is None:
            try:
                v = int(label)
            except ValueError:
                raise KeyError(label) from None
            if not 0 <= v < self.n or str(v) != label:  # only label_of's spelling
                raise KeyError(label)
            return v
        if self._label_index is None:
            self._label_index = {s: i for i, s in enumerate(self.labels)}
        return self._label_index[label]

    # -- derived graphs ------------------------------------------------------

    def with_weights(self, weights: Sequence[int] | np.ndarray) -> "WeightedGraph":
        """Same topology and labels, new weight vector; an int64 array of
        weights is checked in numpy and copied, never modified."""
        return WeightedGraph._from_csr(self.n, self.indptr, self.indices, weights, self.labels)

    def subgraph(self, vertices: Iterable[int]) -> tuple["WeightedGraph", np.ndarray]:
        """Induced subgraph on ``vertices`` plus the local->global index map."""
        keep = np.zeros(self.n, dtype=bool)
        keep[_vertices(vertices, self.n)] = True
        verts = np.flatnonzero(keep)
        lengths = np.diff(self.indptr)[verts]
        # the entries of the kept rows, row after row
        starts = self.indptr[verts] - np.cumsum(lengths) + lengths
        cols = self.indices[np.repeat(starts, lengths) + np.arange(lengths.sum())]
        inside = keep[cols]
        rows = np.repeat(np.arange(len(verts), dtype=np.int64), lengths)[inside]
        local = np.cumsum(keep) - 1
        order = verts.tolist()
        weights = [self.weights[v] for v in order]
        labels = None if self.labels is None else _Labels(map(self.labels.__getitem__, order))
        sub = WeightedGraph._from_csr(len(order), _indptr(np.bincount(rows, minlength=len(order))),
                                      local[cols[inside]], weights, labels)
        return sub, verts

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and self.weights == other.weights and self.labels == other.labels)

    __hash__ = None  # value equality above; graphs are not dict keys

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.edge_count})"


def demands(alpha: Fraction, sizes: np.ndarray) -> np.ndarray:
    """``ceil(alpha * s)`` for every closed-neighbourhood size s of an int64
    array, by integer ceiling division once per distinct size: Python ints,
    so a large-denominator alpha cannot overflow int64."""
    num, den = alpha.numerator, alpha.denominator
    distinct = np.flatnonzero(np.bincount(sizes))
    by_size = np.zeros(len(distinct) and distinct[-1] + 1, dtype=np.int64)
    by_size[distinct] = [-((-num * s) // den) for s in distinct.tolist()]
    return by_size[sizes]


class DominationInstance:
    """A weighted graph paired with the coverage rate alpha in (0, 1].

    Per-vertex demands ``ceil(alpha * (deg + 1))`` are precomputed at
    construction time by :func:`demands`, as an int64 array.
    """

    __slots__ = ("graph", "alpha", "_demand_array")

    def __init__(self, graph: WeightedGraph, alpha):
        self.graph = graph
        self.alpha = as_alpha(alpha)
        self._demand_array = _frozen(demands(self.alpha, np.diff(graph.indptr) + 1))

    def demand(self, v: int) -> int:
        """Required closed-neighborhood coverage of v; always in [1, deg(v) + 1]."""
        return int(self._demand_array[v])

    def demand_array(self) -> np.ndarray:
        """Every vertex's demand, as a read-only int64 array."""
        return self._demand_array

    def __repr__(self) -> str:
        return f"DominationInstance(n={self.graph.n}, alpha={self.alpha})"


_INT64_LIMIT = 2**63


def _exact_weights(g: WeightedGraph) -> np.ndarray:
    """The weights as an array on which numpy sums distinct entries exactly:
    the read-only int64 :meth:`WeightedGraph.weight_array` while the largest
    weight times n is below 2**63, so that no such sum can wrap, and Python
    ints as objects otherwise (also when a weight is past int64)."""
    try:
        w = g.weight_array()
    except ValueError:
        w = None
    if w is not None and int(w.max(initial=0)) * g.n < _INT64_LIMIT:
        return w
    return np.array(g.weights, dtype=object)


class DominatingSet:
    """Candidate solution: its members as one sorted, unique, read-only int64
    array, with their total weight.

    Built once, by :meth:`from_mask` or :meth:`from_members`, and never
    modified; the weight can be audited against a fresh sum at any time.
    """

    __slots__ = ("vertices", "total_weight")

    def __init__(self, vertices: np.ndarray, total_weight: int):
        self.vertices = vertices
        self.total_weight = total_weight

    @classmethod
    def empty(cls) -> "DominatingSet":
        return cls(_frozen(np.zeros(0, dtype=np.int64)), 0)

    @classmethod
    def from_mask(cls, g: WeightedGraph, mask: np.ndarray) -> "DominatingSet":
        """The vertices whose entry of the length-n ``mask`` is nonzero."""
        vertices = _frozen(np.flatnonzero(mask))
        return cls(vertices, int(_exact_weights(g)[vertices].sum()))

    @classmethod
    def from_members(cls, g: WeightedGraph, members: Iterable[int]) -> "DominatingSet":
        mask = np.zeros(g.n, dtype=bool)
        mask[_vertices(members, g.n)] = True
        return cls.from_mask(g, mask)

    @property
    def members(self) -> frozenset[int]:
        """The members as Python ints, built on each read."""
        return frozenset(self.vertices.tolist())

    def recomputed_weight(self, g: WeightedGraph) -> int:
        return sum(g.weights[v] for v in self.vertices.tolist())

    def as_sorted_tuple(self) -> tuple[int, ...]:
        return tuple(self.vertices.tolist())

    def __contains__(self, v: int) -> bool:
        i = int(np.searchsorted(self.vertices, v))
        return i < len(self.vertices) and self.vertices[i] == v

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"DominatingSet(size={len(self.vertices)}, weight={self.total_weight})"


@dataclass(frozen=True)
class DeficiencyReport:
    """Vertices whose coverage falls short of demand, with the shortfall amount."""

    shortfalls: dict[int, int] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return not self.shortfalls


def coverage_count(g: WeightedGraph, candidate, v: int) -> int:
    """|N[v] ∩ D| where N[v] is the closed neighborhood."""
    return sum(u in candidate for u in (v, *g.neighbors(v)))


def coverage_counts(g: WeightedGraph, candidate) -> np.ndarray:
    """Closed-neighborhood coverage of every vertex at once.

    Equivalent to stacking :func:`coverage_count` over all vertices, as one
    sum of the membership mask over each row of A + I.
    """
    member = np.zeros(g.n, dtype=np.int64)
    if isinstance(candidate, DominatingSet):
        candidate = candidate.vertices
    member[_vertices(candidate, g.n)] = 1
    if g.n == 0:
        return member
    indptr, indices = g.closed_csr()
    return np.add.reduceat(member[indices], indptr[:-1])


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


def connected_components(g: WeightedGraph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest member."""
    bounds, flat = g.indptr.tolist(), g.indices.tolist()
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
            for u in flat[bounds[v]:bounds[v + 1]]:
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
    degrees = np.diff(g.indptr) if g.n else np.zeros(1, dtype=np.int64)
    weights = list(g.weights) or [0]
    return GraphStats(
        vertices=g.n,
        edges=g.edge_count,
        components=len(connected_components(g)),
        min_degree=int(degrees.min()),
        max_degree=int(degrees.max()),
        avg_degree=2 * g.edge_count / g.n if g.n else 0.0,
        min_weight=min(weights),
        max_weight=max(weights),
        avg_weight=sum(weights) / g.n if g.n else 0.0,
    )
