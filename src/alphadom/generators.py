"""Seeded random graph construction: uniform G(n, m), triad-closure
preferential attachment, and planted partition, plus uniform integer weights.

:data:`FAMILIES` is the one registry of generated families: the CLI's
``generate`` choices and flags and the bench config's source kinds and keys
are read from it, and :func:`family_params` gives a family's parameters and
their types from its generator's signature.  A new family is one generator
function and one entry.

Determinism contract: the same (family, parameters, seed) always yields the
same graph in this implementation.  No attempt is made to match any external
library's RNG stream; only self-consistency is promised.
"""
from __future__ import annotations

import math
import typing
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph


@dataclass(frozen=True)
class WeightSpec:
    """Uniform integer weights over the inclusive range {min, ..., max}."""

    min: int = 1
    max: int = 71

    def __post_init__(self):
        if self.min < 1 or self.max < self.min:
            raise ValueError(f"bad weight range [{self.min}, {self.max}]")


def assign_weights(g: WeightedGraph, spec: WeightSpec, seed: int) -> WeightedGraph:
    """Redraw every vertex weight i.i.d. uniform on {spec.min, ..., spec.max}.

    Weights are drawn in vertex-index order from a stream owned by this call,
    so the same (graph, spec, seed) always produces the same weight vector.
    """
    rng = np.random.default_rng(seed)
    return g.with_weights(rng.integers(spec.min, spec.max + 1, size=g.n, dtype=np.int64))


def gen_gnm(n: int, m: int, seed: int) -> WeightedGraph:
    """Uniform sample from all simple graphs with exactly n vertices and m edges.

    Rejection-samples vertex pairs into a dedup set; efficient whenever m is
    well below n^2/2 and still uniform for dense m.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ValueError(f"m={m} exceeds the {max_m} possible edges on n={n} vertices")
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        batch = max(256, 2 * (m - len(edges)))
        us = rng.integers(0, n, size=batch)
        vs = rng.integers(0, n, size=batch)
        for u, v in zip(us, vs):
            if u == v:
                continue
            e = (int(u), int(v)) if u < v else (int(v), int(u))
            edges.add(e)
            if len(edges) == m:
                break
    return WeightedGraph.from_edges(n, edges)


def gen_powerlaw_cluster(n: int, edges_per_new_vertex: int, triangle_prob: float,
                         seed: int) -> WeightedGraph:
    """Growth model with preferential attachment and triad closure.

    Starts from a complete seed graph on ``edges_per_new_vertex + 1``
    vertices.  Each later vertex attaches ``edges_per_new_vertex`` times: the
    first attachment is preferential, and each subsequent one is, with
    probability ``triangle_prob``, an edge to a random neighbor of the most
    recent preferential target (closing a triangle), falling back to
    preferential attachment when no eligible neighbor exists.  An attachment
    landing on an existing edge is kept as a no-op, so the final edge count
    can fall slightly short of the nominal n * edges_per_new_vertex.
    """
    m0 = edges_per_new_vertex
    if m0 < 1:
        raise ValueError("edges_per_new_vertex must be >= 1")
    if n <= m0:
        raise ValueError(f"need n > edges_per_new_vertex, got n={n}, epnv={m0}")
    if not 0.0 <= triangle_prob <= 1.0:
        raise ValueError(f"triangle probability {triangle_prob} outside [0, 1]")

    rng = np.random.default_rng(seed)
    seed_size = m0 + 1
    adj: list[set[int]] = [set() for _ in range(n)]
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            adj[u].add(v)
            adj[v].add(u)
    # sampling pool: each vertex appears once per unit of degree
    repeated: list[int] = []
    for v in range(seed_size):
        repeated.extend([v] * m0)

    for source in range(seed_size, n):
        # m0 distinct preferential targets, in draw order
        targets: list[int] = []
        chosen: set[int] = set()
        while len(targets) < m0:
            cand = repeated[rng.integers(0, len(repeated))]
            if cand not in chosen:
                chosen.add(cand)
                targets.append(cand)
        pos = 0
        target = targets[pos]
        pos += 1
        adj[source].add(target)
        adj[target].add(source)
        repeated.append(target)
        count = 1
        while count < m0:
            if rng.random() < triangle_prob:
                eligible = [u for u in sorted(adj[target])
                            if u != source and u not in adj[source]]
                if eligible:
                    u = eligible[rng.integers(0, len(eligible))]
                    adj[source].add(u)
                    adj[u].add(source)
                    repeated.append(u)
                    count += 1
                    continue
            target = targets[pos]
            pos += 1
            adj[source].add(target)  # may already exist: no-op, still consumes the slot
            adj[target].add(source)
            repeated.append(target)
            count += 1
        repeated.extend([source] * m0)

    return WeightedGraph([sorted(s) for s in adj], [1] * n)


def _sample_pair_indices(total: int, p: float, rng: np.random.Generator) -> list[int]:
    """Indices of successes among ``total`` independent Bernoulli(p) slots.

    Geometric skip sampling: expected work is O(p * total) instead of O(total).
    """
    if p <= 0.0 or total == 0:
        return []
    if p >= 1.0:
        return list(range(total))
    out = []
    log_q = math.log1p(-p)
    idx = -1
    while True:
        u = rng.random()
        if u <= 0.0:
            break
        idx += 1 + int(math.log(u) / log_q)
        if idx >= total:
            break
        out.append(idx)
    return out


def _pair_from_index(idx: int, size: int) -> tuple[int, int]:
    """Decode a linear index over the pairs (i, j), i < j, listed row by row."""
    # row i holds size-1-i pairs; offset(i) = i*size - i*(i+1)/2
    i = int((2 * size - 1 - math.sqrt((2 * size - 1) ** 2 - 8 * idx)) / 2)
    while i * size - i * (i + 1) // 2 > idx:
        i -= 1
    while (i + 1) * size - (i + 1) * (i + 2) // 2 <= idx:
        i += 1
    j = idx - (i * size - i * (i + 1) // 2) + i + 1
    return i, j


def gen_planted_partition(l: int, community_size: int, p_in: float, p_out: float,
                          seed: int) -> WeightedGraph:
    """l blocks of ``community_size`` vertices; intra-block pairs are edges with
    probability p_in, inter-block pairs with p_out.

    Vertices of block b are the contiguous range [b*community_size,
    (b+1)*community_size), so the ground-truth assignment is available via
    :func:`planted_block_assignment` without carrying metadata around.
    """
    if l < 1 or community_size < 1:
        raise ValueError("need l >= 1 and community_size >= 1")
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name}={p} outside [0, 1]")
    rng = np.random.default_rng(seed)
    n = l * community_size
    edges: list[tuple[int, int]] = []

    intra_pairs = community_size * (community_size - 1) // 2
    for b in range(l):
        base = b * community_size
        for idx in _sample_pair_indices(intra_pairs, p_in, rng):
            i, j = _pair_from_index(idx, community_size)
            edges.append((base + i, base + j))

    inter_pairs = community_size * community_size
    for a in range(l):
        for b in range(a + 1, l):
            base_a, base_b = a * community_size, b * community_size
            for idx in _sample_pair_indices(inter_pairs, p_out, rng):
                edges.append((base_a + idx // community_size,
                              base_b + idx % community_size))

    return WeightedGraph.from_edges(n, edges)


def planted_block_assignment(l: int, community_size: int) -> list[int]:
    """Ground-truth block id of every vertex of a planted-partition graph."""
    return [v // community_size for v in range(l * community_size)]


FAMILIES = {
    "gnm": gen_gnm,
    "powerlaw-cluster": gen_powerlaw_cluster,
    "planted-partition": gen_planted_partition,
}
"""Every generated graph family by name.  A family's generator takes its
parameters by keyword and the construction seed as ``seed``."""


def family_params(family: str) -> dict[str, type]:
    """Name and type of each parameter of ``family``'s generator, in
    signature order, ``seed`` excepted."""
    hints = typing.get_type_hints(FAMILIES[family])
    return {name: kind for name, kind in hints.items() if name not in ("seed", "return")}
