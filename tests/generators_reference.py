"""The original samplers of the three families that ``alphadom.generators``
replaced, kept only as a reference for tests: the replacements must build
the same graph, edge for edge, for every (parameters, seed).

``reference_gnm`` rejection-samples vertex pairs into a dedup set;
``reference_planted_partition`` takes one geometric skip per draw;
``reference_powerlaw_cluster`` grows the graph with neighbour sets and
sorts the last preferential target's set on every triad-closure attempt.
"""
from __future__ import annotations

import math

import numpy as np

from alphadom import WeightedGraph


def reference_gnm(n: int, m: int, seed: int) -> WeightedGraph:
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


def reference_planted_partition(l: int, community_size: int, p_in: float, p_out: float,
                                seed: int) -> WeightedGraph:
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


def reference_powerlaw_cluster(n: int, edges_per_new_vertex: int, triangle_prob: float,
                               seed: int) -> WeightedGraph:
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
