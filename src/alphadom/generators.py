"""Seeded random graph construction: uniform G(n, m), triad-closure
preferential attachment, and planted partition, plus uniform integer weights.

:data:`FAMILIES` is the one registry of generated families: the CLI's
``generate`` choices and flags and the bench config's source kinds and keys
are read from it, and :func:`family_params` gives a family's parameters and
their types from its generator's signature.  A new family is one generator
function and one entry.

Determinism contract: the same (family, parameters, seed) always yields the
same graph in this implementation.  No attempt is made to match any external
library's RNG stream; only self-consistency is promised.  Every family takes
the draws of its original sampler, kept in ``tests/generators_reference.py``,
in their order, and so builds that sampler's graphs, edge for edge: G(n, m)
and the planted partition on whole arrays of draws, and powerlaw-cluster on
neighbour rows kept sorted as they grow.
"""
from __future__ import annotations

import math
import typing
from bisect import insort
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

    Draws vertex pairs in batches and keeps each pair not seen before, in draw
    order, until m are kept; efficient whenever m is well below n^2/2 and
    still uniform for dense m.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ValueError(f"m={m} exceeds the {max_m} possible edges on n={n} vertices")
    rng = np.random.default_rng(seed)
    kept = np.empty(0, dtype=np.int64)  # sorted keys min * n + max of the edges so far
    while len(kept) < m:
        batch = max(256, 2 * (m - len(kept)))
        us = rng.integers(0, n, size=batch)
        vs = rng.integers(0, n, size=batch)
        keys = (np.minimum(us, vs) * n + np.maximum(us, vs))[us != vs]
        # the first draw of each pair, in draw order: the least position of
        # each run of equal keys in sort order (numpy 2's np.unique hashes
        # int64, and a stable argsort is 5x slower than this one)
        order = np.argsort(keys)
        starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
        keys = keys[np.sort(np.minimum.reduceat(order, starts))]
        # then the pairs that no earlier batch kept (-1 pads past the end)
        known = np.append(kept, -1)[np.searchsorted(kept, keys)] == keys
        kept = np.sort(np.concatenate((kept, keys[~known][:m - len(kept)])))
    return WeightedGraph.from_edges(n, np.column_stack((kept // n, kept % n)))


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
    # each row ascends as it grows, so triad closure reads its candidates in order
    adj = [[v for v in range(seed_size) if v != u] for u in range(seed_size)]
    adj += [[] for _ in range(seed_size, n)]
    # sampling pool: each vertex appears once per unit of degree
    repeated = [v for v in range(seed_size) for _ in range(m0)]

    for source in range(seed_size, n):
        targets: list[int] = []  # m0 distinct preferential targets, in draw order
        while len(targets) < m0:
            cand = repeated[rng.integers(0, len(repeated))]
            if cand not in targets:
                targets.append(cand)
        row, preferential = adj[source], iter(targets)
        for step in range(m0):
            u = None
            if step and rng.random() < triangle_prob:
                eligible = [w for w in adj[target] if w != source and w not in row]
                if eligible:
                    u = eligible[rng.integers(0, len(eligible))]
            if u is None:
                u = target = next(preferential)
            # an existing edge still uses up its step and its pool entry
            if u not in row:
                insort(row, u)
                adj[u].append(source)  # above every vertex grown so far
            repeated.append(u)
        repeated.extend([source] * m0)

    return WeightedGraph(adj, [1] * n)


def _skip_runs(runs: int, total: int, p: float,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Successes of ``runs`` runs of ``total`` independent Bernoulli(p)
    slots each: the run and the slot of every success, in run order.

    Geometric skip sampling (Batagelj & Brandes, Phys. Rev. E 71, 2005):
    draw u jumps 1 + floor(log(u) / log(1 - p)) slots, and the draw that
    jumps past the last slot (or u = 0) ends the run, so a run of s successes
    takes s + 1 draws and O(p * total) expected work.  The draws come from
    ``rng`` in the order of a one-at-a-time loop, in chunks, and ``rng`` is
    left just after the last draw used.
    """
    if p <= 0.0 or total == 0 or runs == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return (np.repeat(np.arange(runs, dtype=np.int64), total),
                np.tile(np.arange(total, dtype=np.int64), runs))
    log_q = math.log1p(-p)
    end = total + 1  # a jump this long ends any run
    state = rng.bit_generator.state
    parts: list[np.ndarray] = []
    jumps = np.empty(0, dtype=np.int64)  # of the draws that no finished run used
    used = 0
    while len(parts) < runs:
        # the draws the remaining runs take, plus four deviations; no more
        # than keep the cumulative steps below 2^63
        expected = (runs - len(parts)) * (p * total + 1)
        chunk = min(int(expected + 4 * math.sqrt(expected)) + 16, (1 << 62) // end)
        u = rng.random(chunk)
        # math.log per draw: numpy's SIMD log may differ from libm by an ulp
        logs = np.fromiter(map(math.log, np.where(u > 0, u, 1.0).tolist()),
                           dtype=np.float64, count=chunk)
        with np.errstate(over="ignore"):  # p below about 1e-307 gives inf
            skips = np.minimum(logs / log_q, 2.0 ** 62)
        fresh = np.minimum(1 + skips.astype(np.int64), end)
        fresh[u <= 0] = end
        jumps = np.concatenate((jumps, fresh))
        # the run that starts at draw s holds slot steps[i] - steps[s] - 1
        # after draw i - 1, and ends at the first draw where that reaches total
        steps = np.concatenate(([0], np.cumsum(jumps)))
        start = 0
        while len(parts) < runs:
            stop = int(np.searchsorted(steps, steps[start] + end))
            if stop == len(steps):
                break
            parts.append(steps[start + 1:stop] - steps[start] - 1)
            start = stop
        used += start
        jumps = jumps[start:]
    rng.bit_generator.state = state
    rng.random(used)
    return (np.repeat(np.arange(runs, dtype=np.int64), [len(x) for x in parts]),
            np.concatenate(parts))


def _pairs_from_indices(idx: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode linear indices over the pairs (i, j), i < j, listed row by row."""
    def offset(i):  # row i holds size-1-i pairs
        return i * size - i * (i + 1) // 2

    # a float estimate of the row, then exact integer corrections
    i = ((2 * size - 1 - np.sqrt((2 * size - 1) ** 2 - 8 * idx)) / 2).astype(np.int64)
    while (high := offset(i) > idx).any():
        i -= high
    while (low := offset(i + 1) <= idx).any():
        i += low
    return i, idx - offset(i) + i + 1


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
    size = community_size

    # every block's pairs, then every block pair's, each run in turn
    block, idx = _skip_runs(l, size * (size - 1) // 2, p_in, rng)
    i, j = _pairs_from_indices(idx, size)
    first, second = np.triu_indices(l, 1)
    pair, idx = _skip_runs(len(first), size * size, p_out, rng)
    us = np.concatenate((block * size + i, first[pair] * size + idx // size))
    vs = np.concatenate((block * size + j, second[pair] * size + idx % size))
    return WeightedGraph.from_edges(l * size, np.column_stack((us, vs)))


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
