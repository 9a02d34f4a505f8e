"""The benchmark's workloads: which graphs, alphas and algorithms each runs,
and how its input files are drawn from the workload seed.

``er-dense`` and ``plp-modular`` draw their graphs with ``alphadom.generators``
(the paper's dense random and modular families); ``hub-sparse`` draws a
mentions-like graph here, as the paper's Twitter-mention graphs are not in
the repository.  Every graph is written as a labelled edge list plus a weight
table and is loaded back with ``alphadom.io.ingest_graph``.

Each workload's graphs are fixed: one draw with a constant generator seed.
The workload seed sets the order of the weight table (so the vertex indices,
scan orders and tie-breaks of every solver), the order and orientation of the
edge lines, and the solver seeds.  Redrawing the graphs per seed moved the
LP time by about 20% and the mean weights by 6-17% from seed to seed, which
would hide any change the bounds are meant to catch.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from alphadom import generators

from checker import RefGraph

QUARTER, HALF = Fraction(1, 4), Fraction(1, 2)
ALL = ("greedy-s1", "greedy-s2", "greedy-s3", "rr", "rrwc")
GREEDY = ("greedy-s1", "greedy-s2", "greedy-s3")
GRAPH_SEED = 2016
WEIGHTS = generators.WeightSpec(1, 71)


def derive(*parts) -> int:
    """Stable 63-bit seed from arbitrary coordinates."""
    digest = hashlib.sha256("\x1f".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _labelled(g) -> RefGraph:
    pairs = np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2)
    names = np.random.default_rng(derive(GRAPH_SEED, "labels")).permutation(g.n)
    return RefGraph(g.n, pairs[:, 0].copy(), pairs[:, 1].copy(),
                    np.asarray(g.weights, dtype=np.int64),
                    tuple(f"v{x}" for x in names))


def er_graph() -> RefGraph:
    """G(800, 8000) with weights 1..71: the paper's dense random family."""
    g = generators.gen_gnm(800, 8000, derive(GRAPH_SEED, "gnm"))
    return _labelled(generators.assign_weights(g, WEIGHTS, derive(GRAPH_SEED, "weights")))


def plp_graph() -> RefGraph:
    """Planted partition, 10 blocks of 100, p_in 0.2, p_out 0.001."""
    g = generators.gen_planted_partition(10, 100, 0.2, 0.001, derive(GRAPH_SEED, "plp"))
    return _labelled(generators.assign_weights(g, WEIGHTS, derive(GRAPH_SEED, "weights")))


def mentions_graph(n: int, seed: int = GRAPH_SEED) -> RefGraph:
    """Mentions-like graph on n accounts with about 1.5 edges per account.

    Every account mentions once plus n/2 extra mentions at random; targets
    are drawn with popularity proportional to 1/(rank + 2.5), so at n=10^5
    the top hub has several thousand neighbours.  Self-mentions are dropped
    and repeated mentions collapse to one edge.
    """
    rng = np.random.default_rng(seed)
    mentions = n * 3 // 2
    popularity = 1.0 / (np.arange(n) + 2.5)
    account_of_rank = rng.permutation(n)
    src = np.concatenate([np.arange(n), rng.integers(0, n, size=mentions - n)])
    dst = account_of_rank[rng.choice(n, size=mentions, p=popularity / popularity.sum())]
    keep = src != dst
    lo = np.minimum(src[keep], dst[keep]).astype(np.int64)
    hi = np.maximum(src[keep], dst[keep]).astype(np.int64)
    keys = np.unique(lo * n + hi)
    weights = rng.integers(WEIGHTS.min, WEIGHTS.max + 1, size=n).astype(np.int64)
    names = rng.permutation(n)
    return RefGraph(n, keys // n, keys % n, weights, tuple(f"@{x}" for x in names))


@dataclass(frozen=True)
class GraphSpec:
    """One input graph of a workload and what runs on it each round.

    A round holds ``blocks`` blocks per graph; a block loads the files once
    and calls every algorithm once per alpha, the randomized ones with a
    solver seed of their own.
    """

    name: str
    draw: Callable[[], RefGraph]
    alphas: tuple[Fraction, ...]
    algorithms: tuple[str, ...]
    blocks: int

    def solver_seed(self, seed: int, alpha: Fraction, algorithm: str, block: int) -> int:
        return derive(seed, self.name, alpha, algorithm, block)


# Three or more blocks per round give every timed cell three or more calls
# to take a median of, and rr and rrwc three or more solver seeds; the cheap
# graphs get more, as single rr calls jitter by about 10% on a shared host.
WORKLOADS: dict[str, tuple[GraphSpec, ...]] = {
    "er-dense": (
        GraphSpec("er800", er_graph, (QUARTER, HALF), ALL, blocks=3),
    ),
    "plp-modular": (
        GraphSpec("plp10x100", plp_graph, (QUARTER,), ALL, blocks=5),
    ),
    "hub-sparse": (
        GraphSpec("mentions100k", lambda: mentions_graph(100_000), (QUARTER, HALF), GREEDY,
                  blocks=3),
        GraphSpec("mentions500", lambda: mentions_graph(500), (QUARTER, HALF), ALL,
                  blocks=10),
    ),
}


def write_inputs(ref: RefGraph, directory: Path, name: str, seed: int) -> tuple[Path, Path]:
    """Weight table in a seeded vertex order, and edge lines in a seeded
    order and orientation."""
    rng = np.random.default_rng(derive(seed, name, "file-order"))
    vertex_order = rng.permutation(ref.n)
    order = rng.permutation(len(ref.u))
    flip = rng.random(len(ref.u)) < 0.5
    a = np.where(flip, ref.v, ref.u)[order]
    b = np.where(flip, ref.u, ref.v)[order]
    labels = ref.labels
    weights = ref.weights.tolist()
    edge_path = directory / f"{name}.edges"
    weight_path = directory / f"{name}.weights"
    edge_path.write_text("".join(f"{labels[x]} {labels[y]}\n"
                                 for x, y in zip(a.tolist(), b.tolist())), encoding="utf-8")
    weight_path.write_text("".join(f"{labels[x]} {weights[x]}\n"
                                   for x in vertex_order.tolist()), encoding="utf-8")
    return edge_path, weight_path
