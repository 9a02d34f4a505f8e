"""Seeded experiment grids over graph sources, coverage rates, and solvers.

Every cell's randomness comes from a child seed hashed out of (base seed,
graph id, alpha, algorithm, repetition), so adding an algorithm or source to
a config never perturbs the other cells.  Each solver output is re-checked by
the independent feasibility verifier before its row is recorded; an
infeasible output aborts the whole run.
"""
from __future__ import annotations

import csv
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from . import io as graph_io
from .community import community_rounding
from .generators import (GnmSpec, PlantedPartitionSpec, PowerlawClusterSpec,
                         WeightSpec, assign_weights)
from .graph import DominatingSet, DominationInstance, WeightedGraph, as_alpha, is_feasible
from .greedy import Strategy, greedy_dominate
from .rounding import randomized_rounding

CSV_HEADER = ["graph", "alpha", "algorithm", "size", "weight", "time_ms", "seed", "feasible"]


class ContractViolationError(RuntimeError):
    """A solver emitted an infeasible set; the run must not be trusted."""


def derive_seed(*parts) -> int:
    """Stable 64-bit child seed from arbitrary coordinates.

    Hash-based (not Python's salted hash), so the same coordinates give the
    same seed on every run and platform.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _solve_greedy(strategy: Strategy):
    def run(inst: DominationInstance, seed: int) -> DominatingSet:
        del seed  # deterministic; the seed is recorded but unused
        return greedy_dominate(inst, strategy)
    return run


# The rounding entries look their solver up in this module at call time, so a
# wrapper placed on alphadom.bench.randomized_rounding (the benchmark's
# tracer) sees every call made through the registry.
def _solve_rr(inst: DominationInstance, seed: int) -> DominatingSet:
    return randomized_rounding(inst, seed)


def _solve_rrwc(inst: DominationInstance, seed: int) -> DominatingSet:
    return community_rounding(inst, seed)


ALGORITHMS = {
    "greedy-s1": _solve_greedy(Strategy.S1),
    "greedy-s2": _solve_greedy(Strategy.S2),
    "greedy-s3": _solve_greedy(Strategy.S3),
    "rr": _solve_rr,
    "rrwc": _solve_rrwc,
}


# a generated source's parameters are its spec's fields (string annotations)
_GENERATORS = {"gnm": GnmSpec, "powerlaw-cluster": PowerlawClusterSpec,
               "planted-partition": PlantedPartitionSpec}
_FIELD_TYPES = {"int": int, "float": float}
_SOURCE_KEYS = {"file": {"edges", "weight_table", "bundle"},
                **{kind: {"count", "weights", *(f.name for f in fields(spec))}
                   for kind, spec in _GENERATORS.items()}}


@dataclass(frozen=True)
class GraphSource:
    """One named producer of graphs: a generator spec with a count, or files.

    Generated sources draw ``count`` graphs whose construction seeds derive
    from the experiment base seed, the source label, and the graph index;
    ``weights`` re-draws vertex weights uniformly from the given inclusive
    range (generator output is weight-1 otherwise).
    """

    label: str
    kind: str                      # gnm | powerlaw-cluster | planted-partition | file
    count: int = 1
    params: dict = field(default_factory=dict)
    weights: tuple[int, int] | None = None
    edge_path: str | None = None
    weight_path: str | None = None
    bundle_path: str | None = None

    def __post_init__(self):
        if self.kind not in _SOURCE_KEYS:
            raise ValueError(f"unknown source kind {self.kind!r}; "
                             f"known: {', '.join(sorted(_SOURCE_KEYS))}")
        if self.kind == "file" and self.edge_path is None and self.bundle_path is None:
            raise ValueError(f"file source {self.label!r} needs 'edges' or 'bundle'")

    def graph_ids(self) -> list[str]:
        if self.kind == "file":
            return [self.label]
        return [f"{self.label}-{i}" for i in range(self.count)]

    def build(self, index: int, base_seed: int) -> WeightedGraph:
        if self.kind == "file":
            if self.bundle_path is not None:
                return graph_io.read_graph_bundle(self.bundle_path)
            return graph_io.ingest_graph(self.edge_path, self.weight_path)
        spec = self._gen_spec()
        g = spec.generate(derive_seed(base_seed, "graph", self.label, index))
        if self.weights is not None:
            lo, hi = self.weights
            g = assign_weights(g, WeightSpec(lo, hi),
                               derive_seed(base_seed, "weights", self.label, index))
        return g

    def _gen_spec(self):
        spec = _GENERATORS[self.kind]
        return spec(**{f.name: _FIELD_TYPES[f.type](self.params[f.name])
                       for f in fields(spec)})


_CONFIG_KEYS = {"base_seed", "repetitions", "alphas", "algorithms", "sources"}


@dataclass(frozen=True)
class ExperimentConfig:
    sources: tuple[GraphSource, ...]
    alphas: tuple[Fraction, ...] = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    algorithms: tuple[str, ...] = ("greedy-s1", "greedy-s2", "greedy-s3", "rr", "rrwc")
    repetitions: int = 1
    base_seed: int = 0

    def __post_init__(self):
        if not self.sources or not self.alphas or not self.algorithms:
            raise ValueError("sources, alphas, and algorithms must all be nonempty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}; "
                                 f"known: {', '.join(sorted(ALGORITHMS))}")

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        unknown = sorted(set(payload) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}; "
                             f"known: {', '.join(sorted(_CONFIG_KEYS))}")
        sources = []
        for position, entry in enumerate(payload.get("sources", [])):
            entry = dict(entry)
            for key in ("label", "kind"):
                if key not in entry:
                    raise ValueError(f"sources[{position}] has no {key!r} key")
            keys = set(entry) - {"kind", "label"}
            weights = entry.pop("weights", None)
            source = GraphSource(
                label=entry.pop("label"), kind=entry.pop("kind"),
                count=int(entry.pop("count", 1)),
                weights=tuple(weights) if weights else None,
                edge_path=entry.pop("edges", None),
                weight_path=entry.pop("weight_table", None),
                bundle_path=entry.pop("bundle", None),
                params=entry,
            )
            unknown = sorted(keys - _SOURCE_KEYS[source.kind])
            if unknown:
                raise ValueError(f"source {source.label!r}: unknown key {unknown[0]!r}; accepted: "
                                 f"kind, label, {', '.join(sorted(_SOURCE_KEYS[source.kind]))}")
            sources.append(source)
        kwargs = {}
        if "alphas" in payload:
            kwargs["alphas"] = tuple(as_alpha(a) for a in payload["alphas"])
        if "algorithms" in payload:
            kwargs["algorithms"] = tuple(payload["algorithms"])
        if "repetitions" in payload:
            kwargs["repetitions"] = int(payload["repetitions"])
        if "base_seed" in payload:
            kwargs["base_seed"] = int(payload["base_seed"])
        return cls(sources=tuple(sources), **kwargs)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True)
class ResultRow:
    graph: str
    alpha: Fraction
    algorithm: str
    size: int
    weight: int
    time_ms: float
    seed: int
    feasible: bool


def _run_cell(inst: DominationInstance, graph_id: str, alpha: Fraction,
              algo: str, seed: int) -> ResultRow:
    solver = ALGORITHMS[algo]
    started = time.perf_counter()
    solution = solver(inst, seed)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    feasible = is_feasible(inst, solution)
    if not feasible:
        raise ContractViolationError(
            f"{algo} produced an infeasible set on {graph_id} at alpha={alpha}")
    if solution.total_weight != solution.recomputed_weight(inst.graph):
        raise ContractViolationError(f"{algo} corrupted its weight cache on {graph_id}")
    return ResultRow(graph_id, alpha, algo, len(solution), solution.total_weight,
                     elapsed_ms, seed, feasible)


def _cell_worker(args) -> ResultRow:
    return _run_cell(*args)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> tuple[list[ResultRow], dict]:
    """Run every (graph, alpha, algorithm, repetition) cell of the grid.

    Timing covers the solver call only.  Rows come back sorted by their grid
    coordinates regardless of scheduling, so the emitted CSV is byte-stable.
    Returns (rows, summary) where the summary aggregates each
    (source, alpha, algorithm) group.
    """
    tasks = []
    for source in cfg.sources:
        for index, graph_id in enumerate(source.graph_ids()):
            g = source.build(index, cfg.base_seed)
            for alpha in cfg.alphas:
                inst = DominationInstance(g, alpha)
                for algo in cfg.algorithms:
                    for rep in range(cfg.repetitions):
                        seed = derive_seed(cfg.base_seed, graph_id, alpha, algo, rep)
                        tasks.append((inst, graph_id, alpha, algo, seed))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_cell_worker, tasks, chunksize=1))
    else:
        rows = [_run_cell(*task) for task in tasks]

    # map preserves input order, so repetitions stay in sequence under this
    # stable sort and the output never depends on scheduling
    rows.sort(key=lambda r: (r.graph, r.alpha, r.algorithm))
    return rows, summarize(cfg, rows)


def summarize(cfg: ExperimentConfig, rows: list[ResultRow]) -> dict:
    """Per-(source, alpha, algorithm) means of size, weight, and time."""
    graph_to_source = {}
    for source in cfg.sources:
        for graph_id in source.graph_ids():
            graph_to_source[graph_id] = source.label
    groups: dict[tuple[str, str, str], list[ResultRow]] = {}
    for row in rows:
        key = (graph_to_source[row.graph], str(row.alpha), row.algorithm)
        groups.setdefault(key, []).append(row)
    cells = []
    for (label, alpha, algo) in sorted(groups):
        bucket = groups[(label, alpha, algo)]
        cells.append({
            "source": label,
            "alpha": alpha,
            "algorithm": algo,
            "runs": len(bucket),
            "mean_size": sum(r.size for r in bucket) / len(bucket),
            "mean_weight": sum(r.weight for r in bucket) / len(bucket),
            "mean_time_ms": sum(r.time_ms for r in bucket) / len(bucket),
        })
    return {"base_seed": cfg.base_seed, "repetitions": cfg.repetitions, "cells": cells}


def write_rows_csv(rows: list[ResultRow], path, include_timing: bool = True) -> None:
    """Fixed-header CSV; ``include_timing=False`` zeroes the timing column so
    two runs of the same config diff byte-for-byte."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            t = f"{r.time_ms:.3f}" if include_timing else "0.000"
            writer.writerow([r.graph, str(r.alpha), r.algorithm, r.size, r.weight,
                             t, r.seed, "true" if r.feasible else "false"])


def write_summary_json(summary: dict, path, include_timing: bool = True) -> None:
    payload = dict(summary)
    if not include_timing:
        payload["cells"] = [{**c, "mean_time_ms": 0.0} for c in summary["cells"]]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
