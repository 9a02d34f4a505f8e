"""Seeded experiment grids over graph sources, coverage rates, and solvers.

Every cell's randomness comes from a child seed hashed out of (base seed,
graph id, alpha, algorithm, repetition), so adding an algorithm or source to
a config never perturbs the other cells.  Each solver output is re-checked by
the independent feasibility verifier before its row is recorded; an
infeasible output aborts the whole run.

The generated source kinds are the :data:`~alphadom.generators.FAMILIES`
names.  Such a source's keys are its generator's parameters, plus ``count``
and ``weights``, checked against the parameter types when the config is
read, and it calls the generator directly.
"""
from __future__ import annotations

import csv
import hashlib
import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import io as graph_io
from .community import community_rounding
from .generators import FAMILIES, WeightSpec, assign_weights, family_params
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


_SOURCE_KEYS = {"file": {"edges", "weight_table", "bundle"},
                **{kind: {"count", "weights", *family_params(kind)} for kind in FAMILIES}}


def _param(label: str | None, key: str, value, kind: type):
    """A config ``value`` for ``key`` as ``kind``, where an int passes for a
    float; anything else is a ValueError that names the key and, for a
    source's value (``label`` given), the source."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and not isinstance(value, bool):
        return kind(value)
    where = "" if label is None else f"source {label!r}: "
    raise ValueError(f"{where}{key!r} must be {kind.__name__}, got {value!r}")


def _rate(value) -> Fraction:
    """An ``alphas`` entry: a number or fraction string in (0, 1]."""
    try:
        return as_alpha(value)
    except ValueError:
        raise ValueError(f"'alphas': {value!r} is not a coverage rate in (0, 1]") from None


@dataclass(frozen=True)
class GraphSource:
    """One named producer of graphs: a generated family with a count, or files.

    A generated source calls its :data:`~alphadom.generators.FAMILIES`
    function with ``params`` to draw ``count`` graphs, whose construction
    seeds derive from the experiment base seed, the source label, and the
    graph index; ``weights`` re-draws vertex weights uniformly from its
    range (generator output is weight-1 otherwise).  A file source's
    ``params`` hold its ``edges``, ``weight_table`` and ``bundle`` paths.
    """

    label: str
    kind: str                      # a generators.FAMILIES name, or "file"
    count: int = 1
    params: dict = field(default_factory=dict)
    weights: WeightSpec | None = None

    @classmethod
    def from_dict(cls, entry: dict, position: int) -> "GraphSource":
        """The config's ``sources[position]`` entry, checked key by key; each
        error is a one-line ValueError that names the source and the key."""
        if not isinstance(entry, dict):
            raise ValueError(f"sources[{position}] is not an object")
        for key in ("label", "kind"):
            if key not in entry:
                raise ValueError(f"sources[{position}] has no {key!r} key")
        label, kind = entry["label"], entry["kind"]
        if not isinstance(label, str):  # it names the graphs, their seeds and their rows
            raise ValueError(f"sources[{position}]: 'label' must be str, got {label!r}")
        if kind not in _SOURCE_KEYS:
            raise ValueError(f"unknown source kind {kind!r}; "
                             f"known: {', '.join(sorted(_SOURCE_KEYS))}")
        unknown = sorted(set(entry) - {"kind", "label"} - _SOURCE_KEYS[kind])
        if unknown:
            raise ValueError(f"source {label!r}: unknown key {unknown[0]!r}; accepted: "
                             f"kind, label, {', '.join(sorted(_SOURCE_KEYS[kind]))}")
        if kind == "file":
            if "edges" not in entry and "bundle" not in entry:
                raise ValueError(f"file source {label!r} needs 'edges' or 'bundle'")
            return cls(label, kind, params={key: _param(label, key, value, str)
                                            for key, value in entry.items()
                                            if key in _SOURCE_KEYS[kind]})
        params = {}
        for key, key_type in family_params(kind).items():
            if key not in entry:
                raise ValueError(f"source {label!r}: missing key {key!r}")
            params[key] = _param(label, key, entry[key], key_type)
        count = _param(label, "count", entry.get("count", 1), int)
        if count < 1:
            raise ValueError(f"source {label!r}: 'count' must be >= 1, got {count}")
        weights = None
        if "weights" in entry:
            pair = entry["weights"]
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"source {label!r}: 'weights' must be a [min, max] pair, "
                                 f"got {pair!r}")
            lo, hi = (_param(label, "weights", w, int) for w in pair)
            try:
                weights = WeightSpec(lo, hi)
            except ValueError as exc:
                raise ValueError(f"source {label!r}: 'weights': {exc}") from None
        return cls(label, kind, count, params, weights)

    def graph_ids(self) -> list[str]:
        if self.kind == "file":
            return [self.label]
        return [f"{self.label}-{i}" for i in range(self.count)]

    def build(self, index: int, base_seed: int) -> WeightedGraph:
        if self.kind == "file":
            if "bundle" in self.params:
                return graph_io.read_graph_bundle(self.params["bundle"])
            return graph_io.ingest_graph(self.params["edges"], self.params.get("weight_table"))
        g = FAMILIES[self.kind](**self.params,
                                seed=derive_seed(base_seed, "graph", self.label, index))
        if self.weights is not None:
            g = assign_weights(g, self.weights,
                               derive_seed(base_seed, "weights", self.label, index))
        return g


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
            if not isinstance(algo, str) or algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}; "
                                 f"known: {', '.join(sorted(ALGORITHMS))}")
        # a repeated id would share its rows' seeds, and its summary, with another
        ids = Counter(graph_id for source in self.sources for graph_id in source.graph_ids())
        for graph_id, uses in ids.items():
            if uses > 1:
                raise ValueError(f"graph id {graph_id!r} is given {uses} times; "
                                 "source labels must give distinct graph ids")

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        unknown = sorted(set(payload) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}; "
                             f"known: {', '.join(sorted(_CONFIG_KEYS))}")
        sources = tuple(GraphSource.from_dict(entry, position)
                        for position, entry in enumerate(payload.get("sources", [])))
        kwargs = {}
        if "alphas" in payload:
            kwargs["alphas"] = tuple(map(_rate, _param(None, "alphas", payload["alphas"], list)))
        if "algorithms" in payload:
            kwargs["algorithms"] = tuple(_param(None, "algorithms", payload["algorithms"], list))
        for key in ("repetitions", "base_seed"):
            if key in payload:
                kwargs[key] = _param(None, key, payload[key], int)
        return cls(sources=sources, **kwargs)

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


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> tuple[list[ResultRow], dict]:
    """Run every (graph, alpha, algorithm, repetition) cell of the grid, in
    this process or, when ``jobs`` and the cell count are both above 1, in
    a pool of ``min(jobs, cells)`` worker processes.

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

    # a pool starts all of its workers at the first submit, so it gets no
    # more than there are cells
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, *zip(*tasks), chunksize=1))
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
