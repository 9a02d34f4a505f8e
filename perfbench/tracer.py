"""Spans at the program's layer boundaries, recorded from outside the program.

A :class:`Tracer` replaces named functions (``alphadom.rounding.solve_lp``,
``alphadom.community.louvain``, ...) with timing wrappers for the length of a
``with tracer:`` block and restores them afterwards.  Each wrapper records a
span: the point's key, its layer, start and end, the enclosing span, and a
few facts read from the call's arguments and result.  A name that no longer
exists is listed in ``missing`` and left unwrapped; the metrics that need it
then read as missing instead of failing the run.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

LAYERS = ("io", "graph", "greedy", "lp", "rounding", "community", "bench")


def _picked(args, result):
    return {"picked": len(result)}


def _partition(args, result):
    return {"partition": result}


def _lp(args, result):
    return {"objective": float(result.objective_value),
            "iterations": int(result.iterations), "vars": len(result.values)}


def _repair(args, result):
    before = args[1]
    return {"added": len(result) - len(before),
            "added_weight": result.total_weight - before.total_weight}


# (dotted name, layer, key, facts recorder): each name is where one layer
# calls into another; the key groups the points that feed one metric.
POINTS = (
    ("alphadom.io.ingest_graph", "io", "ingest", None),
    ("alphadom.graph.WeightedGraph.from_edges", "graph", "build", None),
    ("alphadom.graph.DominationInstance.__init__", "graph", "instance", None),
    ("alphadom.bench.greedy_dominate", "greedy", "greedy", _picked),
    ("alphadom.bench.randomized_rounding", "rounding", "rr", None),
    ("alphadom.bench.community_rounding", "community", "rrwc", None),
    ("alphadom.community.louvain", "community", "louvain", _partition),
    ("alphadom.rounding.build_lp", "lp", "build_lp", None),
    ("alphadom.community.build_lp", "lp", "build_lp", None),
    ("alphadom.rounding.solve_lp", "lp", "solve_lp", _lp),
    ("alphadom.community.solve_lp", "lp", "solve_lp", _lp),
    ("alphadom.rounding.round_once", "rounding", "pass", None),
    ("alphadom.community.round_once", "rounding", "pass", None),
    ("alphadom.rounding.repair", "rounding", "repair", _repair),
    ("alphadom.community.repair", "rounding", "repair", _repair),
    ("alphadom.rounding.is_feasible", "graph", "verify", None),
    ("alphadom.community.is_feasible", "graph", "verify", None),
    ("alphadom.rounding.coverage_counts", "graph", "coverage", None),
    ("alphadom.graph.WeightedGraph.subgraph", "graph", "subgraph", None),
)


@dataclass(eq=False)
class Span:
    key: str
    layer: str | None
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    facts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _resolve(dotted: str):
    """(owner, attribute) for a dotted name, or None when it does not exist."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


class Tracer:
    def __init__(self, points=POINTS):
        self.points = points
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for dotted, layer, key, facts in self.points:
            found = _resolve(dotted)
            if found is None:
                self.missing.append(dotted)
                continue
            owner, attr = found
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer, key, facts))
            else:
                wrapped = self._wrap(raw, layer, key, facts)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def missing_keys(self) -> set[str]:
        return {key for dotted, _, key, _ in self.points if dotted in self.missing}

    def _open(self, key: str, layer: str | None) -> Span:
        span = Span(key, layer, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None, op=self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer, key, facts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(key, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if facts is not None:
                try:
                    span.facts = facts(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the result changed shape: the metrics that need it read as missing
            return result
        return traced

    @contextlib.contextmanager
    def operation(self, key: str, layer: str | None, **facts):
        """One benchmark operation; its span is the root of every span
        recorded inside it."""
        self._op = len(self.spans)
        span = self._open(key, layer)
        span.facts = facts
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    @staticmethod
    def span_cost() -> float:
        """Seconds one wrapped call adds to the call it wraps, on a no-op."""
        def noop():
            return None

        calls = 20_000
        wrapped = Tracer(())._wrap(noop, None, "noop", None)
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return (time.perf_counter() - started - bare) / calls

    def within(self, op: Span, key: str) -> list[Span]:
        root = self.spans.index(op)
        return [s for s in self.spans if s.op == root and s.key == key and s is not op]

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the time its direct child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(self.spans):
            if s.layer is not None:
                out[s.layer] += s.seconds - child[i]
        return out

    def records(self):
        for i, s in enumerate(self.spans):
            facts = {k: v for k, v in s.facts.items() if k != "partition"}
            yield {"id": i, "key": s.key, "layer": s.layer, "parent": s.parent,
                   "op": s.op, "start": s.start, "end": s.end, **facts}
