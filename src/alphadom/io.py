"""File formats: edge lists, weight tables, JSON bundles, and solution files.

The native on-disk shape is a plain-text edge list (two whitespace-separated
labels per line) plus a separate weight table (label and positive integer per
line).  When a weight table is given it defines the vertex universe and the
index order: vertices listed only there become isolated vertices, and an edge
endpoint missing from the table is an error, never a silent default.  Without
a weight table, vertices are the edge-list labels in order of first
appearance and all weights are 1.
"""
from __future__ import annotations

import json
import operator
from itertools import count
from pathlib import Path

import numpy as np

from .graph import DominatingSet, WeightedGraph


class IngestError(ValueError):
    """Malformed or inconsistent input file; carries file and line context."""

    def __init__(self, path, lineno: int | None, message: str):
        where = f"{path}:{lineno}: " if lineno is not None else f"{path}: "
        super().__init__(where + message)
        self.path = str(path)
        self.lineno = lineno


def _pair_tokens(path) -> list[str] | None:
    """The file's tokens in order when every non-blank line holds two, else
    None; also None when the file is not UTF-8, so that a line scan raises
    where the line-by-line reader would."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    # the per-line lists die at once, so they never trigger the cyclic GC
    if not set(map(len, map(str.split, text.split("\n")))) <= {0, 2}:
        return None
    return text.split()


def _bulk_weight_table(path) -> tuple[list[str], list[int]] | None:
    """The table parsed in bulk, or None when any line is wrong."""
    tokens = _pair_tokens(path)
    if tokens is None:
        return None
    labels = tokens[0::2]
    try:
        weights = list(map(int, tokens[1::2]))
    except ValueError:
        return None
    if min(weights, default=1) < 1 or len(set(labels)) < len(labels):
        return None
    return labels, weights


def _scan_weight_table(path) -> tuple[list[str], list[int]]:
    """Line-by-line reader: raises on the first wrong line of the file."""
    labels: list[str] = []
    weights: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise IngestError(path, lineno, f"expected 'label weight', got {line!r}")
            label, text = parts
            try:
                w = int(text)
            except ValueError:
                raise IngestError(path, lineno, f"weight {text!r} is not an integer") from None
            if w < 1:
                raise IngestError(path, lineno, f"non-positive weight {w} for {label!r}")
            if label in weights:
                raise IngestError(path, lineno, f"duplicate weight entry for {label!r}")
            labels.append(label)
            weights[label] = w
    return labels, list(weights.values())


def _bulk_edges(path, table: dict[str, int] | None):
    """(label index, (m, 2) endpoint array) parsed in bulk, or None when any
    line is wrong."""
    tokens = _pair_tokens(path)
    if tokens is None or any(map(operator.eq, tokens[0::2], tokens[1::2])):
        return None
    # without a table, vertices are numbered in order of first appearance
    index = table if table is not None else dict(zip(dict.fromkeys(tokens), count()))
    try:
        ends = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    except KeyError:
        return None
    return index, ends.reshape(-1, 2)


def _scan_edges(path, table: dict[str, int] | None):
    """Line-by-line reader: raises on the first wrong line of the file."""
    index = table if table is not None else {}
    ends: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise IngestError(path, lineno, f"expected 'label label', got {line!r}")
            a, b = parts
            if a == b:
                raise IngestError(path, lineno, f"self-loop at {a!r}")
            for s in (a, b):
                if s not in index:
                    if table is not None:
                        raise IngestError(path, lineno, f"label {s!r} has no weight entry")
                    index[s] = len(index)
            ends.append((index[a], index[b]))
    return index, ends


def ingest_graph(edge_path, weight_path=None) -> WeightedGraph:
    """Build a weighted graph from an edge list and an optional weight table.

    Duplicate edge lines collapse to one edge; self-loops and malformed lines
    abort with the offending line number.  Each file is read and split in
    bulk; only when that finds a wrong line is it scanned line by line, so
    the first wrong line of the file is the one reported.
    """
    if weight_path is not None:
        labels, weights = _bulk_weight_table(weight_path) or _scan_weight_table(weight_path)
        table = dict(zip(labels, count()))
    else:
        table = None
    index, ends = _bulk_edges(edge_path, table) or _scan_edges(edge_path, table)
    if table is None:
        labels, weights = list(index), [1] * len(index)
    return WeightedGraph.from_edges(len(labels), ends, weights, labels)


def write_edge_list(g: WeightedGraph, path) -> None:
    """One edge per line, ascending (u, v) order, using the graph's labels."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.edges():
            fh.write(f"{g.label_of(u)} {g.label_of(v)}\n")


def write_weight_table(g: WeightedGraph, path) -> None:
    """Every vertex in index order, so a re-ingest reproduces the same indexing."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in range(g.n):
            fh.write(f"{g.label_of(v)} {g.weights[v]}\n")


def write_graph_bundle(g: WeightedGraph, path) -> None:
    """Self-contained JSON fixture: vertex count, edges, weights, labels."""
    payload = {
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges()],
        "weights": list(g.weights),
        "labels": list(g.labels) if g.labels is not None else None,
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _bundle_int(value, what: str) -> int:
    """A bundle's JSON integer; a float, string or boolean is a ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} {value!r} is not an integer")


def read_graph_bundle(path) -> WeightedGraph:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return WeightedGraph.from_edges(
            _bundle_int(payload["n"], "vertex count"),
            [(_bundle_int(u, "edge endpoint"), _bundle_int(v, "edge endpoint"))
             for u, v in payload["edges"]],
            payload["weights"],
            payload.get("labels"),
        )
    except IngestError:
        raise
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise IngestError(path, None, f"bad graph bundle: {exc}") from exc


def write_solution(g: WeightedGraph, solution: DominatingSet, path) -> None:
    """One member label per line, ascending index order."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in solution.as_sorted_tuple():
            fh.write(f"{g.label_of(v)}\n")


def read_solution(g: WeightedGraph, path) -> DominatingSet:
    members = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            label = raw.strip()
            if not label:
                continue
            try:
                members.append(g.index_of(label))
            except KeyError:
                raise IngestError(path, lineno, f"unknown vertex label {label!r}") from None
    return DominatingSet.from_members(g, members)
