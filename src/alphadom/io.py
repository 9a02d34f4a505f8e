"""File formats: edge lists, weight tables, JSON bundles, and solution files.

The native on-disk shape is a plain-text edge list (two whitespace-separated
labels per line) plus a separate weight table (label and positive integer per
line).  When a weight table is given it defines the vertex universe and the
index order: vertices listed only there become isolated vertices, and an edge
endpoint missing from the table is an error, never a silent default.  Without
a weight table, vertices are the edge-list labels in order of first
appearance and all weights are 1.

Files are UTF-8, with the line ends of a text-mode read (``\\n``, ``\\r\\n``
or a lone ``\\r``); a byte that is not UTF-8 is an :class:`IngestError` at
its line.  :func:`ingest_graph` reads both files as bytes and parses them
with the C kernel of :func:`alphadom._native.ingest`, which reads only
printable ASCII tokens between spaces and tabs and declines anything else,
and every wrong line.  The line scanners (:func:`_scan_weight_table`,
:func:`_scan_edges`) then read the files: they define the formats (tokens
as ``str.split`` draws them, weights as ``int`` reads them), report the
first wrong line, and are the whole path when no C compiler is available.
"""
from __future__ import annotations

import json
from itertools import count
from pathlib import Path

from . import _native
from .graph import DominatingSet, WeightedGraph, _Labels


class IngestError(ValueError):
    """Malformed or inconsistent input file; carries file and line context."""

    def __init__(self, path, lineno: int | None, message: str):
        where = f"{path}:{lineno}: " if lineno is not None else f"{path}: "
        super().__init__(where + message)
        self.path = str(path)
        self.lineno = lineno


def _lines(path, data: bytes):
    """(line number, line) of the file's bytes decoded as UTF-8, with the
    line ends of a text-mode read (\\n, \\r\\n or a lone \\r).  When a byte
    is not UTF-8, the lines before its line come first and the
    :class:`IngestError` for its line is then raised, so a scanner reports
    whichever wrong line comes first."""
    try:
        text, error = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        error = IngestError(path, lineno, f"byte {data[exc.start]:#04x} is not UTF-8")
        text = head[:max(head.rfind(b"\n"), head.rfind(b"\r")) + 1].decode("utf-8")
    yield from enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1)
    if error is not None:
        raise error


def _scan_weight_table(path, data: bytes) -> tuple[list[str], list[int]]:
    """Line-by-line reader: raises on the first wrong line of the file."""
    labels: list[str] = []
    weights: dict[str, int] = {}
    for lineno, raw in _lines(path, data):
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


def _scan_edges(path, data: bytes, table: dict[str, int] | None):
    """Line-by-line reader: raises on the first wrong line of the file."""
    index = table if table is not None else {}
    ends: list[tuple[int, int]] = []
    for lineno, raw in _lines(path, data):
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
    abort with the offending line number.  The C kernel parses the files;
    the line scanners read them when it declines or cannot be built.  Both
    yield distinct str labels (a repeated table label is declined or an
    error, and edge-only labels are hash keys), which the graph adopts
    without checking them again.
    """
    table_data = Path(weight_path).read_bytes() if weight_path is not None else None
    edge_data = Path(edge_path).read_bytes()
    native = _native.ingest()
    parsed = native(table_data, edge_data) if native is not None else None
    if parsed is not None:
        labels, weights, ends = parsed
        return WeightedGraph.from_edges(len(labels), ends, weights, _Labels(labels))
    table = None
    if table_data is not None:
        labels, weights = _scan_weight_table(weight_path, table_data)
        table = dict(zip(labels, count()))
    index, ends = _scan_edges(edge_path, edge_data, table)
    if table is None:
        labels, weights = list(index), [1] * len(index)
    return WeightedGraph.from_edges(len(labels), ends, weights, _Labels(labels))


def _labels_of(g: WeightedGraph, vertices) -> list[str]:
    """The labels of ``vertices``.  A label must read back as itself: one
    token with no whitespace in or around it; ValueError names the first
    vertex whose label is not."""
    labels = [g.label_of(v) for v in vertices]
    for v, label in zip(vertices, labels):
        if label.split() != [label]:
            raise ValueError(f"vertex {v} has label {label!r}, which would not read back "
                             "as one whitespace-free token")
    return labels


def write_edge_list(g: WeightedGraph, path) -> None:
    """One edge per line, ascending (u, v) order, using the graph's labels."""
    labels = _labels_of(g, range(g.n))
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.edges():
            fh.write(f"{labels[u]} {labels[v]}\n")


def write_weight_table(g: WeightedGraph, path) -> None:
    """Every vertex in index order, so a re-ingest reproduces the same indexing."""
    labels = _labels_of(g, range(g.n))
    with open(path, "w", encoding="utf-8") as fh:
        for label, w in zip(labels, g.weights):
            fh.write(f"{label} {w}\n")


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


def _bundle_labels(value) -> list[str] | None:
    """A bundle's labels: null, or a JSON list of strings; ValueError names
    the first entry that is not a string."""
    if value is not None and not isinstance(value, list):
        raise ValueError(f"labels {value!r} are not a list")
    for v, label in enumerate(value or ()):
        if not isinstance(label, str):
            raise ValueError(f"label {label!r} of vertex {v} is not a string")
    return value


def read_graph_bundle(path) -> WeightedGraph:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return WeightedGraph.from_edges(
            _bundle_int(payload["n"], "vertex count"),
            [(_bundle_int(u, "edge endpoint"), _bundle_int(v, "edge endpoint"))
             for u, v in payload["edges"]],
            payload["weights"],
            _bundle_labels(payload.get("labels")),
        )
    except IngestError:
        raise
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise IngestError(path, None, f"bad graph bundle: {exc}") from exc


def write_solution(g: WeightedGraph, solution: DominatingSet, path) -> None:
    """One member label per line, ascending index order."""
    labels = _labels_of(g, solution.as_sorted_tuple())
    with open(path, "w", encoding="utf-8") as fh:
        for label in labels:
            fh.write(f"{label}\n")


def read_solution(g: WeightedGraph, path) -> DominatingSet:
    members = []
    for lineno, raw in _lines(path, Path(path).read_bytes()):
        label = raw.strip()
        if not label:
            continue
        try:
            members.append(g.index_of(label))
        except KeyError:
            raise IngestError(path, lineno, f"unknown vertex label {label!r}") from None
    return DominatingSet.from_members(g, members)
