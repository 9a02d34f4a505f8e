"""The C parser of edge lists and weight tables builds the graph of the
Python line scanners, declines every input on which Python's ``str.split``
and ``int`` could read differently, and leaves those (and every wrong line)
to the scanners, which report the same errors; without a compiler ingest
falls back to the scanners with one warning."""
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadom import IngestError, WeightedGraph, _native
from alphadom.generators import WeightSpec, assign_weights, gen_gnm
from alphadom.io import (_scan_edges, _scan_weight_table, ingest_graph, write_edge_list,
                         write_weight_table)

NATIVE = _native.ingest()
needs_native = pytest.mark.skipif(NATIVE is None, reason="no C compiler to build the parser")


def ingest_both(edge_path, weight_path=None):
    """ingest_graph's result, a graph or an IngestError's text, through the C
    parser and through the scanners alone."""
    results = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        for native in (NATIVE, None):
            monkeypatch.setattr(_native, "ingest", lambda: native)
            try:
                results.append(ingest_graph(edge_path, weight_path))
            except IngestError as exc:
                results.append(str(exc))
    return results


def assert_same_ingest(edge_path, weight_path=None):
    c_result, py_result = ingest_both(edge_path, weight_path)
    assert type(c_result) is type(py_result)
    if isinstance(py_result, WeightedGraph):
        assert c_result == py_result and c_result.labels == py_result.labels
    else:
        assert c_result == py_result
    return py_result


def write_files(directory, edge_bytes: bytes, weight_bytes: bytes | None):
    edge_path, weight_path = Path(directory) / "g.edges", Path(directory) / "g.weights"
    edge_path.write_bytes(edge_bytes)
    if weight_bytes is None:
        return edge_path, None
    weight_path.write_bytes(weight_bytes)
    return edge_path, weight_path


# labels of 8 bytes and longer share their first 8 bytes, so the parser must
# compare them whole; the weights include the largest the parser reads
CLEAN_LABELS = ["a", "b", "c7", "abcdefgh", "abcdefghi", "abcdefghij", "~!#"]
CLEAN_WEIGHTS = ["1", "2", "71", "999999999999999999"]
DECLINED_LABELS = ["été", "n\x00l", "d\x7fl"]
DECLINED_WEIGHTS = ["0", "007", "+3", "1_0", "-4", "x", "1000000000000000000",
                    "9223372036854775808"]
CLEAN_SEPS = [" ", "\t", " \t "]
DECLINED_SEPS = ["\x85", "\xa0", "\u3000", "\v", "\f", "\x1c", "\x1f"]


@st.composite
def files(draw, first, second, seps):
    """File text of lines with two tokens, or sometimes one or three, and
    blank lines; every line end of a text-mode read."""
    out = []
    for _ in range(draw(st.integers(0, 10))):
        k = draw(st.sampled_from([0, 2, 2, 2, 2, 1, 3]))
        words = [draw(first if i == 0 else second) for i in range(k)]
        pad = draw(st.sampled_from(["", " ", "\t"]))
        line = pad + draw(seps).join(words) + pad
        out.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    text = "".join(out)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@needs_native
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_same_graph_or_error_as_the_scanners(data):
    declined = data.draw(st.booleans())
    labels = st.sampled_from(CLEAN_LABELS + (DECLINED_LABELS if declined else []))
    weights = st.sampled_from(CLEAN_WEIGHTS + (DECLINED_WEIGHTS if declined else []))
    seps = st.sampled_from(CLEAN_SEPS + (DECLINED_SEPS if declined else []))
    weight_text = None
    if data.draw(st.booleans()):
        weight_text = data.draw(files(labels, weights, seps))
    edge_text = data.draw(files(labels, labels, seps))
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_ingest(*write_files(tmp, edge_text.encode(),
                                        None if weight_text is None else weight_text.encode()))


@needs_native
@pytest.mark.parametrize("label", ["{}", "vertex-{:07d}"])  # the long ones share 8 bytes
def test_round_trip_of_a_large_graph(tmp_path, label):
    g = assign_weights(gen_gnm(10_000, 30_000, 51), WeightSpec(1, 10**15), 52)
    g = WeightedGraph._from_csr(g.n, g.indptr, g.indices, g.weights,
                                [label.format(v) for v in range(g.n)])
    write_edge_list(g, tmp_path / "g.edges")
    write_weight_table(g, tmp_path / "g.weights")
    table, edges = ((tmp_path / name).read_bytes() for name in ("g.weights", "g.edges"))
    assert NATIVE(table, edges) is not None  # the parser read the files itself
    assert assert_same_ingest(tmp_path / "g.edges", tmp_path / "g.weights") == g
    # without the table: first appearance order, unit weights
    unweighted = assert_same_ingest(tmp_path / "g.edges")
    assert unweighted.n == g.n - sum(d == 0 for d in g.indptr[1:] - g.indptr[:-1])
    assert unweighted.edge_count == g.edge_count and set(unweighted.weights) == {1}


@needs_native
def test_labels_that_outgrow_the_line_count(tmp_path):
    # a matching: twice as many vertices as lines, so the label hash grows
    (tmp_path / "g.edges").write_text("".join(f"u{v} w{v}\n" for v in range(20_000)))
    assert NATIVE(None, (tmp_path / "g.edges").read_bytes()) is not None
    g = assert_same_ingest(tmp_path / "g.edges")
    assert g.n == 40_000 and g.labels[:4] == ("u0", "w0", "u1", "w1")


@needs_native
def test_labels_that_share_head_tag_and_slot_stay_apart():
    # found by search: their hashes agree in the 24 tag bits and in the slot
    # of a 1024-slot table, and they share their first 8 bytes, so only the
    # whole labels tell them apart
    a, b = "vertex-0468220", "vertex-0811965"
    labels, weights, ends = NATIVE(f"{a} 1\n{b} 2\n".encode(), f"{b} {a}\n".encode())
    assert labels == [a, b] and weights.tolist() == [1, 2] and ends.tolist() == [[1, 0]]
    labels, weights, ends = NATIVE(None, f"{a} {b}\n".encode())
    assert labels == [a, b] and ends.tolist() == [[0, 1]]


@needs_native
@pytest.mark.parametrize("with_table", [True, False])
def test_the_buffer_gives_the_scanners_labels(with_table):
    # every label shares its first 8 bytes with another, and a short one sits
    # between them; without a table the order is that of first appearance
    labels = [f"vertex-{v:07d}" for v in (5, 3, 11, 4, 12)] + ["x", "vertex-0", "vertex-00"]
    rng = np.random.default_rng(7)
    lines = [(labels[u], labels[v]) for u, v in rng.integers(0, len(labels), (40, 2)) if u != v]
    edges = "".join(f"{a}\t{b}\r\n" for a, b in lines).encode()
    table = "".join(f"{s} {w}\n" for w, s in enumerate(labels, 1)).encode()
    parsed, weights, _ = NATIVE(table if with_table else None, edges)
    if with_table:
        expected, expected_weights = _scan_weight_table("g.weights", table)
    else:
        expected = list(_scan_edges("g.edges", edges, None)[0])
        expected_weights = [1] * len(expected)
        assert expected == list(dict.fromkeys(s for line in lines for s in line))
    assert parsed == expected and weights.tolist() == expected_weights


@needs_native
def test_c_scanner_and_from_edges_give_equal_graphs(tmp_path):
    g = assign_weights(gen_gnm(2_000, 6_000, 61), WeightSpec(1, 10**15), 62)
    g = WeightedGraph.from_edges(g.n, np.array(list(g.edges())), g.weights,
                                 [f"vertex-{v:07d}" for v in range(g.n)])
    write_edge_list(g, tmp_path / "g.edges")
    write_weight_table(g, tmp_path / "g.weights")
    c_graph, py_graph = ingest_both(tmp_path / "g.edges", tmp_path / "g.weights")
    for h in (c_graph, py_graph, g):
        assert h == g
        assert all(type(w) is int for w in h.weights)
        assert not h.weight_array().flags.writeable and h.weight_array().tolist() == list(h.weights)
        assert isinstance(h.labels, tuple) and all(type(s) is str for s in h.labels)


TABLE = "a 3\nb 1\r\nc 2\rd 5"
EDGES = "a b\n\n c\td \r\nb c"

# (what declines, weight table or None, edge list): each differs from the
# accepted TABLE and EDGES in one place
DECLINES = [
    ("non-ASCII label", TABLE, EDGES + "\nété a"),
    ("no-break space", TABLE, EDGES.replace("a b", "a\xa0b")),
    ("next line", TABLE, EDGES.replace("a b", "a\x85b")),
    ("ideographic space", TABLE, EDGES.replace("a b", "a\u3000b")),
    ("vertical tab", TABLE, EDGES.replace("a b", "a\vb")),
    ("form feed", None, EDGES.replace("a b", "a\fb")),
    ("file separator", TABLE, EDGES.replace("a b", "a\x1cb")),
    ("unit separator", None, EDGES.replace("a b", "a\x1fb")),
    ("NUL inside a label", None, EDGES.replace("a b", "a\x00x b")),
    ("DEL inside a label", None, EDGES.replace("a b", "a\x7fx b")),
    ("one token", TABLE, EDGES.replace("a b", "a")),
    ("three tokens", TABLE, EDGES.replace("a b", "a b c")),
    ("table line of one token", TABLE.replace("b 1", "b"), EDGES),
    ("weight 0", TABLE.replace("b 1", "b 0"), EDGES),
    ("weight 007", TABLE.replace("b 1", "b 007"), EDGES),
    ("weight +3", TABLE.replace("b 1", "b +3"), EDGES),
    ("weight 1_0", TABLE.replace("b 1", "b 1_0"), EDGES),
    ("weight -4", TABLE.replace("b 1", "b -4"), EDGES),
    ("weight 1.5", TABLE.replace("b 1", "b 1.5"), EDGES),
    ("weight of 19 digits", TABLE.replace("b 1", "b 1000000000000000000"), EDGES),
    ("weight 2**63", TABLE.replace("b 1", "b 9223372036854775808"), EDGES),
    ("duplicate table label", TABLE + "\nb 4", EDGES),
    ("self-loop", TABLE, EDGES.replace("b c", "c c")),
    ("endpoint missing from the table", TABLE, EDGES + "\na e"),
]


@needs_native
def test_the_unchanged_files_are_read_by_the_parser():
    graph = NATIVE(TABLE.encode(), EDGES.encode())
    assert graph is not None and graph[0] == ["a", "b", "c", "d"]
    assert NATIVE(None, EDGES.encode())[0] == ["a", "b", "c", "d"]


@needs_native
@pytest.mark.parametrize("rule, table, edges", DECLINES, ids=[d[0] for d in DECLINES])
def test_each_decline_gives_the_scanners_result(tmp_path, rule, table, edges):
    table_bytes = None if table is None else table.encode()
    assert NATIVE(table_bytes, edges.encode()) is None
    assert_same_ingest(*write_files(tmp_path, edges.encode(), table_bytes))


@needs_native
@pytest.mark.parametrize("table, edges", [(TABLE, EDGES + "\na \xff"),
                                          (TABLE + "\n\xff 1", EDGES),
                                          (None, EDGES.replace("c", "\xc3"))])
def test_non_utf8_declines_to_the_same_error(tmp_path, table, edges):
    latin1 = None if table is None else table.encode("latin-1")
    assert NATIVE(latin1, edges.encode("latin-1")) is None
    error = assert_same_ingest(*write_files(tmp_path, edges.encode("latin-1"), latin1))
    assert "is not UTF-8" in error


def test_ingest_warns_once_without_a_compiler(tmp_path, monkeypatch):
    shutil.copy(_native.SOURCE, tmp_path)
    monkeypatch.setattr(_native, "SOURCE", tmp_path / _native.SOURCE.name)
    monkeypatch.setattr(_native, "COMPILER", str(tmp_path / "no-such-compiler"))
    (tmp_path / "g.edges").write_text(EDGES)
    (tmp_path / "g.weights").write_text(TABLE)
    _native.ingest.cache_clear()
    try:
        with pytest.warns(RuntimeWarning,
                          match="parsed in Python.*no-such-compiler") as record:
            graphs = [ingest_graph(tmp_path / "g.edges", tmp_path / "g.weights")
                      for _ in range(2)]
    finally:
        _native.ingest.cache_clear()  # the next call loads the real build again
    assert len(record) == 1
    assert graphs[0] == graphs[1] and graphs[0].labels == ("a", "b", "c", "d")
    assert graphs[0].weights == (3, 1, 2, 5)
