"""File-format round trips and the experiment harness."""
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadom import (ExperimentConfig, GraphSource, IngestError, WeightSpec,
                      assign_weights, derive_seed, gen_gnm, graph_stats,
                      ingest_graph, read_graph_bundle, read_solution,
                      run_experiment, summarize, write_edge_list,
                      write_graph_bundle, write_rows_csv, write_solution,
                      write_summary_json, write_weight_table)
from alphadom import bench
from alphadom.bench import CSV_HEADER
from alphadom.graph import DominatingSet, WeightedGraph, connected_components


class TestIngest:
    def test_duplicate_edge_lines_collapse(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("a b\nb a\n")
        g = ingest_graph(p)
        assert g.n == 2 and g.edge_count == 1
        assert g.labels == ("a", "b")

    def test_self_loop_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("a b\nc c\n")
        with pytest.raises(IngestError, match=r"g\.edges:2: self-loop"):
            ingest_graph(p)

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("a b c\n")
        with pytest.raises(IngestError, match="expected"):
            ingest_graph(p)

    def test_weight_table_defines_universe_and_order(self, tmp_path):
        edges = tmp_path / "g.edges"
        weights = tmp_path / "g.weights"
        edges.write_text("b c\n")
        weights.write_text("a 10\nb 20\nc 30\n")
        g = ingest_graph(edges, weights)
        assert g.labels == ("a", "b", "c")
        assert g.weights == (10, 20, 30)
        assert g.degree(0) == 0  # weight-only vertex is isolated

    def test_edge_label_missing_from_weight_table_is_fatal(self, tmp_path):
        edges = tmp_path / "g.edges"
        weights = tmp_path / "g.weights"
        edges.write_text("a z\n")
        weights.write_text("a 10\n")
        with pytest.raises(IngestError, match="no weight entry"):
            ingest_graph(edges, weights)

    def test_nonpositive_weight_rejected(self, tmp_path):
        weights = tmp_path / "g.weights"
        weights.write_text("a 0\n")
        (tmp_path / "g.edges").write_text("")
        with pytest.raises(IngestError, match="non-positive"):
            ingest_graph(tmp_path / "g.edges", weights)

    def test_no_weight_table_defaults_to_unit_weights(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("x y\ny z\n")
        g = ingest_graph(p)
        assert g.weights == (1, 1, 1)

    def test_twitter_shaped_file(self, tmp_path):
        # sparse mention-network shape: many tiny components, isolated
        # vertices in the weight table, weights in [10, 71]
        import numpy as np
        rng = np.random.default_rng(8)
        edges, weights, label = [], {}, 0
        for comp in range(215):
            size = int(rng.integers(1, 5))
            verts = [f"u{label + i}" for i in range(size)]
            label += size
            for i in range(1, size):
                edges.append((verts[i - 1], verts[i]))
            for v in verts:
                weights[v] = int(rng.integers(10, 72))
        ep, wp = tmp_path / "tw.edges", tmp_path / "tw.weights"
        ep.write_text("".join(f"{a} {b}\n" for a, b in edges))
        wp.write_text("".join(f"{v} {w}\n" for v, w in weights.items()))
        g = ingest_graph(ep, wp)
        st = graph_stats(g)
        assert st.vertices == label
        assert st.edges == len(edges)
        assert st.components == 215
        assert 10 <= st.min_weight and st.max_weight <= 71


def reference_ingest(edge_text: str, weight_text: str | None):
    """Line-by-line reading of the file formats, independent of alphadom.io.

    Returns ("edges" or "weights", line number, message) for the first wrong
    line, else (labels, weights, edges as a set of sorted index pairs).
    """
    def lines(text):  # the newline translation of a text-mode read
        return enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1)

    labels, weight_of = [], {}
    for lineno, line in lines(weight_text or ""):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            return ("weights", lineno, f"expected 'label weight', got {line.strip()!r}")
        label, text = parts
        try:
            w = int(text)
        except ValueError:
            return ("weights", lineno, f"weight {text!r} is not an integer")
        if w < 1:
            return ("weights", lineno, f"non-positive weight {w} for {label!r}")
        if label in weight_of:
            return ("weights", lineno, f"duplicate weight entry for {label!r}")
        labels.append(label)
        weight_of[label] = w
    index = {s: i for i, s in enumerate(labels)}
    edges = set()
    for lineno, line in lines(edge_text):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            return ("edges", lineno, f"expected 'label label', got {line.strip()!r}")
        a, b = parts
        if a == b:
            return ("edges", lineno, f"self-loop at {a!r}")
        for s in parts:
            if s not in index:
                if weight_text is not None:
                    return ("edges", lineno, f"label {s!r} has no weight entry")
                index[s] = len(labels)
                labels.append(s)
        edges.add(tuple(sorted((index[a], index[b]))))
    return labels, [weight_of.get(s, 1) for s in labels], edges


LABELS = ["a", "b", "c", "d", "\u00e9t\u00e9", "n\x00l"]
# the first VALID_WEIGHTS are integers of at least 1 to Python's int()
WEIGHT_TEXTS = ["1", "2", "71", "+3", "007", "1_0", "9223372036854775808",
                "0", "-4", "x", "1.5"]
VALID_WEIGHTS = 7
# Unicode and ASCII whitespace beyond space and tab, which str.split() splits on
SEPARATORS = [" ", "\t", "  ", " \t", "\x85", "\xa0", "\u3000", "\v", "\x1c"]


@st.composite
def table_files(draw, tokens, clean):
    """File text: blank lines, tabs, CRLF or CR line ends; with ``clean``
    every non-blank line has two tokens."""
    counts = [0, 2] if clean else [0, 1, 2, 2, 2, 3]
    out = []
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.sampled_from(counts))
        seps = [draw(st.sampled_from(SEPARATORS)) for _ in range(k)]
        words = [draw(tokens(i)) for i in range(k)]
        pad = draw(st.sampled_from(["", " ", "\t"]))
        line = pad + "".join(w + s for w, s in zip(words, seps)).rstrip(" \t") + pad
        out.append(line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])))
    text = "".join(out)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ingest_errors_match_a_line_by_line_reader(data):
    clean = data.draw(st.booleans())
    label = st.sampled_from(LABELS)
    with_table = data.draw(st.booleans())
    weight_text = None
    if with_table:
        weight_value = st.sampled_from(WEIGHT_TEXTS[:VALID_WEIGHTS] if clean
                                        else WEIGHT_TEXTS)
        weight_text = data.draw(table_files(lambda i: label if i == 0 else weight_value,
                                            clean and data.draw(st.booleans())))
    edge_text = data.draw(table_files(lambda i: label, clean))
    expected = reference_ingest(edge_text, weight_text)
    with tempfile.TemporaryDirectory() as tmp:
        edge_path, weight_path = Path(tmp) / "g.edges", Path(tmp) / "g.weights"
        edge_path.write_bytes(edge_text.encode("utf-8"))
        if weight_text is not None:
            weight_path.write_bytes(weight_text.encode("utf-8"))
        args = (edge_path, weight_path if weight_text is not None else None)
        if isinstance(expected[0], str):
            which, lineno, message = expected
            path = edge_path if which == "edges" else weight_path
            with pytest.raises(IngestError) as info:
                ingest_graph(*args)
            assert (info.value.path, info.value.lineno) == (str(path), lineno)
            assert str(info.value) == f"{path}:{lineno}: {message}"
        else:
            labels, weights, edges = expected
            g = ingest_graph(*args)
            assert g.labels == tuple(labels) and g.weights == tuple(weights)
            assert set(g.edges()) == edges and g.edge_count == len(edges)


class TestRoundTrips:
    def test_write_then_ingest_reproduces_graph(self, tmp_path):
        g = assign_weights(gen_gnm(40, 120, 5), WeightSpec(1, 71), 6)
        write_edge_list(g, tmp_path / "g.edges")
        write_weight_table(g, tmp_path / "g.weights")
        back = ingest_graph(tmp_path / "g.edges", tmp_path / "g.weights")
        assert back.adjacency == g.adjacency
        assert back.weights == g.weights
        # a second trip is fully identical, labels included
        write_edge_list(back, tmp_path / "h.edges")
        write_weight_table(back, tmp_path / "h.weights")
        again = ingest_graph(tmp_path / "h.edges", tmp_path / "h.weights")
        assert again == back

    def test_bundle_round_trip(self, tmp_path):
        g = assign_weights(gen_gnm(25, 60, 7), WeightSpec(2, 9), 8)
        write_graph_bundle(g, tmp_path / "g.json")
        assert read_graph_bundle(tmp_path / "g.json") == g

    def test_bad_bundle_reports_ingest_error(self, tmp_path):
        (tmp_path / "bad.json").write_text("{\"n\": 2}")
        with pytest.raises(IngestError):
            read_graph_bundle(tmp_path / "bad.json")

    @pytest.mark.parametrize("labels, message", [
        (["a", "b", "a"], "vertex labels must be unique"),
        (["a", "b"], "label count does not match vertex count"),
    ])
    def test_bundle_labels_are_checked(self, tmp_path, labels, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1]], "weights": [1, 2, 3],
                                    "labels": labels}))
        with pytest.raises(IngestError) as info:
            read_graph_bundle(path)
        assert str(info.value) == f"{path}: bad graph bundle: {message}"

    def test_solution_round_trip(self, tmp_path):
        g = WeightedGraph.from_edges(3, [(0, 1)], [5, 1, 3], labels=["x", "y", "z"])
        d = DominatingSet.from_members(g, [0, 2])
        write_solution(g, d, tmp_path / "sol.txt")
        assert (tmp_path / "sol.txt").read_text() == "x\nz\n"
        assert read_solution(g, tmp_path / "sol.txt").members == {0, 2}

    @pytest.mark.parametrize("bad", ["", "a b", " a", "a\nb"])
    def test_writers_refuse_a_label_that_would_not_read_back(self, tmp_path, bad):
        g = WeightedGraph.from_edges(2, [(0, 1)], [3, 1], labels=[bad, "c"])
        writers = {"g.edges": lambda path: write_edge_list(g, path),
                   "g.weights": lambda path: write_weight_table(g, path),
                   "sol.txt": lambda path: write_solution(g, DominatingSet.from_members(g, [0]),
                                                          path)}
        for name, write in writers.items():
            with pytest.raises(ValueError, match=re.escape(f"vertex 0 has label {bad!r}")):
                write(tmp_path / name)
            assert not (tmp_path / name).exists()

    @pytest.mark.parametrize("line", ["1_0", "+1", "\u0663", "01"])
    def test_solution_label_on_an_unlabeled_graph_is_its_index_as_written(self, tmp_path,
                                                                          line):
        # int() reads each of these as a vertex, but label_of spells none of them
        write_graph_bundle(gen_gnm(12, 20, 3), tmp_path / "g.json")
        g = read_graph_bundle(tmp_path / "g.json")
        assert g.labels is None
        (tmp_path / "sol.txt").write_text(line + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match="unknown vertex label"):
            read_solution(g, tmp_path / "sol.txt")
        (tmp_path / "sol.txt").write_text("10\n1\n3\n")
        assert read_solution(g, tmp_path / "sol.txt").members == {1, 3, 10}

    def test_solution_unknown_label(self, tmp_path):
        g = WeightedGraph.from_edges(2, [(0, 1)], [1, 1], labels=["a", "b"])
        (tmp_path / "sol.txt").write_text("q\n")
        with pytest.raises(IngestError, match="unknown vertex label"):
            read_solution(g, tmp_path / "sol.txt")


def tiny_config(**overrides):
    payload = {
        "base_seed": 42,
        "repetitions": 2,
        "alphas": ["1/4", "1/2"],
        "algorithms": ["greedy-s1", "rr"],
        "sources": [
            {"kind": "gnm", "label": "er", "count": 2, "n": 20, "m": 50,
             "weights": [1, 71]},
        ],
    }
    payload.update(overrides)
    return payload


class TestExperiment:
    def test_row_grid_shape(self):
        cfg = ExperimentConfig.from_dict(tiny_config())
        rows, summary = run_experiment(cfg)
        assert len(rows) == 2 * 2 * 2 * 2  # graphs x alphas x algorithms x reps
        assert all(r.feasible for r in rows)
        assert {c["algorithm"] for c in summary["cells"]} == {"greedy-s1", "rr"}

    def test_single_cell(self):
        cfg = ExperimentConfig.from_dict(tiny_config(
            repetitions=1, alphas=["1/2"], algorithms=["greedy-s2"],
            sources=[{"kind": "gnm", "label": "er", "count": 1, "n": 10, "m": 20}]))
        rows, _ = run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0].algorithm == "greedy-s2"

    def test_csv_byte_determinism_without_timing(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_config())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rows1, s1 = run_experiment(cfg)
        rows2, s2 = run_experiment(cfg)
        write_rows_csv(rows1, out1, include_timing=False)
        write_rows_csv(rows2, out2, include_timing=False)
        assert out1.read_bytes() == out2.read_bytes()
        write_summary_json(s1, tmp_path / "a.json", include_timing=False)
        write_summary_json(s2, tmp_path / "b.json", include_timing=False)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_csv_header_contract(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_config(repetitions=1))
        rows, _ = run_experiment(cfg)
        write_rows_csv(rows, tmp_path / "r.csv")
        first = (tmp_path / "r.csv").read_text().splitlines()[0]
        assert first == ",".join(CSV_HEADER)
        assert first == "graph,alpha,algorithm,size,weight,time_ms,seed,feasible"

    def test_child_seeds_stable_under_algorithm_addition(self):
        base = ExperimentConfig.from_dict(tiny_config(algorithms=["rr"]))
        more = ExperimentConfig.from_dict(tiny_config(algorithms=["rr", "rrwc"]))
        rows_base, _ = run_experiment(base)
        rows_more, _ = run_experiment(more)
        rr_base = {(r.graph, r.alpha, r.seed): r.weight for r in rows_base}
        rr_more = {(r.graph, r.alpha, r.seed): r.weight
                   for r in rows_more if r.algorithm == "rr"}
        assert rr_base == rr_more

    def test_worker_pool_matches_sequential(self):
        cfg = ExperimentConfig.from_dict(tiny_config(repetitions=1))
        seq, _ = run_experiment(cfg, jobs=1)
        par, _ = run_experiment(cfg, jobs=2)
        strip = lambda rows: [(r.graph, r.alpha, r.algorithm, r.size, r.weight, r.seed)
                              for r in rows]
        assert strip(seq) == strip(par)

    def test_pool_gets_no_more_workers_than_cells(self, monkeypatch):
        asked = []

        class Recorder:
            """Records the pool size asked for and runs the cells in this
            process, so no worker is ever started."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", Recorder)
        strip = lambda rows: [(r.graph, r.alpha, r.algorithm, r.size, r.weight, r.seed)
                              for r in rows]
        four = ExperimentConfig.from_dict(tiny_config(repetitions=1, alphas=["1/2"]))
        rows, _ = run_experiment(four, jobs=64)
        assert asked == [4]  # 2 graphs x 2 algorithms
        assert strip(rows) == strip(run_experiment(four, jobs=1)[0])
        one = ExperimentConfig.from_dict(tiny_config(
            repetitions=1, alphas=["1/2"], algorithms=["rr"],
            sources=[{"kind": "gnm", "label": "er", "count": 1, "n": 20, "m": 50}]))
        assert len(run_experiment(one, jobs=64)[0]) == 1
        assert asked == [4]  # a single cell runs in this process

    def test_file_source(self, tmp_path):
        g = assign_weights(gen_gnm(15, 30, 1), WeightSpec(1, 9), 2)
        write_edge_list(g, tmp_path / "g.edges")
        write_weight_table(g, tmp_path / "g.weights")
        cfg = ExperimentConfig.from_dict(tiny_config(
            repetitions=1, alphas=["1/2"], algorithms=["greedy-s1"],
            sources=[{"kind": "file", "label": "mine",
                      "edges": str(tmp_path / "g.edges"),
                      "weight_table": str(tmp_path / "g.weights")}]))
        rows, _ = run_experiment(cfg)
        assert rows[0].graph == "mine"

    def test_config_validation(self):
        for algorithms in (["simulated-annealing"], [["rr"]]):
            with pytest.raises(ValueError, match="unknown algorithm"):
                ExperimentConfig.from_dict(tiny_config(algorithms=algorithms))
        with pytest.raises(ValueError, match="repetitions"):
            ExperimentConfig.from_dict(tiny_config(repetitions=0))
        with pytest.raises(ValueError, match="nonempty"):
            ExperimentConfig.from_dict(tiny_config(sources=[]))
        with pytest.raises(ValueError, match="^'alphas' must be list, got '1/2'$"):
            ExperimentConfig.from_dict(tiny_config(alphas="1/2"))
        with pytest.raises(ValueError, match="^'algorithms' must be list, got 'rr'$"):
            ExperimentConfig.from_dict(tiny_config(algorithms="rr"))
        for alpha in (True, None, "2"):
            with pytest.raises(ValueError, match=f"^'alphas': {alpha!r} is not a coverage rate"):
                ExperimentConfig.from_dict(tiny_config(alphas=[alpha]))
        # two sources whose ids collide would share their rows' seeds and summary
        gnm = {"kind": "gnm", "label": "a", "n": 30, "m": 60}
        for second in ({**gnm, "n": 40}, {"kind": "file", "label": "a-1", "edges": "a.edges"}):
            with pytest.raises(ValueError, match="graph id 'a-[01]' is given 2 times"):
                ExperimentConfig.from_dict(tiny_config(sources=[{**gnm, "count": 2}, second]))


def test_derive_seed_is_stable_and_spread():
    a = derive_seed(42, "er-0", Fraction(1, 4), "rr", 0)
    assert a == derive_seed(42, "er-0", Fraction(1, 4), "rr", 0)
    others = {derive_seed(42, "er-0", Fraction(1, 4), "rr", rep) for rep in range(50)}
    assert len(others) == 50
    assert all(0 <= s < 2 ** 64 for s in others)


def test_readme_experiment_config_is_accepted():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Experiment config (JSON)", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig.from_dict(json.loads(block))
    assert [s.kind for s in cfg.sources] == ["gnm", "powerlaw-cluster", "planted-partition",
                                             "file"]
