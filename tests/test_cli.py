"""Command-line surface: subcommands, file outputs, exit codes."""
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from alphadom import (ALGORITHMS, DominationInstance, WeightSpec, assign_weights,
                      gen_gnm, ingest_graph)
from alphadom.cli import main
from alphadom.io import read_solution, write_edge_list, write_weight_table


@pytest.fixture()
def small_graph_files(tmp_path):
    g = assign_weights(gen_gnm(12, 30, 3), WeightSpec(1, 71), 4)
    write_edge_list(g, tmp_path / "g.edges")
    write_weight_table(g, tmp_path / "g.weights")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_gnm_to_files(self, tmp_path, capsys):
        code, out, _ = run(capsys, "generate", "gnm", "--n", "30", "--m", "60",
                           "--seed", "5", "--out", str(tmp_path / "er"))
        assert code == 0
        stats = json.loads(out)
        assert stats["vertices"] == 30 and stats["edges"] == 60
        g = ingest_graph(tmp_path / "er.edges", tmp_path / "er.weights")
        assert g.n == 30 and g.edge_count == 60

    def test_planted_partition(self, tmp_path, capsys):
        code, out, _ = run(capsys, "generate", "planted-partition", "--blocks", "3",
                           "--block-size", "8", "--p-in", "0.9", "--p-out", "0.0",
                           "--seed", "2", "--out", str(tmp_path / "plp"))
        assert code == 0
        assert json.loads(out)["components"] == 3

    def test_missing_required_params(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "gnm", "--out", str(tmp_path / "x"))
        assert code == 1 and "requires" in err


class TestSolveAndVerify:
    @pytest.mark.parametrize("algo", ["greedy-s1", "greedy-s2", "greedy-s3", "rr", "rrwc"])
    def test_solve_then_verify(self, small_graph_files, capsys, algo):
        d = small_graph_files
        code, out, _ = run(capsys, "solve", "--edges", str(d / "g.edges"),
                           "--weights", str(d / "g.weights"), "--alpha", "1/2",
                           "--algo", algo, "--seed", "7", "--out", str(d / "sol.txt"))
        assert code == 0
        stats = json.loads(out)
        assert stats["feasible"] is True and stats["weight"] > 0
        g = ingest_graph(d / "g.edges", d / "g.weights")
        expected = ALGORITHMS[algo](DominationInstance(g, Fraction(1, 2)), 7)
        assert read_solution(g, d / "sol.txt").members == expected.members
        code, out, _ = run(capsys, "verify", "--edges", str(d / "g.edges"),
                           "--weights", str(d / "g.weights"), "--alpha", "1/2",
                           "--solution", str(d / "sol.txt"))
        assert code == 0
        assert json.loads(out)["feasible"] is True

    @pytest.mark.parametrize("algo", ["rr", "rrwc"])
    def test_solve_passes_its_seed_to_the_solver(self, tmp_path, capsys, algo):
        # on the small fixture graph every seed rounds to the same set; here
        # seeds 7 and 8 differ, so a seed lost on the way to ALGORITHMS shows
        g = assign_weights(gen_gnm(60, 240, 9), WeightSpec(1, 71), 10)
        write_edge_list(g, tmp_path / "g.edges")
        write_weight_table(g, tmp_path / "g.weights")
        g = ingest_graph(tmp_path / "g.edges", tmp_path / "g.weights")
        inst = DominationInstance(g, Fraction(1, 2))
        expected = ALGORITHMS[algo](inst, 7).members
        assert expected != ALGORITHMS[algo](inst, 8).members
        code, _, _ = run(capsys, "solve", "--edges", str(tmp_path / "g.edges"),
                         "--weights", str(tmp_path / "g.weights"), "--alpha", "1/2",
                         "--algo", algo, "--seed", "7", "--out", str(tmp_path / "sol.txt"))
        assert code == 0
        assert read_solution(g, tmp_path / "sol.txt").members == expected

    @pytest.mark.parametrize("algo", ["rr", "rrwc"])
    def test_sets_do_not_depend_on_thread_count(self, tmp_path, algo):
        g = assign_weights(gen_gnm(300, 3000, 21), WeightSpec(1, 71), 22)
        write_edge_list(g, tmp_path / "g.edges")
        write_weight_table(g, tmp_path / "g.weights")
        path = [str(Path(__file__).resolve().parent.parent / "src")]
        path += filter(None, [os.environ.get("PYTHONPATH")])
        sets = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(path))
            out = tmp_path / f"sol{threads}.txt"
            subprocess.run([sys.executable, "-m", "alphadom", "solve",
                            "--edges", str(tmp_path / "g.edges"),
                            "--weights", str(tmp_path / "g.weights"), "--alpha", "1/2",
                            "--algo", algo, "--seed", "5", "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            sets.append(out.read_text(encoding="utf-8"))
        assert sets[0] == sets[1] and sets[0]

    def test_verify_full_vertex_set(self, small_graph_files, capsys):
        d = small_graph_files
        labels = [line.split()[0] for line in (d / "g.weights").read_text().splitlines()]
        (d / "all.txt").write_text("".join(s + "\n" for s in labels))
        code, out, _ = run(capsys, "verify", "--edges", str(d / "g.edges"),
                           "--weights", str(d / "g.weights"), "--alpha", "3/4",
                           "--solution", str(d / "all.txt"))
        assert code == 0

    def test_verify_infeasible_exit_code(self, small_graph_files, capsys):
        d = small_graph_files
        (d / "empty.txt").write_text("")
        code, out, _ = run(capsys, "verify", "--edges", str(d / "g.edges"),
                           "--weights", str(d / "g.weights"), "--alpha", "1/2",
                           "--solution", str(d / "empty.txt"))
        assert code == 3
        assert json.loads(out)["feasible"] is False

    def test_solve_rr_flags_and_lp_dump(self, small_graph_files, capsys):
        d = small_graph_files
        code, out, _ = run(capsys, "solve", "--edges", str(d / "g.edges"),
                           "--weights", str(d / "g.weights"), "--alpha", "0.25",
                           "--algo", "rr", "--seed", "3",
                           "--dump-lp", str(d / "prog.lp"))
        assert code == 0
        text = (d / "prog.lp").read_text()
        assert text.startswith("\\") and "Minimize" in text

    @pytest.mark.parametrize("flag, value", [("--rounds", "2"), ("--threshold-upper", "0.5")])
    def test_rounding_knobs_are_gone(self, small_graph_files, capsys, flag, value):
        # every solver runs at its defaults, through the same registry as the bench
        d = small_graph_files
        code, _, err = run(capsys, "solve", "--edges", str(d / "g.edges"),
                           "--weights", str(d / "g.weights"), "--alpha", "1/2",
                           "--algo", "rr", flag, value)
        assert code == 1 and flag in err

    def test_alpha_accepts_decimals_and_fractions(self, small_graph_files, capsys):
        d = small_graph_files
        for alpha in ("1/4", "0.25"):
            code, out, _ = run(capsys, "solve", "--edges", str(d / "g.edges"),
                               "--weights", str(d / "g.weights"), "--alpha", alpha,
                               "--algo", "greedy-s1")
            assert code == 0
            assert json.loads(out)["alpha"] == "1/4"


class TestBench:
    def test_bench_round_trip_and_determinism(self, tmp_path, capsys):
        cfg = {
            "base_seed": 9,
            "repetitions": 1,
            "alphas": ["1/2"],
            "algorithms": ["greedy-s1", "rrwc"],
            "sources": [{"kind": "gnm", "label": "er", "count": 2,
                         "n": 15, "m": 30, "weights": [1, 20]}],
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        for name in ("one", "two"):
            code, _, _ = run(capsys, "bench", "--config", str(tmp_path / "cfg.json"),
                             "--out", str(tmp_path / name), "--no-timing")
            assert code == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
        lines = (tmp_path / "one.csv").read_text().splitlines()
        assert lines[0] == "graph,alpha,algorithm,size,weight,time_ms,seed,feasible"
        assert len(lines) == 1 + 2 * 2  # header + graphs x algorithms

    def test_bad_config_exit_code(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"sources": []}))
        code, _, err = run(capsys, "bench", "--config", str(tmp_path / "cfg.json"),
                           "--out", str(tmp_path / "x"))
        assert code == 1 and err

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        cfg = {"alphas": ["1/2"], "algorithm": ["greedy-s1"],
               "sources": [{"kind": "gnm", "label": "er", "n": 15, "m": 30}]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, _, err = run(capsys, "bench", "--config", str(tmp_path / "cfg.json"),
                           "--out", str(tmp_path / "x"))
        assert code == 1 and "'algorithm'" in err
        assert not (tmp_path / "x.csv").exists()

    def test_file_source_without_paths_exit_code(self, tmp_path, capsys):
        cfg = {"sources": [{"kind": "file", "label": "mine"}]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, _, err = run(capsys, "bench", "--config", str(tmp_path / "cfg.json"),
                           "--out", str(tmp_path / "x"))
        assert code == 1 and "'mine'" in err
        assert len(err.splitlines()) == 1


class TestCommunitiesAndOracle:
    def test_communities_csv(self, tmp_path, capsys):
        code, _, _ = run(capsys, "generate", "planted-partition", "--blocks", "2",
                         "--block-size", "6", "--p-in", "1.0", "--p-out", "0.0",
                         "--seed", "1", "--out", str(tmp_path / "g"))
        assert code == 0
        code, out, _ = run(capsys, "communities", "--edges", str(tmp_path / "g.edges"),
                           "--weights", str(tmp_path / "g.weights"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "vertex,community"
        assert len(lines) == 13
        assert len({line.split(",")[1] for line in lines[1:]}) == 2

    def test_communities_takes_no_seed(self, small_graph_files, capsys):
        # Louvain is deterministic; a seed flag that changed nothing is gone
        code, _, err = run(capsys, "communities", "--edges", str(small_graph_files / "g.edges"),
                           "--weights", str(small_graph_files / "g.weights"), "--seed", "1")
        assert code == 1 and "--seed" in err

    def test_oracle_small_graph(self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text("a b\nb c\n")
        (tmp_path / "g.weights").write_text("a 5\nb 1\nc 3\n")
        code, out, _ = run(capsys, "oracle", "--edges", str(tmp_path / "g.edges"),
                           "--weights", str(tmp_path / "g.weights"), "--alpha", "1/2")
        assert code == 0
        result = json.loads(out)
        assert result["opt_weight"] == 4
        assert result["members"] == ["b", "c"]

    def test_oracle_guard(self, tmp_path, capsys):
        edges = "".join(f"v{i} v{i+1}\n" for i in range(30))
        (tmp_path / "g.edges").write_text(edges)
        code, _, err = run(capsys, "oracle", "--edges", str(tmp_path / "g.edges"),
                           "--alpha", "1/2")
        assert code == 1 and "exceeds" in err


class TestErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, capsys):
        assert run(capsys, "generate", "gnm", "--frob", "1")[0] == 1

    def test_missing_edge_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", "--edges", str(tmp_path / "nope.edges"),
                           "--alpha", "1/2", "--solution", str(tmp_path / "s.txt"))
        assert code == 2

    def test_ingest_error_exit_code(self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text("a a\n")
        code, _, err = run(capsys, "solve", "--edges", str(tmp_path / "g.edges"),
                           "--alpha", "1/2", "--algo", "greedy-s1")
        assert code == 2 and "self-loop" in err
