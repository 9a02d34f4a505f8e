"""Tests of the benchmark's independent checker and its tracer.

Run from the repository root: ``python3 -m pytest -q perfbench/test_checker.py``.
"""
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from alphadom import bench, community, graph, io, lp  # noqa: E402

from checker import (CheckError, RefGraph, check_load, check_lp_objective,  # noqa: E402
                     check_modularity, check_solution, lp_optimum, networkx_modularity)
from tracer import Tracer  # noqa: E402
from workloads import mentions_graph, plp_graph, write_inputs  # noqa: E402

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """A small mentions-like graph written to files and loaded by the program."""
    ref = mentions_graph(120, seed=5)
    paths = write_inputs(ref, tmp_path_factory.mktemp("inputs"), "m120", seed=5)
    g = io.ingest_graph(*paths)
    return ref, g, check_load(ref, g)


def members_of(solution, to_ref):
    return to_ref[np.array(sorted(solution.members), dtype=np.int64)]


def test_coverage_matches_a_loop_over_neighbourhoods():
    ref = mentions_graph(80, seed=2)
    rng = np.random.default_rng(0)
    member = rng.random(ref.n) < 0.3
    nbrs = [{i} for i in range(ref.n)]
    for a, b in zip(ref.u.tolist(), ref.v.tolist()):
        nbrs[a].add(b)
        nbrs[b].add(a)
    expected = [sum(member[x] for x in nb) for nb in nbrs]
    assert ref.coverage(member).tolist() == expected
    assert ref.demands(HALF).tolist() == [-(-len(nb) // 2) for nb in nbrs]


@pytest.mark.parametrize("algorithm", sorted(bench.ALGORITHMS))
def test_accepts_every_solver_output(loaded, algorithm):
    ref, g, to_ref = loaded
    solution = bench.ALGORITHMS[algorithm](graph.DominationInstance(g, HALF), 3)
    bound = lp_optimum(ref, HALF)
    weight = check_solution(ref, HALF, members_of(solution, to_ref),
                            solution.total_weight, bound)
    assert weight == solution.total_weight >= bound


def test_rejects_a_set_missing_one_needed_vertex(loaded):
    ref, g, to_ref = loaded
    everyone = np.arange(ref.n)
    total = int(ref.weights.sum())
    check_solution(ref, Fraction(1), everyone, total, 0.0)
    # at alpha=1 every vertex must hold its whole closed neighbourhood
    dropped = everyone[everyone != 7]
    with pytest.raises(CheckError, match="below demand"):
        check_solution(ref, Fraction(1), dropped, total - int(ref.weights[7]), 0.0)


def test_rejects_a_wrong_cached_weight(loaded):
    ref, g, to_ref = loaded
    solution = bench.ALGORITHMS["greedy-s2"](graph.DominationInstance(g, HALF), 0)
    with pytest.raises(CheckError, match="cached weight"):
        check_solution(ref, HALF, members_of(solution, to_ref),
                       solution.total_weight + 1, 0.0)


def test_rejects_a_weight_below_the_lp_bound(loaded):
    ref, g, to_ref = loaded
    solution = bench.ALGORITHMS["rr"](graph.DominationInstance(g, HALF), 0)
    with pytest.raises(CheckError, match="below the LP bound"):
        check_solution(ref, HALF, members_of(solution, to_ref),
                       solution.total_weight, solution.total_weight + 1.0)


def test_rejects_a_mislabelled_load(loaded):
    ref, g, _ = loaded
    labels = list(g.labels)
    hub = max(range(g.n), key=g.degree)
    quiet = min(range(g.n), key=g.degree)
    labels[hub], labels[quiet] = labels[quiet], labels[hub]
    swapped = graph.WeightedGraph(g.adjacency, g.weights, labels)
    with pytest.raises(CheckError):
        check_load(ref, swapped)


def test_rejects_a_load_with_a_lost_edge(loaded):
    ref, g, _ = loaded
    u, v = next(iter(g.edges()))
    kept = [e for e in g.edges() if e != (u, v)]
    lossy = graph.WeightedGraph.from_edges(g.n, kept, g.weights, g.labels)
    with pytest.raises(CheckError, match="edges"):
        check_load(ref, lossy)


def test_highs_optimum_matches_solve_lp_and_rejects_a_drift(loaded):
    ref, g, _ = loaded
    optimum = lp_optimum(ref, HALF)
    objective = lp.solve_lp(lp.build_lp(graph.DominationInstance(g, HALF))).objective_value
    check_lp_objective(objective, optimum, "global LP")
    with pytest.raises(CheckError):
        check_lp_objective(objective * (1 + 1e-4), optimum, "global LP")


def test_networkx_modularity_matches_louvain_and_rejects_a_drift(tmp_path):
    ref = plp_graph()
    g = io.ingest_graph(*write_inputs(ref, tmp_path, "plp", 1))
    to_ref = check_load(ref, g)
    partition = community.louvain(g)
    community_of = np.empty(ref.n, dtype=np.int64)
    community_of[to_ref] = partition.community_of
    expected = networkx_modularity(ref, community_of)
    check_modularity(community.modularity(g, partition), expected)
    with pytest.raises(CheckError):
        check_modularity(expected + 1e-6, expected)


def test_induced_subgraph_keeps_only_inner_edges():
    ref = RefGraph(4, np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([5, 6, 7, 8]),
                   ("a", "b", "c", "d"))
    sub = ref.induced(np.array([1, 2, 3]))
    assert (sub.n, sub.u.tolist(), sub.v.tolist()) == (3, [0, 1], [1, 2])
    assert sub.weights.tolist() == [6, 7, 8] and sub.labels == ("b", "c", "d")


def test_tracer_reports_a_missing_name_and_restores_the_rest(loaded):
    _, g, _ = loaded
    original = community.solve_lp
    points = (("alphadom.community.solve_lp", "lp", "solve_lp", None),
              ("alphadom.graph.WeightedGraph.from_edges", "graph", "build", None),
              ("alphadom.community.no_such_function", "lp", "gone", None),
              ("alphadom.no_such_module.f", "lp", "gone", None))
    tracer = Tracer(points)
    with tracer:
        assert community.solve_lp is not original
        bench.ALGORITHMS["rrwc"](graph.DominationInstance(g, HALF), 0)
        graph.WeightedGraph.from_edges(2, [(0, 1)])
    assert community.solve_lp is original
    assert isinstance(vars(graph.WeightedGraph)["from_edges"], classmethod)
    assert tracer.missing == ["alphadom.community.no_such_function",
                              "alphadom.no_such_module.f"]
    assert tracer.missing_keys() == {"gone"}
    assert {s.key for s in tracer.spans} == {"solve_lp", "build"}
