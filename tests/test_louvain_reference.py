"""``louvain`` on flat integer arrays gives the partition of the dict-based
reference, and computes it once per graph object."""
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from alphadom import community, ingest_graph, louvain
from alphadom.generators import gen_gnm, gen_planted_partition, gen_powerlaw_cluster

from .louvain_reference import reference_louvain
from .strategies import weighted_graphs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SEEDED = {
    **{f"gnm1000-s{s}": lambda s=s: gen_gnm(1000, 10_000, s) for s in range(1, 5)},
    "planted5x100": lambda: gen_planted_partition(5, 100, 0.2, 0.001, 1),
    "planted10x100": lambda: gen_planted_partition(10, 100, 0.2, 0.001, 2),
    **{f"powerlaw2000-s{s}": lambda s=s: gen_powerlaw_cluster(2000, 3, 0.3, s)
       for s in range(1, 5)},
    "gnm300-isolated": lambda: gen_gnm(300, 200, 3),
}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_same_partition_as_reference_on_seeded_graphs(name):
    g = SEEDED[name]()
    assert louvain(g).community_of == reference_louvain(g)


@pytest.fixture(scope="module")
def perfbench_graphs(tmp_path_factory):
    """Every graph the benchmark runs ``rrwc`` on, written and loaded as the
    benchmark does for workload seed 1."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    directory = tmp_path_factory.mktemp("perfbench-inputs")
    graphs = {}
    for specs in workloads.WORKLOADS.values():
        for spec in specs:
            if "rrwc" in spec.algorithms:
                paths = workloads.write_inputs(spec.draw(), directory, spec.name, 1)
                graphs[spec.name] = ingest_graph(*paths)
    return graphs


def test_same_partition_as_reference_on_perfbench_graphs(perfbench_graphs):
    assert sorted(perfbench_graphs) == ["er800", "mentions500", "plp10x100"]
    for g in perfbench_graphs.values():
        assert louvain(g).community_of == reference_louvain(g)


@settings(max_examples=300, deadline=None)
@given(weighted_graphs(max_n=24))
def test_same_partition_as_reference_on_small_graphs(g):
    assert louvain(g).community_of == reference_louvain(g)


@pytest.fixture
def local_move_phases(monkeypatch):
    """Counts the local-move phases that louvain runs."""
    calls = []
    real = community._local_moves

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(community, "_local_moves", counted)
    return calls


def test_second_call_returns_the_kept_partition(local_move_phases):
    g = gen_planted_partition(4, 30, 0.3, 0.01, 5)
    first = louvain(g)
    phases = len(local_move_phases)
    assert phases > 0
    assert louvain(g) is first
    assert len(local_move_phases) == phases


def test_equal_graph_built_separately_computes_its_own(local_move_phases):
    g = gen_planted_partition(4, 30, 0.3, 0.01, 5)
    twin = gen_planted_partition(4, 30, 0.3, 0.01, 5)
    assert twin == g and twin is not g
    first = louvain(g)
    phases = len(local_move_phases)
    again = louvain(twin)
    assert len(local_move_phases) == 2 * phases
    assert again is not first and again == first

