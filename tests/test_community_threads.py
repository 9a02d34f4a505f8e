"""``community_rounding`` with its LPs on a thread pool returns the set of the
sequential loop it replaced, and leaves no thread behind."""
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from alphadom import (DominatingSet, DominationInstance, Partition, WeightedGraph,
                      build_lp, community, community_rounding, default_max_rounds,
                      louvain, repair, solve_lp)
from alphadom.generators import (WeightSpec, assign_weights, gen_gnm,
                                 gen_planted_partition, gen_powerlaw_cluster)
from alphadom.rounding import round_until_feasible

from .test_louvain_reference import perfbench_graphs  # noqa: F401  (a fixture)

ALPHAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def sequential_reference(inst, seed, partition=None):
    """The partitioned solver as one loop: each community's LP solved and
    rounded before the next community is built."""
    g = inst.graph
    part = partition if partition is not None else louvain(g)
    rounds = default_max_rounds(g)
    picked: set[int] = set()
    for cid, verts in enumerate(part.communities()):
        if len(verts) == 1:
            picked.add(verts[0])
            continue
        sub, to_global = g.subgraph(verts)
        sub_inst = DominationInstance(sub, inst.alpha)
        frac = solve_lp(build_lp(sub_inst))
        local = round_until_feasible(sub_inst, frac.values,
                                     np.random.default_rng([seed, cid]), rounds)
        picked.update(int(to_global[v]) for v in local.members)
    return repair(inst, DominatingSet.from_members(g, picked))


def assert_matches_reference(inst, seed, partition=None):
    threads = threading.active_count()
    got = community_rounding(inst, seed, partition)
    assert threading.active_count() == threads
    want = sequential_reference(inst, seed, partition)
    assert got.members == want.members
    assert got.total_weight == want.total_weight


SEEDED = {
    "er": lambda: gen_gnm(300, 3000, 21),
    "planted": lambda: gen_planted_partition(8, 40, 0.3, 0.01, 22),
    "powerlaw": lambda: gen_powerlaw_cluster(400, 3, 0.2, 23),
}


@pytest.mark.parametrize("family", sorted(SEEDED))
def test_same_set_as_sequential_on_seeded_graphs(family):
    g = assign_weights(SEEDED[family](), WeightSpec(1, 71), 24)
    assert sum(len(c) > 1 for c in louvain(g).communities()) >= 2
    # Louvain's partition, and the same with every tenth vertex split off as
    # a singleton, so community ids and LP positions differ
    found = louvain(g).community_of
    split = Partition.from_assignment(-v - 1 if v % 10 == 0 else c for v, c in enumerate(found))
    for alpha in ALPHAS:
        inst = DominationInstance(g, alpha)
        for seed in (0, 1, 7):
            assert_matches_reference(inst, seed)
            assert_matches_reference(inst, seed, split)


def test_same_set_as_sequential_on_perfbench_graphs(perfbench_graphs):
    for g in perfbench_graphs.values():
        for alpha in ALPHAS:
            inst = DominationInstance(g, alpha)
            for seed in (1, 2):
                assert_matches_reference(inst, seed)


def test_no_community_lp():
    edgeless = WeightedGraph.from_edges(5, [], [3, 1, 4, 1, 5])
    assert_matches_reference(DominationInstance(edgeless, Fraction(1, 2)), 3)
    g = assign_weights(gen_gnm(30, 60, 4), WeightSpec(1, 9), 5)
    singletons = Partition(tuple(range(g.n)), g.n)
    for alpha in ALPHAS:
        assert_matches_reference(DominationInstance(g, alpha), 3, singletons)


def test_lps_are_solved_off_the_main_thread(monkeypatch):
    solved_on = []

    def recorded(lp):
        solved_on.append(threading.current_thread())
        return solve_lp(lp)

    monkeypatch.setattr(community, "solve_lp", recorded)
    g = assign_weights(SEEDED["planted"](), WeightSpec(1, 71), 24)
    community_rounding(DominationInstance(g, Fraction(1, 2)), 0)
    assert len(solved_on) == sum(len(c) > 1 for c in louvain(g).communities())
    assert threading.main_thread() not in solved_on


def test_more_threads_than_cpus(monkeypatch):
    # one thread per LP, switching often: concurrent HiGHS runs stay independent
    monkeypatch.setattr(community, "_pool_size", lambda lps: max(1, lps))
    g = assign_weights(SEEDED["er"](), WeightSpec(1, 71), 24)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for alpha in ALPHAS:
            assert_matches_reference(DominationInstance(g, alpha), 5)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("lps, cpus, threads", [(0, 2, 1), (1, 2, 1), (5, 2, 2),
                                                (5, 1, 1), (3, 8, 3)])
def test_pool_size(monkeypatch, lps, cpus, threads):
    monkeypatch.setattr(community.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert community._pool_size(lps) == threads
