"""``community_rounding`` with its LPs on a thread pool returns the set of the
sequential loop it replaced; the pool is kept from call to call, and a forked
child gets a pool of its own."""
import json
import os
import signal
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

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
    got = community_rounding(inst, seed, partition)
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


def test_the_pool_is_kept_between_calls(monkeypatch):
    counts, solvers = [], set()

    def counted(lp):
        counts.append(threading.active_count())
        solvers.add(threading.current_thread())
        return solve_lp(lp)

    monkeypatch.setattr(community, "solve_lp", counted)
    g = assign_weights(SEEDED["planted"](), WeightSpec(1, 71), 24)
    lps = sum(len(c) > 1 for c in louvain(g).communities())
    pool = community._lp_pool()
    before = set(threading.enumerate())
    for call in range(50):
        community_rounding(DominationInstance(g, ALPHAS[call % 3]), call)
        counts.append(threading.active_count())
        assert all(t.name.startswith("alphadom-lp") for t in set(threading.enumerate()) - before)
    assert community._lp_pool() is pool
    assert len(counts) == 50 * (lps + 1)
    # a pool built per call would solve on new threads in every call
    assert all(t.name.startswith("alphadom-lp") for t in solvers)
    assert len(solvers) <= community._cpus()
    assert max(counts) <= len(before) + community._cpus()


def test_more_threads_than_cpus(monkeypatch):
    # one thread per LP, switching often: concurrent HiGHS runs stay independent
    g = assign_weights(SEEDED["er"](), WeightSpec(1, 71), 24)
    lps = sum(len(c) > 1 for c in louvain(g).communities())
    monkeypatch.setattr(community, "_cpus", lambda: lps)
    community._lp_pool.cache_clear()  # a pool of this test's size
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for alpha in ALPHAS:
            assert_matches_reference(DominationInstance(g, alpha), 5)
        assert community._lp_pool()._max_workers == lps
    finally:
        sys.setswitchinterval(interval)
        community._lp_pool.cache_clear()  # the next call builds one of the real size


# rrwc in this process, then in a forked child and in the forked workers of
# run_experiment(jobs=2), all after this process has built its LP pool; each
# line says one part finished and whether it gave this process's results
FORK_SCRIPT = """
import json, multiprocessing
from fractions import Fraction
from alphadom import (DominationInstance, ExperimentConfig, community_rounding,
                      run_experiment)
from alphadom.generators import WeightSpec, assign_weights, gen_planted_partition

def solve_all(insts):
    return [community_rounding(inst, seed).vertices.tolist()
            for inst in insts for seed in (0, 1)]

def in_child(conn, insts):
    conn.send(solve_all(insts))

g = assign_weights(gen_planted_partition(8, 40, 0.3, 0.01, 22), WeightSpec(1, 71), 24)
insts = [DominationInstance(g, Fraction(a, 4)) for a in (1, 2, 3)]
want = solve_all(insts)
print(json.dumps(["parent", True]), flush=True)

ctx = multiprocessing.get_context("fork")
receive, send = ctx.Pipe(duplex=False)
child = ctx.Process(target=in_child, args=(send, insts))
child.start()
got = receive.recv() if receive.poll(30) else None
child.kill()
child.join()
print(json.dumps(["fork child", got == want]), flush=True)

cfg = ExperimentConfig.from_dict({
    "base_seed": 5, "repetitions": 2, "alphas": ["1/4", "1/2"], "algorithms": ["rrwc"],
    "sources": [{"kind": "planted-partition", "label": "plp", "count": 2, "l": 4,
                 "community_size": 40, "p_in": 0.3, "p_out": 0.01, "weights": [1, 71]}]})
cells = [[(r.graph, str(r.alpha), r.size, r.weight, r.seed) for r in run_experiment(cfg, jobs)[0]]
         for jobs in (1, 2)]
print(json.dumps(["run_experiment jobs=2", cells[0] == cells[1]]), flush=True)
"""


def test_forked_children_solve_with_a_pool_of_their_own():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(community.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])])}
    # a new session, so a timeout can end the forked children with the script
    script = subprocess.Popen([sys.executable, "-c", FORK_SCRIPT], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              start_new_session=True)
    try:
        out, err = script.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(script.pid, signal.SIGKILL)
        out, err = script.communicate()
    assert [json.loads(line) for line in out.splitlines()] == \
        [["parent", True], ["fork child", True], ["run_experiment jobs=2", True]], err


@pytest.mark.parametrize("lps, cpus, threads", [(0, 2, 1), (1, 2, 1), (5, 2, 2),
                                                (5, 1, 1), (3, 8, 3)])
def test_pool_size(monkeypatch, lps, cpus, threads):
    # lps tasks that all wait until the last is queued: each finds no idle
    # thread, so the pool starts one per task up to one per CPU
    monkeypatch.setattr(community.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert community._cpus() == cpus
    community._lp_pool.cache_clear()
    try:
        pool, queued, ran_on = community._lp_pool(), threading.Event(), set()

        def task():
            queued.wait(30)
            ran_on.add(threading.current_thread())

        tasks = [pool.submit(task) for _ in range(lps)]
        queued.set()
        for done in tasks:
            done.result(timeout=30)
        assert pool._max_workers == cpus
        assert len(ran_on) == min(lps, threads)
    finally:
        community._lp_pool.cache_clear()


def test_cpus_without_affinity(monkeypatch):
    monkeypatch.delattr(community.os, "sched_getaffinity", raising=False)
    for counted, cpus in ((6, 6), (None, 1)):
        monkeypatch.setattr(community.os, "cpu_count", lambda: counted)
        assert community._cpus() == cpus
