"""Greedy solver: ranking keys, feasibility, determinism, oracle comparisons."""
import time
from fractions import Fraction
from functools import cmp_to_key

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphadom import (DominatingSet, DominationInstance, Strategy, WeightedGraph,
                      WeightSpec, assign_weights, brute_force_opt, gen_gnm,
                      gen_planted_partition, gen_powerlaw_cluster, greedy_dominate,
                      ingest_graph, is_feasible, repair, sort_key,
                      write_edge_list, write_weight_table)
from alphadom import _native, greedy
from alphadom.graph import _exact_weights
from alphadom.greedy import _keys

from .strategies import hard_weighted_graphs, instances, near_float_bound


def path3():
    return WeightedGraph.from_edges(3, [(0, 1), (1, 2)], [5, 1, 3])


class TestSortKey:
    def test_s1_is_plain_weight(self):
        g = path3()
        assert [sort_key(Strategy.S1, g, v)[0] for v in range(3)] == [5, 1, 3]

    def test_s2_weight_over_closed_degree(self):
        g = path3()
        keys = [sort_key(Strategy.S2, g, v)[0] for v in range(3)]
        assert keys == [Fraction(5, 2), Fraction(1, 3), Fraction(3, 2)]

    def test_s3_weight_over_neighborhood_weight(self):
        g = path3()
        keys = [sort_key(Strategy.S3, g, v)[0] for v in range(3)]
        assert keys == [Fraction(5, 6), Fraction(1, 9), Fraction(3, 4)]

    def test_isolated_vertex_degenerate_keys(self):
        g = WeightedGraph.from_edges(1, [], [7])
        assert sort_key(Strategy.S2, g, 0)[0] == 7
        assert sort_key(Strategy.S3, g, 0)[0] == 1

    def test_keys_are_exact_rationals(self):
        # 1/3 vs 2/6 must compare equal, then fall to the index tiebreak
        g = WeightedGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
                                     [1, 2, 2, 1])
        k0 = sort_key(Strategy.S2, g, 0)
        k1 = sort_key(Strategy.S2, g, 3)
        assert k0[0] == k1[0] == Fraction(1, 3)
        assert k0 < k1


W = 2**31 - 1


def sort_key_order(strategy, g):
    return sorted(range(g.n), key=lambda v: sort_key(strategy, g, v))


def positions(order):
    rank = [0] * len(order)
    for pos, v in enumerate(order):
        rank[v] = pos
    return rank


def keys_order(strategy, g):
    """The vertices in the order the fill scan compares them: by ``q``, then
    by cross-multiplying the numerators and denominators, then by index."""
    nums, dens, q = (a.tolist() for a in _keys(strategy, g))

    def compare(a, b):
        if q[a] != q[b]:
            return -1 if q[a] < q[b] else 1
        x, y = nums[a] * dens[b], nums[b] * dens[a]
        return (x > y) - (x < y) or a - b

    return sorted(range(g.n), key=cmp_to_key(compare))


@settings(max_examples=200, deadline=None)
@given(hard_weighted_graphs())
# a 4-cycle: every vertex has degree 2, so only the weights tell them apart
@example(WeightedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                                  [2**53 + 1, 2**53, 2**53 + 1, 2**53]))
@example(WeightedGraph.from_edges(3, [], [2**64 + 2, 2**64 + 1, 3]))
# weights just below and at the float-exact bound of the numpy path
@example(WeightedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                                  [2**53 - 1, 2**53 - 2, 2**53 - 1, 1]))
@example(WeightedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                                  [2**53, 2**53 - 1, 2**53 + 1, 2**53]))
# S3 ratios W/(2W+1) and (W-1)/(2W-1) share a float, at W = 2**31 - 1 and at
# 2**31, where their cross products pass int64
@example(WeightedGraph.from_edges(4, [(0, 1), (2, 3)], [W, W + 1, W - 1, W]))
@example(WeightedGraph.from_edges(4, [(0, 1), (2, 3)], [W + 1, W + 2, W, W + 1]))
# S3's quotients all zero at n = 1000; positions at n = 1100
@example(near_float_bound(1000))
@example(near_float_bound(1100))
# int64 weights from 2**53 on, whose quotients read zero, and a weight past int64
@example(WeightedGraph.from_edges(2, [], [2**62 - 1, 1]))
@example(WeightedGraph.from_edges(2, [(0, 1)], [2**62 - 2, 2**62 - 1]))
@example(WeightedGraph.from_edges(1, [], [2**64]))
def test_keys_order_vertices_as_sort_key(g):
    for s in Strategy:
        nums, dens, q = _keys(s, g)
        assert (nums.dtype, dens.dtype, q.dtype) == (np.int64, np.int64, np.float64)
        order = sort_key_order(s, g)
        assert keys_order(s, g) == order
        assert np.all(np.diff(q[order]) >= 0)  # q never reverses the exact order


def test_float_keys_only_inside_the_bounds():
    def exact_floats(weights, edges=((0, 1), (2, 3))):
        g = WeightedGraph.from_edges(4, list(edges), weights)
        exact = []
        for nums, dens, q in (_keys(s, g) for s in Strategy):
            assert np.array_equal(nums, g.weight_array())
            exact.append(bool(q.any()))
            assert np.array_equal(q, nums / dens if exact[-1] else np.zeros(4))
        return exact

    # q = nums / dens while every weight and denominator is below 2**53, and
    # all zeros otherwise
    assert exact_floats([W, W + 1, W - 1, W]) == [True, True, True]
    assert exact_floats([W + 1, W + 2, W, W + 1]) == [True, True, True]
    assert exact_floats([2**53 - 1, 1, 1, 1]) == [True, True, False]  # S3's 2**53
    assert exact_floats([2**53, 1, 1, 1]) == [False, False, False]
    assert exact_floats([2**60, 1, 1, 1]) == [False, False, False]  # 4 * 2**60 < 2**63
    g = near_float_bound(1000)
    assert [bool(_keys(s, g)[2].any()) for s in Strategy] == [True, True, False]
    g = near_float_bound(1100)
    assert all(_keys(s, g)[2].tolist() == positions(sort_key_order(s, g)) for s in Strategy)
    # a weight past int64: positions in sort_key order, over denominators of one
    g = WeightedGraph.from_edges(4, [(0, 1), (2, 3)], [2**64, 1, 3, 2])
    for s in Strategy:
        nums, dens, q = _keys(s, g)
        assert nums.tolist() == q.tolist() == positions(sort_key_order(s, g))
        assert dens.tolist() == [1] * 4

    # the weights: int64 while the largest weight times n is below 2**63, so
    # that no sum of distinct weights can wrap
    def weights_dtype(n, weight):
        return _exact_weights(WeightedGraph.from_edges(n, [], [weight] * n)).dtype

    assert weights_dtype(7, (2**63 - 1) // 7) == np.int64  # 7 * weight = 2**63 - 1
    assert weights_dtype(1, 2**63 - 1) == np.int64
    assert weights_dtype(2, 2**62) == object  # 2 * weight = 2**63
    assert weights_dtype(1, 2**63) == object  # past int64
    assert weights_dtype(0, 1) == np.int64
    # past that bound the keys are positions, though each weight is below 2**53
    wide = WeightedGraph.from_edges(2048, [], [2**52] * 2048)  # 2048 * 2**52 = 2**63
    assert _exact_weights(wide).dtype == object
    for s in Strategy:
        nums, dens, q = _keys(s, wide)
        assert nums.tolist() == q.tolist() == list(range(2048))
        assert dens.tolist() == [1] * 2048


# the largest weight times n at 2**63 - 1, where every set sums in int64, and
# at 2**63 and past it, where a sum of two weights passes int64
SUM_BOUND_GRAPHS = [
    WeightedGraph.from_edges(7, [(0, 1)], [(2**63 - 1) // 7] * 7),
    WeightedGraph.from_edges(1, [], [2**63 - 1]),
    WeightedGraph.from_edges(2, [(0, 1)], [2**62] * 2),
    WeightedGraph.from_edges(3, [], [2**62, 2**62 - 1, 5]),
    WeightedGraph.from_edges(3, [(1, 2)], [2**64 + 1, 2**63 - 1, 1]),
]


def assert_exact_set_weights(g, members):
    mask = np.zeros(g.n, dtype=bool)
    mask[list(members)] = True
    expected = sum(g.weights[v] for v in set(members))
    for d in (DominatingSet.from_mask(g, mask), DominatingSet.from_members(g, members)):
        assert type(d.total_weight) is int
        assert d.total_weight == d.recomputed_weight(g) == expected


@pytest.mark.parametrize("g", SUM_BOUND_GRAPHS, ids=lambda g: f"n{g.n}-top{max(g.weights)}")
def test_set_weights_on_both_sides_of_the_sum_bound(g):
    for members in (range(g.n), range(0, g.n, 2), range(1, g.n), [g.n - 1], []):
        assert_exact_set_weights(g, members)


@settings(max_examples=100, deadline=None)
@given(hard_weighted_graphs(), st.data())
def test_set_weights_with_hard_weights(g, data):
    members = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    assert_exact_set_weights(g, members)


class TestGreedyDominate:
    def test_path_s1_matches_brute_force(self):
        inst = DominationInstance(path3(), Fraction(1, 2))
        d = greedy_dominate(inst, Strategy.S1)
        assert d.as_sorted_tuple() == (1, 2)
        assert d.total_weight == 4 == brute_force_opt(inst).opt_weight

    def test_triangle_alpha_one_forces_everything(self):
        g = WeightedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], [9, 9, 9])
        inst = DominationInstance(g, 1)
        for s in Strategy:
            assert greedy_dominate(inst, s).as_sorted_tuple() == (0, 1, 2)

    def test_single_vertex(self):
        g = WeightedGraph.from_edges(1, [], [4])
        inst = DominationInstance(g, Fraction(1, 4))
        assert greedy_dominate(inst, Strategy.S3).as_sorted_tuple() == (0,)

    def test_isolated_vertices_forced_into_solution(self):
        g = WeightedGraph.from_edges(4, [(0, 1)], [1, 1, 50, 60])
        inst = DominationInstance(g, Fraction(1, 2))
        d = greedy_dominate(inst, Strategy.S1)
        assert {2, 3} <= d.members

    def test_determinism(self):
        from alphadom import WeightSpec, assign_weights, gen_gnm
        g = assign_weights(gen_gnm(60, 240, 3), WeightSpec(1, 71), 4)
        inst = DominationInstance(g, Fraction(1, 4))
        for s in Strategy:
            a = greedy_dominate(inst, s)
            b = greedy_dominate(inst, s)
            assert a.members == b.members and a.total_weight == b.total_weight


@settings(max_examples=80, deadline=None)
@given(instances())
def test_greedy_output_always_feasible(inst):
    for s in Strategy:
        d = greedy_dominate(inst, s)
        assert is_feasible(inst, d)
        assert d.total_weight == d.recomputed_weight(inst.graph)


@settings(max_examples=40, deadline=None)
@given(instances(max_n=9))
def test_greedy_never_beats_the_oracle(inst):
    opt = brute_force_opt(inst).opt_weight
    for s in Strategy:
        assert greedy_dominate(inst, s).total_weight >= opt


def greedy_by_sort_key(inst, strategy):
    """The greedy scan with candidates sorted by sort_key itself."""
    g = inst.graph
    keys = [sort_key(strategy, g, v) for v in range(g.n)]
    in_set = bytearray(g.n)
    cover = [0] * g.n
    members = []
    for v in range(g.n):
        need = inst.demand(v) - cover[v]
        if need <= 0:
            continue
        candidates = [u for u in g.adjacency[v] if not in_set[u]]
        if not in_set[v]:
            candidates.append(v)
        candidates.sort(key=keys.__getitem__)
        for u in candidates[:need]:
            in_set[u] = 1
            members.append(u)
            cover[u] += 1
            for t in g.adjacency[u]:
                cover[t] += 1
    return DominatingSet.from_members(g, members)


def assert_greedy_matches_sort_key_reference(family):
    graph = {
        "er": lambda: gen_gnm(5000, 25_000, 11),
        "planted": lambda: gen_planted_partition(50, 100, 0.1, 0.0005, 12),
        "hubs": lambda: gen_powerlaw_cluster(5000, 2, 0.1, 13),
    }[family]()
    g = assign_weights(graph, WeightSpec(1, 71), 14)
    for alpha in (Fraction(1, 4), Fraction(1, 2)):
        inst = DominationInstance(g, alpha)
        for s in Strategy:
            expected = greedy_by_sort_key(inst, s)
            got = greedy_dominate(inst, s)
            assert got.members == expected.members
            assert got.total_weight == expected.total_weight


@pytest.mark.parametrize("family", ["er", "planted", "hubs"])
def test_greedy_matches_sort_key_reference(family):
    assert_greedy_matches_sort_key_reference(family)


@pytest.mark.parametrize("family", ["er", "planted", "hubs"])
def test_python_fill_matches_sort_key_reference(family, monkeypatch):
    monkeypatch.setattr(_native, "fill", lambda: None)
    assert_greedy_matches_sort_key_reference(family)


def test_load_and_greedy_leave_the_rows_unbuilt(tmp_path):
    g = assign_weights(gen_powerlaw_cluster(300, 2, 0.1, 5), WeightSpec(1, 71), 6)
    write_edge_list(g, tmp_path / "g.edges")
    write_weight_table(g, tmp_path / "g.weights")
    loaded = ingest_graph(tmp_path / "g.edges", tmp_path / "g.weights")
    inst = DominationInstance(loaded, Fraction(1, 2))
    for s in Strategy:
        assert is_feasible(inst, greedy_dominate(inst, s))
    assert loaded._adjacency is None


def test_keys_kept_per_graph_and_strategy(monkeypatch):
    g = assign_weights(gen_gnm(60, 200, 7), WeightSpec(1, 9), 8)
    inst = DominationInstance(g, Fraction(1, 2))
    first = {s: _keys(s, g) for s in Strategy}
    with monkeypatch.context() as m:
        m.setattr(greedy, "_exact_weights", None)  # computing keys anew would fail
        for s in Strategy:
            assert _keys(s, g) is first[s]
            assert not any(a.flags.writeable for a in first[s])
            greedy_dominate(inst, s)
        repair(inst, DominatingSet.empty())
    # a graph with other weights keeps its own keys
    reweighted = g.with_weights([10 - w for w in g.weights])
    for s in Strategy:
        assert keys_order(s, reweighted) == sort_key_order(s, reweighted)
    assert _keys(Strategy.S1, reweighted)[0].tolist() != first[Strategy.S1][0].tolist()


def test_runtime_sanity_bound():
    # very loose cap on the quadratic-ish scan; catches accidental blowups only
    g = assign_weights(gen_gnm(500, 5000, 1), WeightSpec(1, 71), 2)
    inst = DominationInstance(g, Fraction(1, 2))
    start = time.perf_counter()
    for s in Strategy:
        greedy_dominate(inst, s)
    assert time.perf_counter() - start < 30.0


LEAVES = 100_000
# leaf weights, leaf by leaf, whose ranks run in these patterns under every
# strategy: a leaf's S2 and S3 ratios, w/2 and w/(w + hub weight), rise with w
HUB_PATTERNS = {
    "sorted": lambda i: 1 + i,
    "reverse-sorted": lambda i: LEAVES - i,
    "organ-pipe": lambda i: 2 * i + 1 if i < LEAVES // 2 else 2 * (LEAVES - i),
    "sawtooth": lambda i: 1 + i % 71,  # equal weights rank by index
    "all-equal": lambda i: 1,
}


def test_degree_1e5_hub_runs_in_bounded_time(monkeypatch):
    # loose cap; a mirror check that scans a row per edge would read ~5e9
    # entries here.  The C scan selects the hub's first candidates out of its
    # row, and organ-pipe orders defeat the selection's pivots until it falls
    # back to its heap
    start = time.perf_counter()
    edges = [(0, v) for v in range(1, LEAVES + 1)]
    for pattern, weight in HUB_PATTERNS.items():
        g = WeightedGraph.from_edges(LEAVES + 1, edges, [1, *map(weight, range(LEAVES))])
        for alpha in (Fraction(1, 4), Fraction(1, 2), 1):
            inst = DominationInstance(g, alpha)
            for s in Strategy:
                d = greedy_dominate(inst, s)
                assert is_feasible(inst, d)
                with monkeypatch.context() as m:
                    m.setattr(_native, "fill", lambda: None)
                    assert greedy_dominate(inst, s).members == d.members, (pattern, alpha, s)
    assert time.perf_counter() - start < 30.0
