"""Randomized rounding: per-pass statistics, amplification, repair, feasibility."""
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadom import (DominatingSet, DominationInstance, WeightedGraph,
                      build_lp, community, community_rounding, coverage_counts,
                      default_max_rounds, is_feasible, poisson_binomial_tail,
                      randomized_rounding, repair, round_once, solve_lp)
from alphadom.generators import (WeightSpec, assign_weights, gen_gnm,
                                 gen_planted_partition, gen_powerlaw_cluster)
from alphadom.rounding import round_until_feasible

from .strategies import instances


class TestConfig:
    def test_default_rounds_from_max_degree(self):
        g = gen_gnm(10, 0, 1)
        assert default_max_rounds(g) == 1  # edgeless clamps to 1
        star = WeightedGraph.from_edges(9, [(0, v) for v in range(1, 9)], [1] * 9)
        assert default_max_rounds(star) == 3  # ceil(log2(8))


class TestRoundOnce:
    def test_all_ones_included(self):
        rng = np.random.default_rng(0)
        assert list(round_once(np.ones(50), rng)) == list(range(50))

    def test_all_zeros_excluded(self):
        rng = np.random.default_rng(0)
        assert len(round_once(np.zeros(50), rng)) == 0

    def test_at_least_threshold_always_included(self):
        rng = np.random.default_rng(3)
        values = np.full(200, 0.5)
        for _ in range(20):
            assert len(round_once(values, rng)) == 200

    def test_quarter_value_hits_half_probability(self):
        # value 0.25 against draws from [0, 0.5): inclusion probability 1/2
        rng = np.random.default_rng(42)
        values = np.full(10_000, 0.25)
        freq = len(round_once(values, rng)) / 10_000
        assert abs(freq - 0.5) < 0.02

    def test_inflated_inclusion_never_below_plain(self):
        # drawing from [0, 0.5) dominates the plain per-value probability
        xs = np.linspace(0, 1, 101)
        assert np.all(np.minimum(1.0, xs / 0.5) >= xs)


def passes_on_sets(inst, values, rng, rounds):
    """The pass loop as a loop on sets: union passes of round_once, stopping
    at the first union that the verifier finds feasible."""
    picked: set[int] = set()
    union = DominatingSet.empty()
    for _ in range(rounds):
        picked.update(round_once(values, rng).tolist())
        union = DominatingSet.from_members(inst.graph, picked)
        if is_feasible(inst, union):
            break
    return union


@settings(max_examples=100, deadline=None)
@given(instances(max_n=12), st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_pass_loop_matches_a_loop_on_sets(inst, seed, rounds):
    values = np.random.default_rng(seed).random(inst.graph.n)
    rngs = [np.random.default_rng([seed, 1]) for _ in range(2)]
    got = round_until_feasible(inst, values, rngs[0], rounds)
    assert got.members == passes_on_sets(inst, values, rngs[1], rounds).members
    assert rngs[0].random() == rngs[1].random()  # the same number of passes drawn


class TestRepair:
    def test_already_feasible_unchanged(self):
        g = WeightedGraph.from_edges(3, [(0, 1), (1, 2)], [5, 1, 3])
        inst = DominationInstance(g, Fraction(1, 2))
        d = DominatingSet.from_members(g, [1, 2])
        out = repair(inst, d)
        assert out.members == {1, 2}
        assert d.members == {1, 2}  # input untouched

    def test_isolated_vertex_self_added(self):
        g = WeightedGraph.from_edges(1, [], [6])
        inst = DominationInstance(g, Fraction(1, 2))
        assert repair(inst, DominatingSet.empty()).members == {0}

    def test_path_shortfall_filled_with_lightest(self):
        g = WeightedGraph.from_edges(3, [(0, 1), (1, 2)], [5, 1, 3])
        inst = DominationInstance(g, Fraction(1, 2))
        out = repair(inst, DominatingSet.from_members(g, [0]))
        assert out.members == {0, 1}
        assert is_feasible(inst, out)

    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_repair_always_feasible_from_any_start(self, inst):
        g = inst.graph
        for start in (set(), set(range(0, g.n, 2))):
            out = repair(inst, DominatingSet.from_members(g, start))
            assert is_feasible(inst, out)
            assert start <= out.members  # never removes anything


def repair_reference(inst, candidate):
    """The repair sweep as its own loop, before it became greedy S1's scan."""
    g = inst.graph
    out = set(candidate.members)
    cover = coverage_counts(g, out)
    for v in range(g.n):
        short = inst.demand(v) - int(cover[v])
        if short <= 0:
            continue
        pool = [u for u in g.adjacency[v] if u not in out]
        if v not in out:
            pool.append(v)
        pool.sort(key=lambda u: (g.weights[u], u))
        for u in pool[:short]:
            out.add(u)
            cover[g.closed_neighborhood(u)] += 1
    return DominatingSet.from_members(g, out)


@pytest.mark.parametrize("family", ["er", "planted", "powerlaw"])
def test_repair_matches_reference(family, monkeypatch):
    graph = {
        "er": lambda: gen_gnm(300, 3000, 21),
        "planted": lambda: gen_planted_partition(5, 60, 0.3, 0.01, 22),
        "powerlaw": lambda: gen_powerlaw_cluster(400, 3, 0.2, 23),
    }[family]()
    g = assign_weights(graph, WeightSpec(1, 71), 24)
    topped_up = 0
    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        inst = DominationInstance(g, alpha)
        values = solve_lp(build_lp(inst)).values
        # the empty set, every seventh vertex, rr's rounded sets after one pass
        # and after its full budget, and the union of rrwc's community picks
        starts = [DominatingSet.empty(), DominatingSet.from_members(g, range(0, g.n, 7))]
        for seed in range(2):
            for rounds in (1, default_max_rounds(g)):
                starts.append(round_until_feasible(inst, values, np.random.default_rng(seed),
                                                   rounds))
        with monkeypatch.context() as m:
            m.setattr(community, "repair", lambda _, picked: starts.append(picked) or picked)
            community_rounding(inst, 0)
        for start in starts:
            expected = repair_reference(inst, start)
            got = repair(inst, start)
            assert got.members == expected.members
            assert got.total_weight == expected.total_weight
            topped_up += 0 < len(start) < len(got)
    assert topped_up >= 6  # repair had work to do on starts other than the empty one


class TestRandomizedRounding:
    def test_k2_example(self):
        g = WeightedGraph.from_edges(2, [(0, 1)], [2, 7])
        inst = DominationInstance(g, Fraction(1, 2))
        d = randomized_rounding(inst, 5)
        assert 0 in d.members  # x-hat = (1, 0): vertex 0 always picked
        assert is_feasible(inst, d)

    def test_alpha_one_takes_everything_in_one_round(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], [2, 2, 2, 2])
        inst = DominationInstance(g, 1)
        d = randomized_rounding(inst, 11)
        assert d.members == {0, 1, 2, 3}

    def test_determinism_under_seed(self):
        g = assign_weights(gen_gnm(60, 240, 9), WeightSpec(1, 71), 10)
        inst = DominationInstance(g, Fraction(1, 4))
        a = randomized_rounding(inst, 123)
        b = randomized_rounding(inst, 123)
        assert a.members == b.members
        c = randomized_rounding(inst, 124)
        assert is_feasible(inst, c)

    def test_feasible_for_many_seeds(self):
        g = assign_weights(gen_gnm(80, 400, 12), WeightSpec(1, 71), 13)
        inst = DominationInstance(g, Fraction(1, 2))
        frac = solve_lp(build_lp(inst))
        for seed in range(25):
            d = randomized_rounding(inst, seed, fractional=frac)
            assert is_feasible(inst, d)

    def test_union_monotone_across_rounds(self):
        g = assign_weights(gen_gnm(40, 150, 14), WeightSpec(1, 71), 15)
        inst = DominationInstance(g, Fraction(1, 2))
        frac = solve_lp(build_lp(inst))
        rng = np.random.default_rng(77)
        acc: set[int] = set()
        sizes = []
        for _ in range(4):
            acc |= {int(v) for v in round_once(frac.values, rng)}
            sizes.append(len(acc))
        assert sizes == sorted(sizes)


def test_theorem_linkage_on_lp_solutions():
    # per-vertex coverage under plain rounding of the relaxation optimum:
    # the exact tail at the demand is at least one half
    for seed in range(6):
        g = assign_weights(gen_gnm(40, 160, 100 + seed), WeightSpec(1, 71), 200 + seed)
        inst = DominationInstance(g, Fraction(1, 2))
        sol = solve_lp(build_lp(inst))
        values = np.clip(sol.values, 0.0, 1.0)
        for v in range(g.n):
            probs = values[g.closed_neighborhood(v)]
            assert probs.sum() >= inst.demand(v) - 1e-7
            tail = poisson_binomial_tail(list(probs), inst.demand(v))
            assert tail >= 0.5 - 1e-9


def test_degree_1e5_hub_rounds_in_bounded_time():
    # the covering LP has 10^5 + 1 rows; a dense tableau of it would need ~160 GB
    leaves = 100_000
    start = time.perf_counter()
    g = WeightedGraph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)],
                                 [1 + v % 71 for v in range(leaves + 1)])
    inst = DominationInstance(g, Fraction(1, 2))
    for solver in (randomized_rounding, community_rounding):
        d = solver(inst, 3)
        assert is_feasible(inst, d)
    assert time.perf_counter() - start < 60.0
