"""Randomized rounding: per-pass statistics, amplification, repair, feasibility."""
import time
from fractions import Fraction

import numpy as np
from hypothesis import given, settings

from alphadom import (DominatingSet, DominationInstance, WeightedGraph,
                      build_lp, community_rounding, default_max_rounds,
                      is_feasible, poisson_binomial_tail, randomized_rounding,
                      repair, round_once, solve_lp)
from alphadom.generators import WeightSpec, assign_weights, gen_gnm

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
