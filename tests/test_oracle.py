"""Exact oracle: brute-force enumeration and Poisson-binomial tails."""
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadom import (DominatingSet, DominationInstance, InstanceTooLargeError,
                      WeightedGraph, brute_force_opt, check_theorem_half,
                      is_feasible, poisson_binomial_pmf, poisson_binomial_tail)

from .strategies import instances


def naive_opt(inst):
    """Reference minimum by plain subset iteration (no Gray-code tricks)."""
    g = inst.graph
    best = None
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if is_feasible(inst, set(combo)):
                w = sum(g.weights[v] for v in combo)
                cand = (w, len(combo), combo)
                if best is None or cand < best:
                    best = cand
    return best


class TestBruteForce:
    def test_path_example(self):
        g = WeightedGraph.from_edges(3, [(0, 1), (1, 2)], [5, 1, 3])
        res = brute_force_opt(DominationInstance(g, Fraction(1, 2)))
        assert res.opt_weight == 4
        assert res.opt_set.as_sorted_tuple() == (1, 2)

    def test_triangle_alpha_one(self):
        g = WeightedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], [2, 3, 4])
        res = brute_force_opt(DominationInstance(g, 1))
        assert res.opt_weight == 9
        assert res.opt_set.as_sorted_tuple() == (0, 1, 2)

    def test_single_vertex(self):
        g = WeightedGraph.from_edges(1, [], [9])
        assert brute_force_opt(DominationInstance(g, Fraction(1, 2))).opt_weight == 9

    def test_size_guard(self):
        g = WeightedGraph.from_edges(23, [], [1] * 23)
        with pytest.raises(InstanceTooLargeError):
            brute_force_opt(DominationInstance(g, Fraction(1, 2)))

    def test_tie_break_prefers_smaller_then_lexicographic(self):
        # K2 with equal weights: {0} and {1} both optimal; lexicographic pick
        g = WeightedGraph.from_edges(2, [(0, 1)], [3, 3])
        res = brute_force_opt(DominationInstance(g, Fraction(1, 2)))
        assert res.opt_set.as_sorted_tuple() == (0,)

    @settings(max_examples=30, deadline=None)
    @given(instances(max_n=7))
    def test_matches_naive_enumeration(self, inst):
        res = brute_force_opt(inst)
        w, card, members = naive_opt(inst)
        assert res.opt_weight == w
        assert len(res.opt_set) == card
        assert res.opt_set.as_sorted_tuple() == members
        assert is_feasible(inst, res.opt_set)


class TestPoissonBinomial:
    def test_certain_trials(self):
        assert poisson_binomial_tail([1.0, 1.0], 2) == pytest.approx(1.0, abs=1e-15)

    def test_three_fair_coins(self):
        assert poisson_binomial_tail([0.5] * 3, 2) == pytest.approx(0.5, abs=1e-15)

    def test_k_zero_is_one(self):
        assert poisson_binomial_tail([0.1, 0.9, 0.3], 0) == 1.0

    def test_k_above_count_is_zero(self):
        assert poisson_binomial_tail([0.5, 0.5], 3) == 0.0

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            poisson_binomial_tail([1.5], 1)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=12),
           st.integers(min_value=0, max_value=13))
    def test_tail_matches_pmf_suffix_sum(self, probs, k):
        tail = poisson_binomial_tail(probs, k)
        pmf = poisson_binomial_pmf(probs)
        assert tail == pytest.approx(float(pmf[k:].sum()), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=15))
    def test_pmf_sums_to_one(self, probs):
        assert math.fsum(poisson_binomial_pmf(probs)) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=12))
    def test_tail_monotone_in_k(self, probs):
        tails = [poisson_binomial_tail(probs, k) for k in range(len(probs) + 1)]
        assert tails[0] == 1.0
        assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))

    def test_binomial_special_case_median(self):
        # equal probabilities with integral mean: tail at the mean is >= 1/2
        for d, k in ((4, 2), (10, 5), (20, 4)):
            p = k / d
            assert poisson_binomial_tail([p] * d, k) >= 0.5


class TestTheoremHalf:
    def test_single_certain_trial(self):
        assert check_theorem_half([1.0], 1)

    def test_two_halves(self):
        assert check_theorem_half([0.5, 0.5], 1)

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            check_theorem_half([0.2, 0.2], 1)

    def test_thousand_random_vectors(self):
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 1000:
            d = int(rng.integers(1, 21))
            probs = rng.random(d)
            k = int(math.floor(probs.sum()))
            if k < 1:
                continue
            # scale so the total hits k exactly: the theorem's tight spot
            probs = probs * (k / probs.sum())
            if probs.max() > 1.0:
                continue
            assert check_theorem_half(list(probs), k)
            checked += 1
