"""Every generator builds the graph of the original sampler it replaced,
edge for edge, for every (parameters, seed)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadom import derive_seed, gen_gnm, gen_planted_partition, gen_powerlaw_cluster

from .generators_reference import (reference_gnm, reference_planted_partition,
                                   reference_powerlaw_cluster)
from .test_acceptance import BASE

SEEDS = st.integers(0, 2**63 - 1)
# below about 1e-307 a jump passes the largest float and the reference raises
# OverflowError; test_generators.py checks subnormal probabilities
PROBABILITIES = st.sampled_from([0.0, 1.0, 1e-3, 0.999]) | st.floats(1e-300, 1.0)


def assert_same_graph(g, ref):
    assert g.n == ref.n
    assert np.array_equal(g.indptr, ref.indptr)
    assert np.array_equal(g.indices, ref.indices)


@st.composite
def gnm_params(draw):
    n = draw(st.integers(0, 40))
    most = n * (n - 1) // 2
    m = draw(st.sampled_from([0, most]) | st.integers(0, most))
    return n, m, draw(SEEDS)


@settings(max_examples=300, deadline=None)
@given(gnm_params())
def test_gnm_matches_reference(params):
    assert_same_graph(gen_gnm(*params), reference_gnm(*params))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 25), PROBABILITIES, PROBABILITIES, SEEDS)
def test_planted_partition_matches_reference(l, size, p_in, p_out, seed):
    assert_same_graph(gen_planted_partition(l, size, p_in, p_out, seed),
                      reference_planted_partition(l, size, p_in, p_out, seed))


@pytest.mark.parametrize("params", [
    (800, 8000, 5037064853972601291),  # the benchmark's er-dense graph
    (500, 5000, 3),
    (60, 1770, 4),                     # complete
    (2, 1, 5),
    (1, 0, 6),
    (0, 0, 7),
])
def test_gnm_matches_reference_on_fixed_graphs(params):
    assert_same_graph(gen_gnm(*params), reference_gnm(*params))


@pytest.mark.parametrize("params", [
    (10, 100, 0.2, 0.001, 232788586006161348),  # the benchmark's plp-modular graph
    (4, 60, 0.5, 0.05, 9),
    (1, 40, 0.3, 0.5, 10),     # one block: no inter-block run
    (30, 1, 0.5, 0.3, 11),     # blocks of one vertex: no intra-block pair
    (3, 2, 0.9, 0.9, 12),      # one slot per intra-block run
    (2, 10, 1e-300, 0.5, 13),  # a run that ends on its first draw
])
def test_planted_partition_matches_reference_on_fixed_graphs(params):
    assert_same_graph(gen_planted_partition(*params), reference_planted_partition(*params))


@st.composite
def powerlaw_cluster_params(draw):
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k + 1, 200))
    p = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return n, k, p, draw(SEEDS)


@settings(max_examples=300, deadline=None)
@given(powerlaw_cluster_params())
def test_powerlaw_cluster_matches_reference(params):
    assert_same_graph(gen_powerlaw_cluster(*params), reference_powerlaw_cluster(*params))


@pytest.mark.parametrize("params", [
    (5000, 10, 0.1, 1),   # the paper's size
    (2000, 3, 0.3, 3),    # the Louvain tests' graph
    (300, 8, 1.0, 4),     # every later step tries triad closure
    (9, 8, 0.5, 5),       # one vertex past the seed graph
])
def test_powerlaw_cluster_matches_reference_on_fixed_graphs(params):
    assert_same_graph(gen_powerlaw_cluster(*params), reference_powerlaw_cluster(*params))


@pytest.mark.parametrize("n, count", [(50, 14), (200, 6), (500, 3)])
def test_powerlaw_cluster_matches_reference_on_criterion_1_graphs(n, count):
    # the powerlaw-cluster graphs of test_acceptance.py's criterion 1
    for i in range(count):
        seed = derive_seed(BASE, "acc1-graph", "pn", n, i)
        assert_same_graph(gen_powerlaw_cluster(n, 5, 0.8, seed),
                          reference_powerlaw_cluster(n, 5, 0.8, seed))
