"""``gen_gnm`` and ``gen_planted_partition`` build the graph of the
one-draw-at-a-time samplers they replaced, edge for edge, for every
(parameters, seed)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadom import gen_gnm, gen_planted_partition

from .generators_reference import reference_gnm, reference_planted_partition

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
