"""Shared hypothesis strategies for random graphs and instances."""
from fractions import Fraction

from hypothesis import strategies as st

from alphadom import DominationInstance, WeightedGraph

ALPHAS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2, 5)]


@st.composite
def weighted_graphs(draw, max_n: int = 10, max_weight: int = 20):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))) if possible else []
    weights = draw(st.lists(st.integers(min_value=1, max_value=max_weight),
                            min_size=n, max_size=n))
    return WeightedGraph.from_edges(n, edges, weights)


@st.composite
def instances(draw, max_n: int = 10, max_weight: int = 20):
    g = draw(weighted_graphs(max_n=max_n, max_weight=max_weight))
    alpha = draw(st.sampled_from(ALPHAS))
    return DominationInstance(g, alpha)


# Weights whose ratios defeat a float or int64 key: 2**53 and 2**53 + 1 share
# one float, 2**64 + 1 overflows int64, 2**1100 overflows float itself.
# 3k + 1 and 3k + 2 with k = 2**51 + 5 are below 2**53, but over a closed
# degree of 3 they round to one float, k + 1/2.
HARD_WEIGHTS = [2**53, 2**53 + 1, 2**64 + 1, 2**64 + 2, 2**1100, 2**1100 + 1,
                3 * (2**51 + 5) + 1, 3 * (2**51 + 5) + 2]


@st.composite
def hard_weighted_graphs(draw, max_n: int = 12):
    g = draw(weighted_graphs(max_n=max_n))
    weight = st.one_of(st.integers(1, 3), st.sampled_from(HARD_WEIGHTS))
    return g.with_weights(draw(st.lists(weight, min_size=g.n, max_size=g.n)))


def near_float_bound(n):
    """A sparse graph on n vertices with weights just below 2**53, five of
    them apart.  At n = 1000 the weights are int64 and S1's and S2's ratios
    exact floats, while S3's sums pass 2**53, so its float quotients read
    zero and only cross-multiplying orders them.  At n = 1100 the largest
    weight times n passes 2**63, and every key is a position in sort_key
    order."""
    return WeightedGraph.from_edges(n, [(v, v + 1) for v in range(0, n - 1, 3)],
                                    [2**53 - 1 - v % 5 for v in range(n)])
