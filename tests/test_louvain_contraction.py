"""Louvain's level contraction and relabelling in numpy give what the sparse
product Pᵀ A P and a dict relabelling by first appearance give."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadom import Partition, community, louvain
from alphadom.generators import gen_gnm, gen_planted_partition, gen_powerlaw_cluster

from .strategies import weighted_graphs


def scipy_aggregate(indptr, indices, data, comm):
    """The contraction as one sparse product Pᵀ A P, diagonal dropped, with
    each row's columns in ascending order."""
    from scipy.sparse import csr_array

    n, k = len(comm), int(comm.max()) + 1
    a = csr_array((data, indices, indptr), shape=(n, n))
    p = csr_array((np.ones(n, dtype=np.int64), (np.arange(n), comm)), shape=(n, k))
    b = (p.T @ a @ p).tocoo()
    off = b.row != b.col
    b = csr_array((b.data[off], (b.row[off], b.col[off])), shape=(k, k))
    b.sort_indices()
    return b.indptr, b.indices, b.data


def assert_same_level(got, want):
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert g.tolist() == w.tolist()


@st.composite
def levels(draw):
    """(indptr, indices, data, comm): a level's symmetric CSR rows without
    self-loops, int64 weights (sometimes all one, as at Louvain's first
    level) and communities numbered by first appearance, sometimes all one
    community."""
    g = draw(weighted_graphs(max_n=20))
    indptr, indices = g.indptr, g.indices
    data = np.ones(len(indices), dtype=np.int64)
    if draw(st.booleans()):
        # one weight per undirected edge, the same in both of its rows
        owners = np.repeat(np.arange(g.n), np.diff(indptr))
        lo, hi = np.minimum(owners, indices), np.maximum(owners, indices)
        _, pair = np.unique(lo * g.n + hi, return_inverse=True)
        weights = draw(st.lists(st.integers(1, 1000), min_size=g.edge_count,
                                max_size=g.edge_count))
        data = np.asarray(weights, dtype=np.int64)[pair]
    if draw(st.booleans()):
        comm = [0] * g.n
    else:
        comm = draw(st.lists(st.integers(0, g.n - 1), min_size=g.n, max_size=g.n))
    comm = np.asarray(Partition.from_assignment(comm).community_of, dtype=np.int64)
    return indptr, indices, data, comm


@settings(max_examples=300, deadline=None)
@given(levels())
def test_aggregate_matches_the_sparse_product(level):
    assert_same_level(community._aggregate(*level), scipy_aggregate(*level))


def test_aggregate_of_one_community_has_no_entries():
    g = gen_gnm(30, 100, 3)
    comm = np.zeros(g.n, dtype=np.int64)
    ones = np.ones(len(g.indices), dtype=np.int64)
    indptr, indices, data = community._aggregate(g.indptr, g.indices, ones, comm)
    assert indptr.tolist() == [0, 0] and len(indices) == 0 and len(data) == 0
    assert_same_level((indptr, indices, data), scipy_aggregate(g.indptr, g.indices, ones, comm))


def test_every_level_of_louvain_matches_the_sparse_product(monkeypatch):
    seen = []

    def checked(indptr, indices, data, comm):
        got = aggregate(indptr, indices, data, comm)
        assert_same_level(got, scipy_aggregate(indptr, indices, data, comm))
        seen.append(bool(np.all(data == 1)))
        return got

    aggregate = community._aggregate
    monkeypatch.setattr(community, "_aggregate", checked)
    for g in (gen_gnm(1000, 10_000, 1), gen_planted_partition(10, 100, 0.2, 0.001, 2),
              gen_powerlaw_cluster(2000, 3, 0.3, 1)):
        louvain(g)
    assert True in seen and False in seen  # levels of weights all one, and heavier ones


def dict_relabel(ids):
    """``ids`` renumbered 0, 1, ... in order of first appearance, by a dict."""
    relabel: dict[int, int] = {}
    return [relabel.setdefault(c, len(relabel)) for c in ids]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-5, 30), max_size=40))
def test_relabel_matches_a_dict_relabel(ids):
    want = dict_relabel(ids)
    got = community._first_appearance(np.asarray(ids, dtype=np.int64))
    assert got.dtype == np.int64 and got.tolist() == want
    p = Partition.from_assignment(ids)
    assert p.community_of == tuple(want) and p.k == len(set(ids))
