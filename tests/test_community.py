"""Community detection and the partitioned rounding solver."""
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from alphadom import (DominationInstance, Partition, WeightedGraph,
                      community_rounding, gen_planted_partition, is_feasible,
                      louvain, modularity, planted_block_assignment)
from alphadom.generators import WeightSpec, assign_weights, gen_gnm

from .strategies import instances


def two_triangles(bridge=False):
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    if bridge:
        edges.append((2, 3))
    return WeightedGraph.from_edges(6, edges, [1] * 6)


def all_partitions(n):
    """Every set partition of range(n), as assignment tuples."""
    if n == 0:
        yield ()
        return
    for smaller in all_partitions(n - 1):
        k = max(smaller, default=-1) + 1
        for c in range(k + 1):
            yield smaller + (c,)


def exhaustive_best_partition(g):
    best, best_q = None, -2.0
    for assignment in all_partitions(g.n):
        q = modularity(g, Partition.from_assignment(assignment))
        if q > best_q + 1e-12:
            best, best_q = assignment, q
    return Partition.from_assignment(best), best_q


class TestPartitionType:
    def test_ids_must_be_dense(self):
        with pytest.raises(ValueError):
            Partition((0, 2), 3)

    def test_relabel_by_first_appearance(self):
        p = Partition.from_assignment([5, 5, 9, 5])
        assert p.community_of == (0, 0, 1, 0) and p.k == 2

    def test_members_listing(self):
        p = Partition((0, 1, 0), 2)
        assert p.communities() == [[0, 2], [1]]


class TestModularity:
    def test_single_community_is_zero(self):
        g = two_triangles(bridge=True)
        assert modularity(g, Partition((0,) * 6, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_two_disjoint_triangles_is_exactly_half(self):
        q = modularity(two_triangles(), Partition((0, 0, 0, 1, 1, 1), 2))
        assert q == 0.5

    def test_edgeless_graph_is_zero(self):
        g = WeightedGraph.from_edges(3, [], [1, 1, 1])
        assert modularity(g, Partition((0, 1, 2), 3)) == 0.0

    def test_mismatched_partition_rejected(self):
        with pytest.raises(ValueError):
            modularity(two_triangles(), Partition((0, 1), 2))


class TestLouvain:
    def test_bridged_triangles_recovered(self):
        g = two_triangles(bridge=True)
        found = louvain(g)
        best, best_q = exhaustive_best_partition(g)
        assert found.community_of == best.community_of == (0, 0, 0, 1, 1, 1)
        assert modularity(g, found) == pytest.approx(best_q, abs=1e-12)

    def test_single_clique_stays_whole(self):
        g = WeightedGraph.from_edges(5, list(combinations(range(5), 2)), [1] * 5)
        found = louvain(g)
        _, best_q = exhaustive_best_partition(g)
        assert found.k == 1
        assert best_q == pytest.approx(0.0, abs=1e-12)  # no split improves a clique

    def test_planted_blocks_with_no_cross_edges(self):
        g = gen_planted_partition(4, 12, 0.9, 0.0, 3)
        found = louvain(g)
        truth = Partition.from_assignment(planted_block_assignment(4, 12))
        assert found.community_of == truth.community_of

    def test_beats_singletons(self):
        g = assign_weights(gen_gnm(60, 240, 21), WeightSpec(1, 71), 22)
        q = modularity(g, louvain(g))
        singles = modularity(g, Partition(tuple(range(g.n)), g.n))
        assert q >= singles

    def test_deterministic(self):
        # two graph objects: louvain keeps its partition on the graph, so a
        # second call on one object would only return the first result
        g = gen_planted_partition(3, 25, 0.3, 0.02, 9)
        twin = gen_planted_partition(3, 25, 0.3, 0.02, 9)
        assert louvain(g) is not louvain(twin)
        assert louvain(g).community_of == louvain(twin).community_of

    def test_every_vertex_assigned(self):
        g = assign_weights(gen_gnm(40, 100, 31), WeightSpec(1, 5), 32)
        p = louvain(g)
        assert len(p.community_of) == g.n
        assert all(0 <= c < p.k for c in p.community_of)


class TestCommunityRounding:
    def test_two_disconnected_k2s(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (2, 3)], [2, 7, 2, 7])
        inst = DominationInstance(g, Fraction(1, 2))
        d = community_rounding(inst, 4)
        assert d.members == {0, 2}
        assert d.total_weight == 4

    def test_single_community_graph(self):
        g = WeightedGraph.from_edges(4, list(combinations(range(4), 2)), [3, 1, 4, 1])
        inst = DominationInstance(g, Fraction(1, 2))
        d = community_rounding(inst, 8)
        assert is_feasible(inst, d)

    def test_cross_community_demands_repaired(self):
        # vertex 0 leans on the other block: its global demand cannot be met
        # inside its own community, so the final global sweep must act
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                 (0, 3), (0, 4), (0, 5)]
        g = WeightedGraph.from_edges(6, edges, [1, 2, 3, 4, 5, 6])
        inst = DominationInstance(g, Fraction(3, 4))
        forced = Partition((0, 0, 0, 1, 1, 1), 2)
        for seed in range(10):
            d = community_rounding(inst, seed, partition=forced)
            assert is_feasible(inst, d)
            assert len(d.members & {3, 4, 5}) >= 2  # demand(0) = 5 of N[0]

    def test_singleton_communities_enter_directly(self):
        g = WeightedGraph.from_edges(3, [], [4, 4, 4])
        inst = DominationInstance(g, Fraction(1, 2))
        d = community_rounding(inst, 2)
        assert d.members == {0, 1, 2}

    def test_determinism_under_seed(self):
        g = assign_weights(gen_planted_partition(3, 20, 0.4, 0.02, 6),
                           WeightSpec(1, 71), 7)
        inst = DominationInstance(g, Fraction(1, 4))
        a = community_rounding(inst, 99)
        b = community_rounding(inst, 99)
        assert a.members == b.members

    def test_explicit_partition_is_honored(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (2, 3)], [2, 7, 2, 7])
        inst = DominationInstance(g, Fraction(1, 2))
        one_block = Partition((0, 0, 0, 0), 1)
        d = community_rounding(inst, 4, partition=one_block)
        assert is_feasible(inst, d)


@settings(max_examples=50, deadline=None)
@given(instances())
def test_community_rounding_always_feasible(inst):
    d = community_rounding(inst, 17)
    assert is_feasible(inst, d)
    assert d.total_weight == d.recomputed_weight(inst.graph)
