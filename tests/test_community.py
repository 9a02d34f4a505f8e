"""Community detection and the partitioned rounding solver."""
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadom import (DominationInstance, Partition, WeightedGraph, build_lp, community,
                      community_rounding, gen_planted_partition, is_feasible,
                      louvain, modularity, planted_block_assignment)
from alphadom.generators import WeightSpec, assign_weights, gen_gnm

from .louvain_reference import reference_louvain
from .strategies import instances, weighted_graphs
from .test_louvain_reference import perfbench_graphs  # noqa: F401  (a fixture)

# num * (deg + 1) passes int64 from deg = 1 on
PROGRAM_ALPHAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1),
                  Fraction(2**62 + 1, 2**63))


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
        with pytest.raises(ValueError, match="assigns 2 vertices, the graph has 6"):
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

    @pytest.mark.parametrize("n, m, seed", [(30, 40, 80), (60, 150, 26), (200, 400, 1)])
    def test_sparse_graphs_match_reference(self, n, m, seed):
        # on these graphs a community empties during a sweep, and a vertex
        # must not then move into it through a link count left at zero
        g = gen_gnm(n, m, seed)
        assert louvain(g).community_of == reference_louvain(g)

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

    @pytest.mark.parametrize("assignment", [(0, 0, 1), (0, 0, 0, 1, 1, 1, 1)])
    def test_partition_of_another_size_rejected(self, assignment):
        inst = DominationInstance(two_triangles(bridge=True), Fraction(1, 2))
        with pytest.raises(ValueError, match=f"assigns {len(assignment)} vertices, "
                                             "the graph has 6"):
            community_rounding(inst, 0, partition=Partition.from_assignment(assignment))

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


def assert_programs_match_subgraphs(g, part, alpha):
    """Every community program cut in one pass equals the one built from
    that community's induced subgraph."""
    blocks = [(c, verts) for c, verts in enumerate(part.communities()) if len(verts) > 1]
    programs = list(community.community_programs(g, alpha, part))
    assert [c for c, _, _ in programs] == [c for c, _ in blocks]
    for (_, verts, lp), (_, want_verts) in zip(programs, blocks):
        sub, to_global = g.subgraph(want_verts)
        assert np.array_equal(verts, to_global)
        want = build_lp(DominationInstance(sub, alpha))
        assert lp.n_vars == want.n_vars
        for name in ("indptr", "indices", "weights", "bounds"):
            got, expected = getattr(lp, name), getattr(want, name)
            assert got.dtype == expected.dtype == np.int64, name
            assert np.array_equal(got, expected), name


@st.composite
def partitioned_graphs(draw):
    """A graph with a random partition: singletons come up often, and the
    community ids are shuffled out of first-appearance order."""
    g = draw(weighted_graphs(max_n=12))
    found = Partition.from_assignment(
        draw(st.lists(st.integers(0, g.n - 1), min_size=g.n, max_size=g.n)))
    ids = draw(st.permutations(range(found.k)))
    return g, Partition(tuple(ids[c] for c in found.community_of), found.k)


class TestCommunityPrograms:
    @settings(max_examples=150, deadline=None)
    @given(partitioned_graphs(), st.sampled_from(PROGRAM_ALPHAS))
    def test_equal_to_subgraph_programs(self, graph_and_partition, alpha):
        assert_programs_match_subgraphs(*graph_and_partition, alpha)

    def test_equal_to_subgraph_programs_on_perfbench_graphs(self, perfbench_graphs):
        for g in perfbench_graphs.values():
            for alpha in PROGRAM_ALPHAS:
                assert_programs_match_subgraphs(g, louvain(g), alpha)

    def test_no_program_and_no_lp_without_a_community_of_two(self, monkeypatch):
        def no_lp(lp):
            raise AssertionError("an LP was started")

        monkeypatch.setattr(community, "solve_lp", no_lp)
        empty = WeightedGraph.from_edges(0, [], [])
        g = assign_weights(gen_gnm(30, 60, 4), WeightSpec(1, 9), 5)
        singletons = Partition(tuple(reversed(range(g.n))), g.n)
        for graph, part in ((empty, None), (g, singletons)):
            inst = DominationInstance(graph, Fraction(1, 2))
            assert list(community.community_programs(graph, inst.alpha,
                                                     part or louvain(graph))) == []
            assert community_rounding(inst, 3, part).members == set(range(graph.n))

    def test_a_singleton_may_weigh_past_int64(self):
        # a singleton enters no program; a heavy vertex in a program is named
        g = WeightedGraph.from_edges(4, [(0, 1)], [2, 3, 2**64, 5], ["a", "b", "c", "d"])
        inst = DominationInstance(g, Fraction(1, 2))
        assert louvain(g).communities() == [[0, 1], [2], [3]]
        assert community_rounding(inst, 1).members == {0, 2, 3}
        with pytest.raises(ValueError, match="vertex c has weight 18446744073709551616"):
            community_rounding(inst, 1, Partition((0, 0, 1, 1), 2))
