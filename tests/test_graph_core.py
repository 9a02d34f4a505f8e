"""Graph model, demand arithmetic, and the feasibility verifier."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadom import (DominatingSet, DominationInstance, WeightedGraph, as_alpha,
                      connected_components, coverage_count, coverage_counts,
                      deficiency, gen_gnm, gen_planted_partition,
                      gen_powerlaw_cluster, graph_stats, is_feasible)
from alphadom.lp import build_lp

from .strategies import instances, weighted_graphs


def path3(weights=(5, 1, 3)):
    return WeightedGraph.from_edges(3, [(0, 1), (1, 2)], list(weights))


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph.from_edges(2, [(0, 0)], [1, 1])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weights"):
            WeightedGraph.from_edges(2, [(0, 1)], [1, 0])

    def test_rejects_weights_that_are_not_integers(self):
        with pytest.raises(ValueError, match="weight 1.7 of vertex 0 is not an integer"):
            WeightedGraph.from_edges(2, [(0, 1)], [1.7, True])
        # operator.index reads True as 1, so a boolean is refused before it
        with pytest.raises(ValueError, match="^weight True of vertex 0 is not an integer$"):
            WeightedGraph([[1], [0]], [True, 3])
        weights = WeightedGraph.from_edges(2, [(0, 1)], np.array([3, 4])).weights
        assert weights == (3, 4) and all(type(w) is int for w in weights)

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError, match="mirror"):
            WeightedGraph([(1,), ()], [1, 1])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_reports_the_first_edge_missing_its_mirror(self, data):
        n = data.draw(st.integers(1, 8))
        adj = [tuple(sorted(data.draw(st.sets(st.sampled_from([u for u in range(n) if u != v]))
                                      if n > 1 else st.just(set()))))
               for v in range(n)]
        # reference: the first (v, u) in scan order whose mirror is absent
        missing = [(v, u) for v, row in enumerate(adj) for u in row if v not in adj[u]]
        if missing:
            v, u = missing[0]
            with pytest.raises(ValueError, match=f"^edge {v}-{u} missing its mirror$"):
                WeightedGraph(adj, [1] * n)
        else:
            assert WeightedGraph(adj, [1] * n).adjacency == tuple(adj)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reports_the_first_bad_entry_in_scan_order(self, data):
        n = data.draw(st.integers(1, 6))
        entry = st.one_of(st.integers(-2, n + 1), st.sampled_from([-2**70, 2**70]))
        adj = [data.draw(st.lists(entry, max_size=4)) for _ in range(n)]
        # reference: the first entry that is out of range, a self-loop, or
        # not above the entry before it in its row
        expected = None
        for v, row in enumerate(adj):
            for i, u in enumerate(row):
                if not 0 <= u < n:
                    expected = f"neighbor {u} of vertex {v} out of range"
                elif u == v:
                    expected = f"self-loop at vertex {v}"
                elif i and u <= row[i - 1]:
                    expected = f"neighbor list of {v} not sorted/unique"
                if expected:
                    break
            if expected:
                break
        if expected is None:
            missing = [(v, u) for v, row in enumerate(adj) for u in row if v not in adj[u]]
            expected = "edge {}-{} missing its mirror".format(*missing[0]) if missing else None
        if expected is None:
            assert WeightedGraph(adj, [1] * n).adjacency == tuple(map(tuple, adj))
        else:
            with pytest.raises(ValueError) as info:
                WeightedGraph(adj, [1] * n)
            assert str(info.value) == expected

    def test_rejects_unsorted_neighbors(self):
        with pytest.raises(ValueError, match="sorted"):
            WeightedGraph([(2, 1), (0,), (0,)], [1, 1, 1])

    def test_duplicate_edges_collapse(self):
        g = WeightedGraph.from_edges(2, [(0, 1), (1, 0), (0, 1)], [1, 1])
        assert g.edge_count == 1

    def test_labels_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            WeightedGraph.from_edges(2, [(0, 1)], [1, 1], labels=["a", "a"])

    @pytest.mark.parametrize("build", [
        lambda labels: WeightedGraph([(1,), (0,), ()], [1, 1, 1], labels),
        lambda labels: WeightedGraph.from_edges(3, [(0, 1)], [1, 1, 1], labels),
        lambda labels: WeightedGraph.from_edges(3, np.array([[1, 0]]),
                                                np.ones(3, dtype=np.int64), labels),
    ], ids=["constructor", "from_edges", "from_edges-arrays"])
    def test_both_builders_check_the_labels(self, build):
        with pytest.raises(ValueError, match="^vertex labels must be unique$"):
            build(["a", "b", "a"])
        for labels in (["a", "b"], ["a", "b", "c", "d"], []):
            with pytest.raises(ValueError, match="^label count does not match vertex count$"):
                build(labels)
        g = build([10, 2, "x"])
        assert g.labels == ("10", "2", "x") and all(type(s) is str for s in g.labels)
        assert build(None).labels is None
        # the derived graphs hand their labels on unchanged
        assert g.with_weights([4, 5, 6]).labels == g.labels
        assert g.subgraph([2, 0])[0].labels == ("10", "x")

    def test_equality_round_trip(self):
        g = path3()
        h = WeightedGraph(g.adjacency, g.weights)
        assert g == h

    def test_equality_compares_the_arrays(self):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        cycle = WeightedGraph.from_edges(4, edges, [1, 2, 3, 4])
        same = WeightedGraph.from_edges(4, [(v, u) for u, v in reversed(edges)], [1, 2, 3, 4])
        # also a 4-cycle, so every degree is the same
        other = WeightedGraph.from_edges(4, [(0, 2), (1, 2), (1, 3), (0, 3)], [1, 2, 3, 4])
        labelled = WeightedGraph.from_edges(4, edges, [1, 2, 3, 4], labels="abcd")
        assert cycle == same
        assert cycle != other
        assert cycle != cycle.with_weights([1, 2, 3, 5])
        assert cycle != labelled
        assert cycle != WeightedGraph.from_edges(5, edges, [1, 2, 3, 4, 5])
        assert all(g._adjacency is None for g in (cycle, same, other, labelled))


class TestAlpha:
    def test_string_fraction(self):
        assert as_alpha("1/4") == Fraction(1, 4)

    def test_float_goes_through_decimal_text(self):
        assert as_alpha(0.1) == Fraction(1, 10)

    def test_numpy_numbers_are_rates(self):
        assert as_alpha(np.float32(0.1)) == as_alpha(np.float16(0.1)) == Fraction(1, 10)
        assert as_alpha(np.float64(0.25)) == Fraction(1, 4)
        assert as_alpha(np.int64(1)) == 1

    @pytest.mark.parametrize("bad", [0, -1, "5/4", 1.5])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            as_alpha(bad)

    @pytest.mark.parametrize("bad", [True, False, np.True_, None, [1], "half", "", float("nan"),
                                     float("inf"), object()])
    def test_refuses_what_is_not_a_rate(self, bad):
        # a boolean is not read as 1 or 0, and a non-number is a ValueError
        message = re.escape(f"coverage rate must be a number or a fraction string, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            as_alpha(bad)
        with pytest.raises(ValueError, match=f"^{message}$"):
            DominationInstance(WeightedGraph.from_edges(2, [(0, 1)]), bad)


class TestClosedDegreeAndDemand:
    def test_isolated_vertex(self):
        g = WeightedGraph.from_edges(1, [], [1])
        assert g.degree(0) + 1 == 1

    def test_triangle(self):
        g = WeightedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], [1, 1, 1])
        assert g.degree(0) + 1 == 3

    def test_degree_20_vertex(self):
        g = WeightedGraph.from_edges(21, [(0, v) for v in range(1, 21)], [1] * 21)
        assert g.degree(0) + 1 == 21

    def test_demand_half_of_three(self):
        inst = DominationInstance(path3(), Fraction(1, 2))
        assert inst.demand(1) == 2  # ceil(1.5)

    def test_demand_quarter_of_21(self):
        g = WeightedGraph.from_edges(21, [(0, v) for v in range(1, 21)], [1] * 21)
        inst = DominationInstance(g, Fraction(1, 4))
        assert inst.demand(0) == 6  # ceil(5.25)

    def test_demand_alpha_one_forces_closed_neighborhood(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)], [1] * 4)
        inst = DominationInstance(g, 1)
        assert inst.demand(0) == g.degree(0) + 1

    def test_no_float_ceiling_drift(self):
        # ceil(0.2 * 5) must be exactly 1, not 2 from a 0.2000...01 artifact
        g = WeightedGraph.from_edges(5, [(0, v) for v in range(1, 5)], [1] * 5)
        inst = DominationInstance(g, "1/5")
        assert inst.demand(0) == 1


class TestCoverageAndFeasibility:
    def test_coverage_all_vertices(self):
        g = path3()
        full = DominatingSet.from_members(g, range(3))
        assert coverage_count(g, full, 1) == g.degree(1) + 1

    def test_coverage_empty(self):
        g = path3()
        assert coverage_count(g, DominatingSet.empty(), 1) == 0

    def test_coverage_path_example(self):
        g = path3()
        d = DominatingSet.from_members(g, [1, 2])
        assert coverage_count(g, d, 1) == 2

    def test_full_set_feasible_any_alpha(self):
        g = path3()
        for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            inst = DominationInstance(g, alpha)
            assert is_feasible(inst, DominatingSet.from_members(g, range(3)))

    def test_empty_set_infeasible(self):
        inst = DominationInstance(path3(), Fraction(1, 4))
        assert not is_feasible(inst, DominatingSet.empty())

    def test_path_feasibility_cases(self):
        # frozen from exhaustive enumeration of all 8 subsets at alpha = 1/2
        inst = DominationInstance(path3(), Fraction(1, 2))
        assert is_feasible(inst, {1, 2})
        report = deficiency(inst, {1})
        assert report.shortfalls == {1: 1}

    def test_total_weight_and_max_degree(self):
        g = path3()
        assert DominatingSet.from_members(g, {1, 2}).recomputed_weight(g) == 4
        assert DominatingSet.empty().recomputed_weight(g) == 0
        assert g.max_degree() == 2
        assert WeightedGraph.from_edges(3, [], [1, 1, 1]).max_degree() == 0


class TestDominatingSet:
    def test_weight_counts_a_repeated_member_once(self):
        g = path3()
        d = DominatingSet.from_members(g, [0, 2, 0])
        assert d.vertices.tolist() == [0, 2]
        assert d.total_weight == 8 == d.recomputed_weight(g)

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError):
            DominatingSet.from_members(path3(), [7])


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(), st.data())
def test_every_builder_holds_one_sorted_read_only_array(g, data):
    picked = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
    members = set(picked)
    mask = np.zeros(g.n, dtype=bool)
    mask[picked] = True
    probes = range(-1, g.n + 1)
    for d in (DominatingSet.from_members(g, picked), DominatingSet.from_members(g, members),
              DominatingSet.from_members(g, np.array(picked, dtype=np.int64)),
              DominatingSet.from_mask(g, mask)):
        assert d.vertices.dtype == np.int64 and not d.vertices.flags.writeable
        assert d.vertices.tolist() == sorted(members) and len(d) == len(members)
        assert d.total_weight == d.recomputed_weight(g)
        assert [v in d for v in probes] == [v in members for v in probes]
        assert ([coverage_count(g, d, v) for v in range(g.n)]
                == [coverage_count(g, members, v) for v in range(g.n)])


@settings(max_examples=60, deadline=None)
@given(instances())
def test_demand_bounds(inst):
    for v in range(inst.graph.n):
        assert 1 <= inst.demand(v) <= inst.graph.degree(v) + 1


@settings(max_examples=60, deadline=None)
@given(instances())
def test_full_vertex_set_always_feasible(inst):
    full = DominatingSet.from_members(inst.graph, range(inst.graph.n))
    assert is_feasible(inst, full)


@settings(max_examples=60, deadline=None)
@given(instances(), weighted_graphs())
def test_deficiency_empty_iff_feasible(inst, _unused):
    # arbitrary candidate: every third vertex
    candidate = set(range(0, inst.graph.n, 3))
    report = deficiency(inst, candidate)
    assert report.feasible == is_feasible(inst, candidate)
    for v, short in report.shortfalls.items():
        assert short == inst.demand(v) - coverage_count(inst.graph, candidate, v)
        assert short > 0


@settings(max_examples=60, deadline=None)
@given(weighted_graphs())
def test_bulk_coverage_matches_per_vertex(g):
    members = set(range(0, g.n, 2))
    bulk = coverage_counts(g, members)
    for v in range(g.n):
        assert bulk[v] == coverage_count(g, members, v)


@settings(max_examples=40, deadline=None)
@given(weighted_graphs())
def test_adjacency_is_symmetric_and_loop_free(g):
    for v in range(g.n):
        for u in g.neighbors(v):
            assert u != v
            assert v in g.neighbors(u)


def test_connected_components_and_stats():
    g = WeightedGraph.from_edges(5, [(0, 1), (2, 3)], [2, 3, 4, 5, 6])
    comps = connected_components(g)
    assert comps == [[0, 1], [2, 3], [4]]
    st = graph_stats(g)
    assert (st.vertices, st.edges, st.components) == (5, 2, 3)
    assert st.min_degree == 0 and st.max_degree == 1
    assert graph_stats(WeightedGraph.from_edges(0, [], [])).max_degree == 0


def test_graph_methods_leave_the_rows_unbuilt():
    g = gen_powerlaw_cluster(200, 2, 0.3, 3)
    stats = graph_stats(g)
    degrees = [g.degree(v) for v in range(g.n)]
    assert (stats.min_degree, stats.max_degree) == (min(degrees), max(degrees))
    assert g == g.with_weights(g.weights)
    assert g._adjacency is None
    assert degrees == [len(row) for row in g.adjacency]


def test_subgraph_keeps_weights_and_maps_back():
    g = WeightedGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [5, 6, 7, 8, 9])
    sub, mapping = g.subgraph([1, 2, 4])
    assert sub.n == 3
    assert list(mapping) == [1, 2, 4]
    assert sub.weights == (6, 7, 9)
    assert sub.edge_count == 1  # only 1-2 survives


@pytest.mark.parametrize("bad", [-1, 3])
def test_subgraph_rejects_out_of_range_vertices(bad):
    g = path3()
    with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
        g.subgraph([0, bad, -2])


@pytest.mark.parametrize("bad", [-1, 3])
def test_coverage_counts_rejects_out_of_range_members(bad):
    g = path3()
    with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
        coverage_counts(g, {bad})
    with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
        coverage_counts(g, DominatingSet(np.array([1, bad], dtype=np.int64), 0))
    with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
        DominatingSet.from_members(g, [1, bad])


def test_from_members_rejects_non_integer_members():
    with pytest.raises(TypeError, match="vertex indices must be integers"):
        DominatingSet.from_members(path3(), [1.5])


def check_representation(g: WeightedGraph, rng: np.random.Generator) -> None:
    """The CSR arrays, the tuple rows, A + I, from_edges, subgraph, coverage
    and demands against plain-Python references."""
    rows = [list(r) for r in g.adjacency]
    for v in range(g.n):
        assert tuple(g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()) == g.adjacency[v]
        assert g.neighbors(v) == g.adjacency[v] and g.degree(v) == len(rows[v])
        assert g.closed_neighborhood(v).tolist() == sorted(g.adjacency[v] + (v,))
    assert list(g.edges()) == [(u, v) for u in range(g.n) for v in rows[u] if u < v]
    seen, comps = set(), []  # components by search over the tuple rows
    for s in range(g.n):
        if s not in seen:
            comp, stack = {s}, [s]
            while stack:
                for u in rows[stack.pop()]:
                    if u not in comp:
                        comp.add(u)
                        stack.append(u)
            seen |= comp
            comps.append(sorted(comp))
    assert connected_components(g) == comps

    # from_edges: every edge twice, some reversed, in a shuffled order
    pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges()] * 2
    order = rng.permutation(len(pairs))
    nbrs = [set() for _ in range(g.n)]
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    rebuilt = WeightedGraph.from_edges(g.n, [pairs[i] for i in order], g.weights)
    assert rebuilt.adjacency == tuple(tuple(sorted(s)) for s in nbrs)
    assert rebuilt == g and rebuilt.edge_count == g.edge_count

    # subgraph on a random vertex set, given unsorted and with repeats
    picked = rng.choice(g.n, size=int(rng.integers(0, g.n + 1)), replace=True).tolist()
    verts = sorted(set(picked))
    local = {x: i for i, x in enumerate(verts)}
    sub, to_global = g.subgraph(picked)
    assert to_global.tolist() == verts
    assert sub.adjacency == tuple(tuple(local[u] for u in rows[x] if u in local) for x in verts)
    assert sub.weights == tuple(g.weights[x] for x in verts)

    members = set(rng.choice(g.n, size=g.n // 3, replace=False).tolist())
    assert coverage_counts(g, members).tolist() == [
        coverage_count(g, members, v) for v in range(g.n)]
    for alpha in (Fraction(1, 4), Fraction(2, 5), Fraction(1)):
        inst = DominationInstance(g, alpha)
        expected = [math.ceil(alpha * (len(r) + 1)) for r in rows]
        assert inst.demand_array().tolist() == expected
        assert [inst.demand(v) for v in range(g.n)] == expected


@settings(max_examples=80, deadline=None)
@given(weighted_graphs(), st.integers(0, 2**32 - 1))
def test_representation_matches_references(g, seed):
    check_representation(g, np.random.default_rng(seed))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("family", ["er", "planted", "powerlaw"])
def test_representation_on_seeded_families(family, seed):
    g = {"er": lambda: gen_gnm(300, 1500, seed),
         "planted": lambda: gen_planted_partition(5, 40, 0.3, 0.02, seed),
         "powerlaw": lambda: gen_powerlaw_cluster(300, 3, 0.4, seed)}[family]()
    check_representation(g, np.random.default_rng(seed))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_from_edges_csr_matches_a_set_reference(data):
    n = data.draw(st.integers(1, 12))
    # (u, u + k mod n) with 0 < k < n: never a self-loop
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
                               .map(lambda e: (e[0], (e[0] + e[1]) % n)),
                               max_size=40)) if n > 1 else []
    # repeats and both orientations, as an (m, 2) array and as a list
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    pairs += [(v, u) for u, v in data.draw(st.lists(st.sampled_from(pairs), max_size=20))
              ] if pairs else []
    nbrs = [set() for _ in range(n)]
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    lengths = [len(s) for s in nbrs]
    for edges in (np.array(pairs, dtype=np.int64).reshape(-1, 2), pairs):
        g = WeightedGraph.from_edges(n, edges)
        assert g.indptr.tolist() == [sum(lengths[:v]) for v in range(n + 1)]
        assert g.indices.tolist() == [u for s in nbrs for u in sorted(s)]
        assert g.indptr.dtype == g.indices.dtype == np.int64
        assert g.weights == (1,) * n and all(type(w) is int for w in g.weights)


def test_int64_weights_are_copied_not_frozen():
    weights = np.array([3, 1, 2], dtype=np.int64)
    g = WeightedGraph.from_edges(3, [(0, 1), (1, 2)], weights)
    assert weights.flags.writeable
    weights[0] = 9  # the graph holds its own copy
    assert g.weights == (3, 1, 2) and all(type(w) is int for w in g.weights)
    assert g.weight_array().tolist() == [3, 1, 2]
    with pytest.raises(ValueError, match="^vertex weights must be >= 1$"):
        WeightedGraph.from_edges(2, [(0, 1)], np.array([1, 0], dtype=np.int64))
    with pytest.raises(ValueError, match="^3 weights for 2 vertices$"):
        WeightedGraph.from_edges(2, [(0, 1)], np.array([1, 2, 3], dtype=np.int64))
    # weights past int64 keep the Python-int path
    big = WeightedGraph.from_edges(2, [(0, 1)], [2**70, 1])
    assert big.weights == (2**70, 1)


@pytest.mark.parametrize("weights", [[5, 1, 3], np.array([5, 1, 3], dtype=np.int64)],
                         ids=["list", "int64"])
def test_weight_and_demand_arrays_are_read_only_and_shared_by_the_lp(weights):
    g = WeightedGraph.from_edges(3, [(0, 1), (1, 2)], weights)
    inst = DominationInstance(g, Fraction(1, 2))
    for arr in (g.weight_array(), inst.demand_array()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 7
    assert g.weight_array().tolist() == [5, 1, 3] and inst.demand_array().tolist() == [1, 2, 1]
    lp = build_lp(inst)
    indptr, indices = g.closed_csr()
    assert lp.n_vars == 3 and lp.weights is g.weight_array() and lp.bounds is inst.demand_array()
    assert lp.indptr is indptr and lp.indices is indices
    assert lp.weights.dtype == lp.bounds.dtype == np.int64
    assert lp.weights.tolist() == [5, 1, 3] and lp.bounds.tolist() == [1, 2, 1]
    assert lp.indptr.tolist() == [0, 2, 5, 7] and lp.indices.tolist() == [0, 1, 0, 1, 2, 1, 2]
