"""Graph generator contracts: validity, determinism, and shape statistics."""
import math

import numpy as np
import pytest

from alphadom import (WeightSpec, assign_weights, gen_gnm, gen_planted_partition,
                      gen_powerlaw_cluster, planted_block_assignment)
from alphadom.generators import FAMILIES, _pairs_from_indices, family_params
from alphadom.graph import connected_components


class TestGnm:
    def test_exact_edge_count(self):
        g = gen_gnm(200, 1500, 5)
        assert g.n == 200 and g.edge_count == 1500

    def test_triangle_is_unique_graph(self):
        g = gen_gnm(3, 3, 99)
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_edgeless(self):
        g = gen_gnm(4, 0, 1)
        assert g.edge_count == 0 and g.max_degree() == 0

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            gen_gnm(4, 7, 1)

    def test_dense_complete_graph(self):
        g = gen_gnm(6, 15, 3)
        assert g.edge_count == 15
        assert all(g.degree(v) == 5 for v in range(6))

    def test_determinism(self):
        assert gen_gnm(50, 100, 7) == gen_gnm(50, 100, 7)
        assert gen_gnm(50, 100, 7) != gen_gnm(50, 100, 8)


class TestPowerlawCluster:
    def test_minimum_size_is_complete_seed(self):
        # n = epnv + 1 leaves no growth steps: just the complete seed graph
        g = gen_powerlaw_cluster(5, 4, 0.7, 1)
        assert g.edge_count == 10
        assert all(g.degree(v) == 4 for v in range(5))

    def test_zero_triangle_prob_is_pure_preferential_attachment(self):
        g = gen_powerlaw_cluster(60, 3, 0.0, 2)
        # seed K4 plus 3 edges per arrival, possibly collapsing duplicates
        assert g.edge_count <= 6 + 56 * 3
        assert g.edge_count >= 6 + 56 * 3 - 20
        assert g.n == 60

    def test_edge_count_near_nominal(self):
        g = gen_powerlaw_cluster(400, 5, 0.8, 3)
        nominal = 10 + 395 * 5
        assert nominal - 40 <= g.edge_count <= nominal

    def test_rejects_n_not_above_epnv(self):
        with pytest.raises(ValueError):
            gen_powerlaw_cluster(4, 4, 0.5, 1)

    def test_determinism(self):
        assert gen_powerlaw_cluster(80, 4, 0.8, 9) == gen_powerlaw_cluster(80, 4, 0.8, 9)

    def test_heavier_tail_than_gnm(self):
        # same density; preferential attachment should grow bigger hubs on average
        pn_max, er_max = 0, 0
        for seed in range(30):
            pn = gen_powerlaw_cluster(300, 4, 0.8, seed)
            er = gen_gnm(300, pn.edge_count, 10_000 + seed)
            pn_max += pn.max_degree()
            er_max += er.max_degree()
        assert pn_max / 30 > er_max / 30


class TestPlantedPartition:
    def test_pair_index_decoding_is_exhaustive(self):
        for size in (2, 3, 7, 12):
            i, j = _pairs_from_indices(np.arange(size * (size - 1) // 2), size)
            assert list(zip(i.tolist(), j.tolist())) == [
                (a, b) for a in range(size) for b in range(a + 1, size)]
        i, j = _pairs_from_indices(np.empty(0, dtype=np.int64), 5)
        assert i.size == j.size == 0

    def test_pair_index_decoding_at_row_ends_past_float_precision(self):
        # (2 * size - 1) ** 2 exceeds 2^53, so the sqrt estimate is off by a
        # row near some row ends and the integer corrections must fix it
        size = 10**8
        rows = np.array([0, 1, 2, 12_345, size // 2, size - 3, size - 2], dtype=np.int64)
        starts = rows * size - rows * (rows + 1) // 2
        i, j = _pairs_from_indices(np.concatenate((starts, starts + size - 2 - rows)), size)
        assert i.tolist() == rows.tolist() * 2
        assert j.tolist() == (rows + 1).tolist() + [size - 1] * len(rows)

    def test_subnormal_probability_draws_no_edge(self):
        # log1p(-p) is about -p, so log(u) / log1p(-p) overflows to inf: the
        # jump ends the run, as with any probability too small to hit a pair
        assert gen_planted_partition(2, 10, 0.5, 5e-324, 1) == gen_planted_partition(2, 10, 0.5, 0.0, 1)
        assert gen_planted_partition(2, 10, 5e-324, 0.0, 1) == gen_planted_partition(2, 10, 0.0, 0.0, 1)
        # each intra-block run still takes its one draw, like any tiny p_in
        g = gen_planted_partition(2, 10, 5e-324, 0.5, 1)
        assert g == gen_planted_partition(2, 10, 1e-300, 0.5, 1)
        assert g.edge_count > 0 and all((u < 10) != (v < 10) for u, v in g.edges())

    def test_zero_out_probability_gives_disconnected_blocks(self):
        g = gen_planted_partition(4, 10, 1.0, 0.0, 5)
        comps = connected_components(g)
        assert [len(c) for c in comps] == [10, 10, 10, 10]

    def test_two_complete_blocks(self):
        g = gen_planted_partition(2, 3, 1.0, 0.0, 5)
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]

    def test_ground_truth_assignment(self):
        assert planted_block_assignment(3, 2) == [0, 0, 1, 1, 2, 2]

    def test_determinism(self):
        a = gen_planted_partition(3, 40, 0.1, 0.01, 11)
        assert a == gen_planted_partition(3, 40, 0.1, 0.01, 11)

    def test_edge_counts_within_four_sigma_over_100_seeds(self):
        l, size, p_in, p_out = 3, 30, 0.15, 0.02
        intra_pairs = l * size * (size - 1) // 2
        inter_pairs = (l * (l - 1) // 2) * size * size
        truth = set(range(size))
        intra = inter = 0
        for seed in range(100):
            g = gen_planted_partition(l, size, p_in, p_out, seed)
            blocks = planted_block_assignment(l, size)
            for u, v in g.edges():
                if blocks[u] == blocks[v]:
                    intra += 1
                else:
                    inter += 1
        for count, pairs, p in ((intra, intra_pairs, p_in), (inter, inter_pairs, p_out)):
            mean = 100 * pairs * p
            sigma = math.sqrt(100 * pairs * p * (1 - p))
            assert abs(count - mean) <= 4 * sigma


class TestAssignWeights:
    def test_range_and_mean(self):
        g = assign_weights(gen_gnm(3000, 0, 1), WeightSpec(1, 71), 2)
        assert min(g.weights) >= 1 and max(g.weights) <= 71
        assert abs(sum(g.weights) / g.n - 36.0) < 1.5

    def test_constant_spec(self):
        g = assign_weights(gen_gnm(10, 5, 1), WeightSpec(5, 5), 3)
        assert set(g.weights) == {5}

    def test_same_seed_same_weights(self):
        base = gen_gnm(40, 80, 1)
        a = assign_weights(base, WeightSpec(1, 71), 9)
        b = assign_weights(base, WeightSpec(1, 71), 9)
        assert a.weights == b.weights

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            WeightSpec(0, 5)
        with pytest.raises(ValueError):
            WeightSpec(6, 5)


def test_generated_graphs_pass_constructor_invariants():
    # the constructor re-validates symmetry/simplicity; building is the test
    for g in (gen_gnm(100, 400, 0),
              gen_powerlaw_cluster(100, 3, 0.8, 0),
              gen_planted_partition(4, 25, 0.2, 0.01, 0)):
        assert g.n == 100
        assert all(v not in g.neighbors(v) for v in range(g.n))


def test_families_registry_gives_each_generator_and_its_typed_parameters():
    # these parameters are the bench config keys of each source kind
    assert FAMILIES == {"gnm": gen_gnm, "powerlaw-cluster": gen_powerlaw_cluster,
                        "planted-partition": gen_planted_partition}
    assert family_params("gnm") == {"n": int, "m": int}
    assert family_params("powerlaw-cluster") == {
        "n": int, "edges_per_new_vertex": int, "triangle_prob": float}
    assert family_params("planted-partition") == {
        "l": int, "community_size": int, "p_in": float, "p_out": float}
