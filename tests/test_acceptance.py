"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All seeds derive from a
fixed base so the suite is reproducible; the statistical gates are honest
draws, not curated ones.
"""
import math
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from alphadom import (ALGORITHMS, DominationInstance, ExperimentConfig, Partition,
                      RoundingConfig, Strategy, WeightSpec, assign_weights,
                      brute_force_opt, build_lp, certify, check_theorem_half,
                      community_rounding, connected_components, default_max_rounds,
                      derive_seed, gen_gnm, gen_planted_partition,
                      gen_powerlaw_cluster, greedy_dominate, is_feasible, louvain,
                      modularity, planted_block_assignment, poisson_binomial_tail,
                      randomized_rounding, run_experiment, solve_lp,
                      write_rows_csv)
from alphadom.graph import WeightedGraph

BASE = 0  # fixed a-priori; every stream below hashes it with its own tag


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")


def sign_test_p(wins: int, trials: int) -> float:
    """One-sided exact binomial tail P(X >= wins) under the fair-coin null."""
    return poisson_binomial_tail([0.5] * trials, wins)


def signed_rank_p(diffs) -> float:
    """Exact one-sided Wilcoxon signed-rank tail P(W+ >= observed).

    Zero differences are dropped; tied magnitudes share their midrank.  Under
    the null each remaining sign is a fair coin, so the tail is counted by
    dynamic programming over doubled midranks, which are integers even with
    ties, in exact integer arithmetic.
    """
    nonzero = [d for d in diffs if d != 0]
    n = len(nonzero)
    order = sorted(range(n), key=lambda i: abs(nonzero[i]))
    doubled = [0] * n
    start = 0
    while start < n:
        end = start
        while end + 1 < n and abs(nonzero[order[end + 1]]) == abs(nonzero[order[start]]):
            end += 1
        for k in range(start, end + 1):  # ranks start+1..end+1 share their mean
            doubled[order[k]] = start + end + 2
        start = end + 1
    observed = sum(r for r, d in zip(doubled, nonzero) if d > 0)
    counts = [1] + [0] * sum(doubled)  # counts[s]: sign patterns with doubled W+ = s
    for r in doubled:
        for s in range(len(counts) - 1, r - 1, -1):
            counts[s] += counts[s - r]
    return sum(counts[observed:]) / 2 ** n


def _mixed_graphs():
    """ER/PN/PLP families at n in {50, 200, 500}, paper-like density."""
    graphs = []
    recipe = [
        ("er", 50, 14), ("er", 200, 6), ("er", 500, 3),
        ("pn", 50, 14), ("pn", 200, 6), ("pn", 500, 3),
        ("plp", 50, 14), ("plp", 200, 6), ("plp", 500, 3),
    ]
    for family, n, count in recipe:
        for i in range(count):
            seed = derive_seed(BASE, "acc1-graph", family, n, i)
            if family == "er":
                g = gen_gnm(n, 5 * n, seed)
            elif family == "pn":
                g = gen_powerlaw_cluster(n, 5, 0.8, seed)
            else:
                blocks = {50: (2, 25, 0.5), 200: (4, 50, 0.2), 500: (5, 100, 0.1)}[n]
                l, size, p_in = blocks
                g = gen_planted_partition(l, size, p_in, 0.01, seed)
            g = assign_weights(g, WeightSpec(1, 71),
                               derive_seed(BASE, "acc1-weights", family, n, i))
            graphs.append(g)
    return graphs


def test_criterion_1_feasibility_universality():
    started = time.perf_counter()
    graphs = _mixed_graphs()
    alphas = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    instances = [(g, a) for g in graphs for a in alphas]
    assert len(instances) >= 200

    runs = 0
    failures = 0
    for idx, (g, alpha) in enumerate(instances):
        inst = DominationInstance(g, alpha)
        for strategy in Strategy:
            failures += not is_feasible(inst, greedy_dominate(inst, strategy))
            runs += 1
        frac = solve_lp(build_lp(inst))
        part = louvain(g)
        for s in range(5):
            seed = derive_seed(BASE, "acc1-run", idx, s)
            rr = randomized_rounding(inst, RoundingConfig(seed=seed), fractional=frac)
            failures += not is_feasible(inst, rr)
            wc = community_rounding(inst, RoundingConfig(seed=seed), partition=part)
            failures += not is_feasible(inst, wc)
            runs += 2
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 300
    _report("1 feasibility-universality",
            ok, f"{runs} solver outputs over {len(instances)} instances, "
                f"{failures} infeasible, {elapsed:.0f}s (< 300s)")
    assert failures == 0
    assert elapsed < 300


def test_criterion_2_oracle_optimality_bounds():
    rng = np.random.default_rng(derive_seed(BASE, "acc2"))
    alphas = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    lp_violations = greedy_violations = rand_violations = envelope_violations = 0
    for i in range(50):
        n = int(rng.integers(4, 13))
        max_m = n * (n - 1) // 2
        m = int(rng.integers(0, max_m + 1))
        g = assign_weights(gen_gnm(n, m, derive_seed(BASE, "acc2-g", i)),
                           WeightSpec(1, 71), derive_seed(BASE, "acc2-w", i))
        inst = DominationInstance(g, alphas[i % 3])
        opt = brute_force_opt(inst).opt_weight

        lp_obj = solve_lp(build_lp(inst)).objective_value
        lp_violations += not lp_obj <= opt * (1 + 1e-6) + 1e-9

        for strategy in Strategy:
            greedy_violations += greedy_dominate(inst, strategy).total_weight < opt

        envelope = 4 * default_max_rounds(g) * opt
        for s in range(2):
            cfg = RoundingConfig(seed=derive_seed(BASE, "acc2-s", i, s))
            w_rr = randomized_rounding(inst, cfg).total_weight
            w_wc = community_rounding(inst, cfg).total_weight
            rand_violations += (w_rr < opt) + (w_wc < opt)
            envelope_violations += w_rr > envelope
    ok = (lp_violations + greedy_violations + rand_violations + envelope_violations) == 0
    _report("2 oracle-optimality-bounds", ok,
            f"50 instances: lp>opt {lp_violations}, greedy<opt {greedy_violations}, "
            f"randomized<opt {rand_violations}, rr beyond 4*ceil(log2 D)*opt "
            f"{envelope_violations}")
    assert lp_violations == 0
    assert greedy_violations == 0
    assert rand_violations == 0
    # loose empirical envelope: a trip here means investigate, so fail loudly
    assert envelope_violations == 0


def test_criterion_3_coverage_tail_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(derive_seed(BASE, "acc3"))
    checked = violations = 0
    while checked < 1000:
        d = int(rng.integers(1, 21))
        probs = rng.random(d)
        k = int(math.floor(probs.sum()))
        if k < 1:
            continue
        if checked % 2 == 0:
            probs = probs * (k / probs.sum())  # tight case: sum exactly k
            if probs.max() > 1.0:
                continue
        violations += not check_theorem_half(list(probs), k)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 60
    _report("3 coverage-tail-bound", ok,
            f"1000 parameter vectors, {violations} tails below 1/2 - 1e-12, "
            f"{elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60


def test_criterion_4_greedy_strategy_ordering():
    """S3 and S2 each beat S1 on total weight: one-sided sign tests, p < 0.01.

    Sized before drawing, with ``BASE`` left at 0: on this family S2 beats S1
    on 1636 of 2500 graphs drawn from six seed bases, a per-graph win rate of
    0.65 (S3 over S1 wins more often).  Over 30 graphs p < 0.01 needs 22 wins,
    which a win rate of 0.65 reaches with probability 0.22, so the gate failed
    a correct solver most of the time.  Over 500 graphs it needs 277 wins
    (null tail 0.0088); the power is 0.9998 at a win rate of 0.63 and 0.995
    at 0.61.
    """
    started = time.perf_counter()
    graphs = 500
    weights = {s: [] for s in Strategy}
    for i in range(graphs):
        g = assign_weights(gen_gnm(500, 5000, derive_seed(BASE, "acc4-g", i)),
                           WeightSpec(1, 71), derive_seed(BASE, "acc4-w", i))
        inst = DominationInstance(g, Fraction(1, 4))
        for s in Strategy:
            weights[s].append(greedy_dominate(inst, s).total_weight)
    mean = {s: statistics.fmean(weights[s]) for s in Strategy}
    wins_31 = sum(a < b for a, b in zip(weights[Strategy.S3], weights[Strategy.S1]))
    wins_21 = sum(a < b for a, b in zip(weights[Strategy.S2], weights[Strategy.S1]))
    wins_32 = sum(a < b for a, b in zip(weights[Strategy.S3], weights[Strategy.S2]))
    p31 = sign_test_p(wins_31, graphs)
    p21 = sign_test_p(wins_21, graphs)
    elapsed = time.perf_counter() - started
    ok = p31 < 0.01 and p21 < 0.01 and elapsed < 600
    _report("4 greedy-strategy-ordering", ok,
            f"means S1={mean[Strategy.S1]:.0f} S2={mean[Strategy.S2]:.0f} "
            f"S3={mean[Strategy.S3]:.0f}; s3<s1 {wins_31}/{graphs} (p={p31:.2e}), "
            f"s2<s1 {wins_21}/{graphs} (p={p21:.2e}); s3<s2 {wins_32}/{graphs} "
            f"reported ungated; {elapsed:.0f}s (< 600s)")
    assert elapsed < 600
    assert p31 < 0.01, f"s3<s1 sign test p={p31:.4f} at {wins_31}/{graphs} wins"
    assert p21 < 0.01, f"s2<s1 sign test p={p21:.4f} at {wins_21}/{graphs} wins"


def test_criterion_5_partitioned_rounding_wins_on_modular_graphs():
    """rrwc is lighter than rr on planted-partition graphs: signed-rank p < 0.05.

    Each graph contributes its mean difference rr - rrwc over 10 shared seeds,
    tested by the exact one-sided Wilcoxon signed-rank test, which weighs how
    much lighter rrwc is, not only how often.  Sized before drawing, with
    ``BASE`` left at 0: over 100 graphs per seed base the per-graph win rate
    is 0.61-0.77 and the mean difference 55-89 with a spread of 104-127
    across graphs, a standardised effect of 0.45-0.72.  A sign test over 20
    graphs needs 15 wins for p < 0.05, which a win rate of 0.61 reaches with
    probability 0.15; for power 0.99 it would need 330 graphs, at about 1.1 s
    each.  Over 100 graphs the signed-rank test has power 0.997 at an effect
    of 0.45 (4000 simulated normal shifts).
    """
    started = time.perf_counter()
    graphs = 100
    seeds_per_graph = 10
    means = []
    for i in range(graphs):
        g = assign_weights(
            gen_planted_partition(5, 100, 0.2, 0.001, derive_seed(BASE, "acc5-g", i)),
            WeightSpec(1, 71), derive_seed(BASE, "acc5-w", i))
        inst = DominationInstance(g, Fraction(1, 4))
        frac = solve_lp(build_lp(inst))
        part = louvain(g)
        rr_w, wc_w = [], []
        for s in range(seeds_per_graph):
            seed = derive_seed(BASE, "acc5-s", i, s)
            rr = randomized_rounding(inst, RoundingConfig(seed=seed), fractional=frac)
            wc = community_rounding(inst, RoundingConfig(seed=seed), partition=part)
            assert is_feasible(inst, rr) and is_feasible(inst, wc)
            rr_w.append(rr.total_weight)
            wc_w.append(wc.total_weight)
        means.append((Fraction(sum(rr_w), seeds_per_graph),
                      Fraction(sum(wc_w), seeds_per_graph)))
    wins = sum(wc < rr for rr, wc in means)
    p = signed_rank_p([rr - wc for rr, wc in means])
    grand_rr = statistics.fmean(m[0] for m in means)
    grand_wc = statistics.fmean(m[1] for m in means)
    elapsed = time.perf_counter() - started
    ok = p < 0.05 and elapsed < 900
    _report("5 partitioned-rounding-on-modular-graphs", ok,
            f"per-graph mean weights over {seeds_per_graph} seeds: grand means "
            f"rr={grand_rr:.0f} rrwc={grand_wc:.0f}; rrwc<rr on {wins}/{graphs} "
            f"graphs; signed-rank p={p:.2e}; {elapsed:.0f}s (< 900s)")
    assert elapsed < 900
    assert p < 0.05, f"rr-rrwc signed-rank p={p:.4f}, rrwc<rr on {wins}/{graphs}"


def test_criterion_6_partitioned_rounding_speedup():
    rr_times, wc_times = [], []
    for i in range(10):
        g = assign_weights(gen_gnm(1000, 10_000, derive_seed(BASE, "acc6-g", i)),
                           WeightSpec(1, 71), derive_seed(BASE, "acc6-w", i))
        inst = DominationInstance(g, Fraction(1, 2))
        cfg = RoundingConfig(seed=derive_seed(BASE, "acc6-s", i))
        t0 = time.perf_counter()
        rr = randomized_rounding(inst, cfg)
        t1 = time.perf_counter()
        wc = community_rounding(inst, cfg)
        t2 = time.perf_counter()
        assert is_feasible(inst, rr) and is_feasible(inst, wc)
        rr_times.append(t1 - t0)
        wc_times.append(t2 - t1)
    med_rr = statistics.median(rr_times)
    med_wc = statistics.median(wc_times)
    ok = med_wc <= 0.5 * med_rr
    _report("6 partitioned-rounding-speedup", ok,
            f"median wall time over 10 graphs (n=1000): rr={med_rr:.2f}s "
            f"rrwc={med_wc:.2f}s, ratio={med_wc / med_rr:.3f} (<= 0.5)")
    assert med_wc <= 0.5 * med_rr


def test_criterion_7_bench_determinism(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "base_seed": derive_seed(BASE, "acc7"),
        "repetitions": 2,
        "alphas": ["1/4", "1/2"],
        "algorithms": ["greedy-s1", "greedy-s2", "greedy-s3", "rr", "rrwc"],
        "sources": [
            {"kind": "gnm", "label": "er", "count": 2, "n": 40, "m": 200,
             "weights": [1, 71]},
            {"kind": "planted-partition", "label": "plp", "count": 2,
             "l": 2, "community_size": 20, "p_in": 0.3, "p_out": 0.02,
             "weights": [1, 71]},
        ],
    })
    outputs = []
    for run in range(2):
        rows, _ = run_experiment(cfg)
        path = tmp_path / f"run{run}.csv"
        write_rows_csv(rows, path, include_timing=False)
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1]
    n_rows = outputs[0].count(b"\n") - 1
    _report("7 bench-determinism", ok,
            f"two runs, {n_rows} rows each, byte-identical={ok}")
    assert ok


def test_criterion_8_solver_cross_checks():
    # (a) HiGHS vertex vs the exact safe-dual certificate on 100 small LPs
    lp_bad = 0
    worst_gap = Fraction(0)
    for i in range(100):
        n = 2 + i % 14
        m = min(n * (n - 1) // 2, (3 * i) % (3 * n))
        g = assign_weights(gen_gnm(n, m, derive_seed(BASE, "acc8-g", i)),
                           WeightSpec(1, 71), derive_seed(BASE, "acc8-w", i))
        inst = DominationInstance(g, (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))[i % 3])
        lp = build_lp(inst)
        sol = solve_lp(lp)
        check = certify(lp, sol)
        worst_gap = max(worst_gap, check.gap)
        exact = float(check.objective)
        rel_gap = abs(exact - sol.objective_value) / max(1.0, abs(exact))
        if not (check.feasible and check.certified and rel_gap <= 1e-9):
            lp_bad += 1

    # (b) planted blocks recovered exactly when no cross edges exist and each
    # block is internally connected
    louvain_bad = 0
    recovered = 0
    for i in range(10):
        g = gen_planted_partition(4, 12, 0.5, 0.0, derive_seed(BASE, "acc8-plp", i))
        comps = connected_components(g)
        if [len(c) for c in comps] != [12, 12, 12, 12]:
            continue  # a block came out internally disconnected; outside the claim
        truth = Partition.from_assignment(planted_block_assignment(4, 12))
        if louvain(g).community_of != truth.community_of:
            louvain_bad += 1
        recovered += 1

    # (c) two disjoint triangles: modularity of the natural split is exactly 1/2
    tri = WeightedGraph.from_edges(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], [1] * 6)
    q = modularity(tri, Partition((0, 0, 0, 1, 1, 1), 2))
    q_exact = q == 0.5

    ok = lp_bad == 0 and louvain_bad == 0 and recovered >= 5 and q_exact
    _report("8 solver-cross-checks", ok,
            f"lp certificate failures {lp_bad}/100, worst gap {float(worst_gap):.3g}; "
            f"louvain misses "
            f"{louvain_bad}/{recovered} connected planted cases; "
            f"modularity(two triangles)={q!r} exact-half={q_exact}")
    assert lp_bad == 0
    assert recovered >= 5
    assert louvain_bad == 0
    assert q_exact
