"""Relaxation construction, the HiGHS solve and its exact certificate."""
import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import alphadom.lp as lp_module
from alphadom import (DominationInstance, SimplexError, WeightedGraph, brute_force_opt,
                      build_lp, certify, louvain, lp_text, solve_lp)
from alphadom.bench import derive_seed
from alphadom.generators import WeightSpec, assign_weights, gen_gnm, gen_planted_partition

from .strategies import instances
from .test_louvain_reference import perfbench_graphs  # noqa: F401  (a fixture)


def solve_instance(g, alpha):
    inst = DominationInstance(g, alpha)
    lp = build_lp(inst)
    return lp, solve_lp(lp)


class TestBuildLp:
    def test_k2_rows_are_identical(self):
        g = WeightedGraph.from_edges(2, [(0, 1)], [2, 7])
        lp = build_lp(DominationInstance(g, Fraction(1, 2)))
        assert [list(r) for r in lp.rows] == [[0, 1], [0, 1]]
        assert list(lp.bounds) == [1, 1]
        assert list(lp.weights) == [2, 7]

    @pytest.mark.parametrize("index", [-1, 2])
    def test_variable_index_out_of_range_is_rejected(self, index):
        # a tight row would fix the variable it names: -1 would wrap to the last
        with pytest.raises(ValueError, match=r"variable index lies outside \[0, 2\)"):
            lp_module.LinearProgram(2, np.array([1, 1]), np.array([0, 1]), np.array([index]),
                                    np.array([1]))

    def test_isolated_vertex_row(self):
        g = WeightedGraph.from_edges(1, [], [3])
        lp = build_lp(DominationInstance(g, Fraction(1, 4)))
        assert [list(r) for r in lp.rows] == [[0]] and list(lp.bounds) == [1]

    def test_triangle_alpha_one(self):
        g = WeightedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], [1, 1, 1])
        lp = build_lp(DominationInstance(g, 1))
        assert all(list(r) == [0, 1, 2] for r in lp.rows)
        assert list(lp.bounds) == [3, 3, 3]

    def test_every_row_contains_its_own_vertex(self):
        g = gen_gnm(40, 120, 3)
        lp = build_lp(DominationInstance(g, Fraction(1, 2)))
        for v, row in enumerate(lp.rows):
            assert v in row
            assert lp.bounds[v] <= len(row)


class TestSolve:
    def test_k2_weighted(self):
        g = WeightedGraph.from_edges(2, [(0, 1)], [2, 7])
        _, sol = solve_instance(g, Fraction(1, 2))
        assert sol.values == pytest.approx([1.0, 0.0], abs=1e-9)
        assert sol.objective_value == pytest.approx(2.0, abs=1e-9)

    def test_triangle_alpha_one_forced(self):
        g = WeightedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], [4, 5, 6])
        _, sol = solve_instance(g, 1)
        assert sol.values == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
        assert sol.objective_value == pytest.approx(15.0, abs=1e-9)

    def test_isolated_vertex(self):
        g = WeightedGraph.from_edges(1, [], [9])
        _, sol = solve_instance(g, Fraction(3, 4))
        assert sol.values == pytest.approx([1.0], abs=1e-9)
        assert sol.objective_value == pytest.approx(9.0, abs=1e-9)

    def test_determinism(self):
        g = assign_weights(gen_gnm(60, 300, 4), WeightSpec(1, 71), 5)
        lp = build_lp(DominationInstance(g, Fraction(1, 4)))
        a, b = solve_lp(lp), solve_lp(lp)
        assert np.array_equal(a.values, b.values)
        assert a.objective_value == b.objective_value

    def test_constraint_roundtrip_tolerance(self):
        g = assign_weights(gen_gnm(120, 800, 6), WeightSpec(1, 71), 7)
        lp, sol = solve_instance(g, Fraction(1, 2))
        for row, bound in zip(lp.rows, lp.bounds):
            assert sol.values[row].sum() >= bound - 1e-9
        assert np.all(sol.values >= 0.0) and np.all(sol.values <= 1.0)

    def test_values_carry_no_signed_zeros(self):
        # the LP of demos/04_lp_rounding.py, where HiGHS returns -0.0 entries
        g = assign_weights(gen_gnm(12, 30, 5), WeightSpec(1, 71), 6)
        _, sol = solve_instance(g, Fraction(1, 2))
        assert np.any(sol.values == 0.0)
        assert not np.any(np.signbit(sol.values))

    def test_objective_scaling_covariance(self):
        g = assign_weights(gen_gnm(50, 220, 8), WeightSpec(1, 40), 9)
        inst = DominationInstance(g, Fraction(1, 2))
        base = solve_lp(build_lp(inst))
        scaled_inst = DominationInstance(g.with_weights([7 * w for w in g.weights]),
                                         Fraction(1, 2))
        scaled = solve_lp(build_lp(scaled_inst))
        assert scaled.objective_value == pytest.approx(7 * base.objective_value,
                                                       rel=1e-9)
        assert np.allclose(scaled.values, base.values, atol=1e-9)

    @pytest.mark.parametrize("n", [60, 150])
    @pytest.mark.parametrize("alpha", [Fraction(1, 4), Fraction(1, 2)])
    def test_fields_match_linprog(self, n, alpha):
        # linprog is a second, public front end to HiGHS, used here only
        from scipy.optimize import linprog
        from scipy.sparse import csr_array
        g = assign_weights(gen_gnm(n, 10 * n, 11), WeightSpec(1, 71), 12)
        lp, sol = solve_instance(g, alpha)
        cover = csr_array((np.ones(len(lp.indices)), lp.indices, lp.indptr))
        ref = linprog(lp.weights, A_ub=-cover, b_ub=-lp.bounds, bounds=(0, 1),
                      method="highs")
        assert ref.status == 0
        assert np.allclose(sol.values, ref.x, rtol=0, atol=1e-9)
        assert np.allclose(sol.duals, -ref.ineqlin.marginals, rtol=0, atol=1e-9)
        assert sol.iterations > 0

    def test_empty_program(self):
        sol = solve_lp(build_lp(DominationInstance(WeightedGraph.from_edges(0, [], []),
                                                   Fraction(1, 2))))
        assert len(sol.values) == len(sol.duals) == 0
        assert sol.iterations == 0


def force_backend(monkeypatch, backend):
    """Send every LP to ``backend`` by moving :func:`solve_lp`'s cut."""
    if backend == "ipm":
        monkeypatch.setattr(lp_module, "IPM_MIN_NONZEROS", 0)
        monkeypatch.setattr(lp_module, "IPM_MIN_MEAN_ROW", 0)
    else:
        monkeypatch.setattr(lp_module, "IPM_MIN_NONZEROS", float("inf"))
        monkeypatch.setattr(lp_module, "IPM_HUB_MIN_NONZEROS", float("inf"))


def mentions_like(n, seed):
    """A hub-heavy graph of the mentions kind: every vertex mentions one
    other and n/2 more mentions fall at random, with targets drawn by
    popularity 1/(rank + 2.5); rows of A + I average about 4 entries."""
    rng = np.random.default_rng(seed)
    mentions = n * 3 // 2
    popularity = 1.0 / (np.arange(n) + 2.5)
    src = np.concatenate([np.arange(n), rng.integers(0, n, size=mentions - n)])
    dst = rng.permutation(n)[rng.choice(n, size=mentions, p=popularity / popularity.sum())]
    keep = src != dst
    g = WeightedGraph.from_edges(n, np.column_stack([src[keep], dst[keep]]))
    return assign_weights(g, WeightSpec(1, 71), seed + 1)


def row_shortfall(lp, values):
    """How far the most violated covering row falls short of its bound."""
    return float(max(0.0, np.max(lp.bounds - np.add.reduceat(values[lp.indices],
                                                               lp.indptr[:-1]))))


class TestSolverCut:
    # G(60, 300) and G(200, 2000) fall below the cut, the others above it
    @pytest.mark.parametrize("n, m", [(60, 300), (200, 2000), (300, 3000), (800, 8000)])
    @pytest.mark.parametrize("alpha", [Fraction(1, 4), Fraction(1, 2)])
    def test_both_solvers_reach_the_optimum(self, monkeypatch, n, m, alpha):
        self.check_both_solvers(monkeypatch,
                                assign_weights(gen_gnm(n, m, 3), WeightSpec(1, 71), 4), alpha)

    def test_both_solvers_on_a_hub_heavy_graph(self, monkeypatch):
        # optimal vertices differ here (the LP has many), optimal values do not
        self.check_both_solvers(monkeypatch, mentions_like(500, 7), Fraction(1, 4))

    @staticmethod
    def check_both_solvers(monkeypatch, g, alpha):
        lp = build_lp(DominationInstance(g, alpha))
        sols = {}
        for backend in ("simplex", "ipm"):
            force_backend(monkeypatch, backend)
            sols[backend] = solve_lp(lp)
            assert sols[backend].backend == backend
            assert sols[backend].iterations > 0
        optimum = sols["simplex"].objective_value
        # HiGHS's simplex meets the rows to its primal feasibility tolerance,
        # 1e-7: on G(800, 8000) at alpha 1/2 its vertex misses one by 4.9e-9,
        # where IPM + crossover reaches the same basis within 1e-12
        assert row_shortfall(lp, sols["simplex"].values) <= 1e-7
        assert row_shortfall(lp, sols["ipm"].values) <= 1e-9
        for sol in sols.values():
            assert abs(sol.objective_value - optimum) <= 1e-9 * optimum
            # the duals are optimal: their exact safe bound meets the optimum
            bound = float(certify(lp, sol).lower_bound)
            assert abs(bound - optimum) <= 1e-9 * optimum

    def test_the_cut_routes_by_size_and_row_length(self):
        def backend(g, alpha=Fraction(1, 4)):
            return solve_lp(build_lp(DominationInstance(g, alpha))).backend

        er = assign_weights(gen_gnm(800, 8000, 3), WeightSpec(1, 71), 4)
        assert backend(er) == backend(er, Fraction(1, 2)) == "ipm"
        # long enough, but rows of 4 and 3: hub columns on a near-integral LP
        assert backend(mentions_like(500, 7)) == backend(mentions_like(10_000, 7)) == "simplex"
        assert backend(WeightedGraph.from_edges(10_001, [(0, v) for v in range(1, 10_001)])) \
            == "simplex"
        planted = assign_weights(gen_planted_partition(10, 100, 0.2, 0.001, 5),
                                 WeightSpec(1, 71), 6)
        communities = [c for c in louvain(planted).communities() if len(c) > 1]
        assert len(communities) >= 10
        for verts in communities:
            assert backend(planted.subgraph(verts)[0]) == "simplex"

    def test_a_dominant_hub_routes_to_ipm(self):
        def star(leaves, leaf_edges=0):
            rng = np.random.default_rng(leaves)
            ends = rng.integers(1, leaves + 1, size=(leaf_edges, 2))
            edges = np.concatenate([[(0, v) for v in range(1, leaves + 1)],
                                    ends[ends[:, 0] != ends[:, 1]]])
            return assign_weights(WeightedGraph.from_edges(leaves + 1, edges),
                                  WeightSpec(1, 71), 1)

        def route(g, alpha=Fraction(1, 2)):
            lp = build_lp(DominationInstance(g, alpha))
            assert not np.any(lp.bounds == np.diff(lp.indptr))  # HiGHS sees all of it
            return lp_module._backend(lp)

        assert solve_lp(build_lp(DominationInstance(star(30_000), Fraction(1, 2)))).backend \
            == "ipm"
        assert route(star(100_000)) == route(star(100_000), Fraction(1, 4)) == "ipm"
        # a quarter leaf-to-leaf edge per leaf (the hub holds 0.286 of the
        # nonzeros): IPM is the faster at alpha 1/4, the simplex at 1/2 and
        # over the pair; from three eighths (0.267) up the simplex is faster
        for leaf_edges in (25_000, 37_500, 100_000):
            assert route(star(100_000, leaf_edges)) \
                == route(star(100_000, leaf_edges), Fraction(1, 4)) == "simplex"
        for n in (10_000, 100_000):
            assert route(mentions_like(n, 7), Fraction(1, 4)) == "simplex"
            assert route(mentions_like(n, 7)) == "simplex"

    def test_benchmark_programs_keep_their_routes(self, perfbench_graphs):
        # no benchmark program has a tight row at its alphas, so HiGHS sees
        # each one whole, and on the route it took before
        routes = {"er800": "ipm", "plp10x100": "ipm", "mentions500": "simplex"}
        alphas = {"er800": (Fraction(1, 4), Fraction(1, 2)), "plp10x100": (Fraction(1, 4),),
                  "mentions500": (Fraction(1, 4), Fraction(1, 2))}
        for name, g in perfbench_graphs.items():
            communities = [g.subgraph(c)[0] for c in louvain(g).communities() if len(c) > 1]
            for alpha in alphas[name]:
                for sub, expected in [(g, routes[name])] + [(c, "simplex") for c in communities]:
                    lp = build_lp(DominationInstance(sub, alpha))
                    assert not np.any(lp.bounds == np.diff(lp.indptr))
                    assert lp_module._backend(lp) == expected

    def test_alpha_one_starts_no_highs_run(self, monkeypatch):
        # at alpha 1 every row is tight and forces its whole neighbourhood,
        # so every variable is fixed before HiGHS could run
        runs = patch_highs(monkeypatch)
        g = assign_weights(gen_gnm(800, 8000, 3), WeightSpec(1, 71), 4)
        sol = solve_lp(build_lp(DominationInstance(g, 1)))
        assert runs == [] and sol.backend == "fixed" and sol.iterations == 0
        assert np.array_equal(sol.values, np.ones(800))
        assert sol.objective_value == sum(g.weights)

    def test_ipm_without_crossover_is_an_error(self, monkeypatch):
        # without crossover IPM stops at an interior point: no basis, no vertex
        patch_highs(monkeypatch, run_crossover="off")
        g = assign_weights(gen_gnm(300, 3000, 3), WeightSpec(1, 71), 4)
        with pytest.raises(SimplexError, match=r"n=300 after \d+ ipm iterations: "
                                               r"crossover left no valid basis"):
            solve_lp(build_lp(DominationInstance(g, Fraction(1, 2))))


def highs_core():
    """The HiGHS binding bundled with scipy, which :func:`solve_lp` drives."""
    from scipy.optimize._highspy import _core
    return _core


def patch_highs(monkeypatch, **options):
    """Swap the HiGHS object for the real one with ``options`` pinned (a
    later ``setOptionValue`` of the same name is ignored), and every
    thread's held object for none, so the next run builds a patched one;
    returns the list that gets one entry per run."""
    core = highs_core()
    real_highs, runs = core._Highs, []

    class Patched:
        def __init__(self):
            self._highs = real_highs()
            for name, value in options.items():
                self._highs.setOptionValue(name, value)

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def setOptionValue(self, name, value):
            if name not in options:
                return self._highs.setOptionValue(name, value)

        def run(self):
            runs.append(1)
            return self._highs.run()

    monkeypatch.setattr(core, "_Highs", Patched)
    monkeypatch.setattr(lp_module, "_held", threading.local())
    return runs


class TestHeldHighs:
    @staticmethod
    def on_a_fresh_object(lp):
        """solve_lp(lp) on a new thread, whose HiGHS object is new; its
        outcome as a result or an error text."""
        with ThreadPoolExecutor(max_workers=1) as pool:
            try:
                return pool.submit(solve_lp, lp).result()
            except SimplexError as error:
                return str(error)

    @staticmethod
    def held():
        return lp_module._held.highs

    def test_one_object_per_thread_gives_fresh_results(self):
        def program(g, alpha):
            return build_lp(DominationInstance(assign_weights(g, WeightSpec(1, 71), 4), alpha))

        ipm = program(gen_gnm(300, 3000, 3), Fraction(1, 2))
        simplex = program(gen_gnm(60, 300, 5), Fraction(1, 4))
        stalls = program(gen_gnm(40, 200, 1), Fraction(1, 2))
        fixed = program(gen_gnm(80, 300, 6), 1)
        returned, kept = [], []
        for lp, backend, pinned in [(ipm, "ipm", {}), (simplex, "simplex", {}),
                                    (stalls, None, {"simplex_iteration_limit": 1}),
                                    (fixed, "fixed", {}), (simplex, "simplex", {})]:
            with pytest.MonkeyPatch.context() as patch:
                if pinned:
                    patch_highs(patch, **pinned)
                want = self.on_a_fresh_object(lp)
                try:
                    got = solve_lp(lp)
                except SimplexError as error:
                    got = str(error)
                assert self.held().getNumCol() == 0  # no program outlives its call
            if backend is None:
                assert got == want and "Iteration limit reached" in got
                continue
            assert got.backend == want.backend == backend
            assert got.iterations == want.iterations
            assert got.values.tobytes() == want.values.tobytes()
            assert got.duals.tobytes() == want.duals.tobytes()
            returned.append(got)
            kept.append((got.values.copy(), got.duals.copy()))
        for sol, (values, duals) in zip(returned, kept):
            assert sol.values.tobytes() == values.tobytes()
            assert sol.duals.tobytes() == duals.tobytes()

    def test_the_object_is_kept_between_runs_on_one_thread(self):
        lp = build_lp(DominationInstance(assign_weights(gen_gnm(60, 300, 5), WeightSpec(1, 71), 4),
                                         Fraction(1, 4)))
        solve_lp(lp)
        first = self.held()
        solve_lp(lp)
        assert self.held() is first
        with ThreadPoolExecutor(max_workers=1) as pool:
            other = pool.submit(lambda: (solve_lp(lp), self.held())[1]).result()
        assert other is not first and self.held() is first


@pytest.mark.parametrize("path", ["_Highs", "ObjSense.kMinimize", "MatrixFormat.kRowwise",
                                  "HighsModelStatus.kOptimal", "HighsStatus.kError",
                                  "kHighsInf", "kBasisValidityValid"])
def test_private_highs_api_is_present(path):
    # solve_lp relies on these names of a private scipy module; a scipy
    # release that moves one must fail here, by name, before any solve
    obj = highs_core()
    for part in path.split("."):
        assert hasattr(obj, part), f"scipy.optimize._highspy._core lacks {path}"
        obj = getattr(obj, part)


class TestExactVerification:
    def test_hundred_random_small_lps(self):
        # HiGHS vertex vs the exact safe-dual certificate
        for i in range(100):
            n = 2 + i % 14
            m = min(n * (n - 1) // 2, (i * 7) % (3 * n))
            g = assign_weights(gen_gnm(n, m, derive_seed("lp", i)),
                               WeightSpec(1, 71), derive_seed("lpw", i))
            alpha = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))[i % 3]
            lp, sol = solve_instance(g, alpha)
            check = certify(lp, sol)
            assert check.feasible and check.certified
            if np.any((sol.values > 0) & (sol.values < 1)):
                assert sol.iterations > 0
            assert check.lower_bound <= check.objective
            rel = max(1.0, abs(float(check.objective)))
            assert abs(float(check.objective) - sol.objective_value) <= 1e-9 * rel

    def test_scaled_dual_leaves_a_gap(self):
        g = assign_weights(gen_gnm(12, 30, 5), WeightSpec(1, 71), 6)
        lp, sol = solve_instance(g, Fraction(1, 2))
        assert certify(lp, sol).certified
        check = certify(lp, dataclasses.replace(sol, duals=0.9 * sol.duals))
        assert check.feasible
        assert check.gap > lp_module.GAP_TOL and not check.certified

    def test_zeroed_primal_coordinate_falls_short(self):
        g = assign_weights(gen_gnm(12, 30, 5), WeightSpec(1, 71), 6)
        lp, sol = solve_instance(g, Fraction(1, 2))
        values = sol.values.copy()
        values[int(np.flatnonzero(values > 0)[0])] = 0.0
        check = certify(lp, dataclasses.replace(sol, values=values))
        assert not check.feasible and not check.certified

    def test_one_highs_run_per_solve_and_none_per_certificate(self, monkeypatch):
        def no_solver():
            raise AssertionError("certify started a HiGHS run")

        g = assign_weights(gen_gnm(40, 200, 5), WeightSpec(1, 71), 6)
        runs = patch_highs(monkeypatch)
        lp, sol = solve_instance(g, Fraction(1, 2))
        assert len(runs) == 1
        monkeypatch.setattr(highs_core(), "_Highs", no_solver)
        monkeypatch.setattr(lp_module, "_held", threading.local())
        assert certify(lp, sol).certified

    def test_failed_solve_names_n_and_status(self, monkeypatch):
        patch_highs(monkeypatch, simplex_iteration_limit=1)
        g = assign_weights(gen_gnm(40, 200, 1), WeightSpec(1, 71), 2)
        with pytest.raises(SimplexError,
                           match=r"n=40 after 1 simplex iterations: Iteration limit reached"):
            solve_lp(build_lp(DominationInstance(g, Fraction(1, 2))))

    def test_a_program_highs_rejects_is_an_error(self, monkeypatch):
        # a row HiGHS cannot read: its index past n_vars (the check that
        # LinearProgram makes is skipped here); a bound of 0 leaves it unfixed
        monkeypatch.setattr(lp_module.LinearProgram, "__post_init__", lambda self: None)
        lp = lp_module.LinearProgram(1, np.array([1]), np.array([0, 1]), np.array([5]),
                                     np.array([0]))
        with pytest.raises(SimplexError, match=r"HiGHS rejected the program for n=1$"):
            solve_lp(lp)

    def test_failed_solve_names_the_residual(self, monkeypatch):
        # a simplex-routed LP stopped after one iteration: HiGHS's info is
        # valid there, and its largest primal infeasibility reads 16
        patch_highs(monkeypatch, simplex_iteration_limit=1)
        g = assign_weights(gen_gnm(200, 2000, 3), WeightSpec(1, 71), 4)
        with pytest.raises(SimplexError, match=r"n=200 after 1 simplex iterations: "
                                               r"Iteration limit reached, "
                                               r"largest primal residual 16$"):
            solve_lp(build_lp(DominationInstance(g, Fraction(1, 2))))

    @settings(max_examples=40, deadline=None)
    @given(instances(max_n=9))
    def test_lp_never_exceeds_integer_optimum(self, inst):
        sol = solve_lp(build_lp(inst))
        opt = brute_force_opt(inst).opt_weight
        assert sol.objective_value <= opt + 1e-6 * max(1, opt)


def test_lp_text_format():
    g = WeightedGraph.from_edges(2, [(0, 1)], [2, 7])
    text = lp_text(build_lp(DominationInstance(g, Fraction(1, 2))))
    assert "Minimize" in text and "Subject To" in text and "End" in text
    assert " c0: x0 + x1 >= 1" in text
    assert " 0 <= x1 <= 1" in text


def loop_until_stable(lp):
    """Reference fixing, repeated until no row is tight: (forced columns,
    kept rows, their needs, free columns), from Python sets."""
    rows = [set(r.tolist()) for r in lp.rows]
    forced = set()
    while True:
        kept = [i for i, r in enumerate(rows) if lp.bounds[i] - len(r & forced) > 0]
        tight = [i for i in kept if lp.bounds[i] - len(rows[i] & forced) == len(rows[i] - forced)]
        if not tight:
            break
        for i in tight:
            forced |= rows[i]
    needs = [int(lp.bounds[i]) - len(rows[i] & forced) for i in kept]
    free = set().union(*(rows[i] - forced for i in kept))
    return forced, kept, needs, free


def isolated_heavy(n, seed):
    """G(n, n // 2) with weights 1..71: about a third of its vertices are
    isolated, and each isolated vertex's row is tight at every alpha."""
    return assign_weights(gen_gnm(n, n // 2, seed), WeightSpec(1, 71), seed + 1)


class TestForcedVariables:
    @staticmethod
    def handed_to_highs(monkeypatch, lp):
        """solve_lp(lp) and the programs it handed to HiGHS."""
        handed, real = [], lp_module._run_highs

        def recorded(reduced, n_named):
            handed.append(reduced)
            return real(reduced, n_named)

        monkeypatch.setattr(lp_module, "_run_highs", recorded)
        return solve_lp(lp), handed

    def check_against_loop(self, monkeypatch, lp):
        sol, handed = self.handed_to_highs(monkeypatch, lp)
        forced, kept, needs, free = loop_until_stable(lp)
        assert np.all(sol.values[sorted(forced)] == 1.0)
        assert np.all(sol.values[sorted(set(range(lp.n_vars)) - forced - free)] == 0.0)
        if not kept:
            assert handed == [] and sol.backend == "fixed" and sol.iterations == 0
            return
        (reduced,) = handed
        columns = np.array(sorted(free), dtype=np.int64)
        assert np.array_equal(reduced.weights, lp.weights[columns])
        assert reduced.bounds.tolist() == needs
        assert [columns[r].tolist() for r in reduced.rows] \
            == [sorted(set(lp.rows[i].tolist()) - forced) for i in kept]
        # one pass reached the fixpoint: no row of the reduced program is tight
        assert np.all(reduced.bounds < np.diff(reduced.indptr))

    @settings(max_examples=60, deadline=None)
    @given(instances(max_n=12))
    def test_one_pass_fixes_what_a_loop_fixes(self, inst):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check_against_loop(monkeypatch, build_lp(inst))

    @pytest.mark.parametrize("g, alpha", [(mentions_like(500, 7), Fraction(3, 4)),
                                          (isolated_heavy(300, 3), Fraction(1, 2))])
    def test_one_pass_on_graphs_with_tight_rows(self, monkeypatch, g, alpha):
        self.check_against_loop(monkeypatch, build_lp(DominationInstance(g, alpha)))

    @settings(max_examples=60, deadline=None)
    @given(instances(max_n=9))
    def test_objective_matches_the_unreduced_run(self, inst):
        lp = build_lp(inst)
        sol = solve_lp(lp)
        with pytest.MonkeyPatch.context() as monkeypatch:
            patch_highs(monkeypatch, presolve="on")
            values = lp_module._run_highs(lp, lp.n_vars)[0]
        unreduced = float(lp.weights.astype(float) @ values)
        assert abs(sol.objective_value - unreduced) <= 1e-9 * max(1.0, unreduced)
        opt = brute_force_opt(inst).opt_weight
        assert sol.objective_value <= opt + 1e-9 * max(1, opt)

    def test_isolated_vertices_only_start_no_run(self, monkeypatch):
        runs = patch_highs(monkeypatch)
        g = WeightedGraph.from_edges(4, [], [3, 1, 4, 1])
        for alpha in (Fraction(1, 4), Fraction(1, 2), 1):
            sol = solve_lp(build_lp(DominationInstance(g, alpha)))
            assert np.array_equal(sol.values, np.ones(4)) and sol.objective_value == 9
            assert sol.backend == "fixed" and sol.iterations == 0
        assert runs == []

    @pytest.mark.parametrize("g, alpha", [(mentions_like(500, 7), Fraction(3, 4)),
                                          (mentions_like(500, 8), Fraction(3, 4)),
                                          (isolated_heavy(500, 5), Fraction(1, 4)),
                                          (isolated_heavy(500, 5), Fraction(1, 2))])
    def test_tight_row_duals_keep_the_bound_exact(self, g, alpha):
        lp, sol = solve_instance(g, alpha)
        assert np.any(lp.bounds == np.diff(lp.indptr)) and sol.backend != "fixed"
        bound = float(certify(lp, sol).lower_bound)
        assert abs(bound - sol.objective_value) <= 1e-9 * sol.objective_value

    @pytest.mark.parametrize("seed", range(4))
    def test_small_programs_with_tight_rows_are_certified(self, seed):
        for g, alpha in ((mentions_like(150, seed), Fraction(3, 4)),
                         (isolated_heavy(150, seed), Fraction(1, 2))):
            lp, sol = solve_instance(g, alpha)
            assert np.any(lp.bounds == np.diff(lp.indptr))
            assert certify(lp, sol).certified
