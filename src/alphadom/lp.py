"""Covering-relaxation linear programs, solved by HiGHS and certified exactly.

The relaxation has one row per vertex, summing the membership variables of
the closed neighborhood against the vertex demand, with every variable boxed
to [0, 1].  The constraint matrix is A + I of the graph, kept sparse.

:func:`solve_lp` first fixes what the rows force, in O(nnz) numpy: a row
whose bound equals its size is tight and fixes its variables at 1, rows
whose bound that coverage meets are dropped, and a variable left in no row
is fixed at 0 (the forcing-row and empty-column reductions of Andersen &
Andersen, Math. Prog. 1995).  One pass is the fixpoint.  What is left goes to
HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018) through the solver object
bundled with scipy, in one run with presolve off that yields the vertex, the
row duals and the iteration count; at alpha = 1, or on a graph of isolated
vertices, no run starts.  Each thread keeps one HiGHS object for its runs,
and clears its model after each.  Large programs with long rows, and large
programs with one column holding 0.3 of the nonzeros (a dominant hub, as in
a star), go to HiGHS's interior-point solver with crossover, every other
program to its dual simplex; both end at a vertex.  :func:`certify` checks
a solution with its duals in exact rational arithmetic, using the safe dual
bound of Neumaier & Shcherbina (Math. Prog. 2004), and runs no solver.
scipy is imported inside :func:`_run_highs`, so commands that never solve an
LP do not pay for importing it.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import DominationInstance, _rows

GAP_TOL = Fraction(1, 10**9)    # largest relative gap a certificate accepts
DUAL_DENOMINATOR = 10**9        # rationalization limits of the certificate
PRIMAL_DENOMINATOR = 10**6
# solve_lp runs IPM + crossover on a program with at least IPM_MIN_NONZEROS
# nonzeros in A + I and a mean row of at least IPM_MIN_MEAN_ROW; below either
# it runs dual simplex.  Measured (README, "Notes on scale"): on dense random
# and planted LPs the two are level near 6,000 nonzeros and IPM is 1.6-16x
# faster from n=800 to 5000; on hub-heavy, near-integral LPs with rows of
# 3-4 (mentions-like graphs at every size, stars of up to 10^4 leaves) IPM
# is 1.3-8x slower.
IPM_MIN_NONZEROS = 6000
IPM_MIN_MEAN_ROW = 5
# A program below that cut with at least IPM_HUB_MIN_NONZEROS nonzeros whose
# largest column holds at least IPM_HUB_MIN_SHARE of them (a star's hub holds
# a third) runs IPM + crossover too.  Measured on stars with x random
# leaf-to-leaf edges per leaf (README): the dual simplex stalls on the hub
# column of a 10^5-leaf star (x = 0: 4.1-7.4 s against 1.0-1.4 s).  At
# x = 1/4 (share 0.286) the two split by alpha (median 3.7 / 6.6 s against
# IPM's 3.1 / 11.1 s at alpha 1/4 / 1/2, so the simplex wins the pair), and
# from x = 3/8 (share 0.267) up the simplex is the faster, as on 10^4-leaf
# stars (share 1/3: 71 ms against 97 ms at alpha 1/4) and on mentions-like
# LPs (largest column 1.4% of the nonzeros: 3-8x faster).
IPM_HUB_MIN_NONZEROS = 50_000
IPM_HUB_MIN_SHARE = 0.3


class SimplexError(RuntimeError):
    """The LP backend returned no optimum."""


@dataclass(frozen=True)
class LinearProgram:
    """min weights.x subject to, per row, sum(x[row]) >= bound, 0 <= x <= 1.

    Row i's variable index set is ``indices[indptr[i]:indptr[i+1]]`` (CSR).
    Every row's index set contains the row's own vertex and the bound never
    exceeds the row size, so the all-ones point is always feasible.
    """

    n_vars: int
    weights: np.ndarray          # objective coefficients, int64
    indptr: np.ndarray           # CSR row pointers of the rows' index sets
    indices: np.ndarray          # CSR variable indices
    bounds: np.ndarray           # per-row lower bounds, int64

    def __post_init__(self):
        sizes = np.diff(self.indptr)
        if len(sizes) != len(self.bounds):
            raise ValueError("row/bound count mismatch")
        over = np.flatnonzero(self.bounds > sizes)
        if len(over):
            i = int(over[0])
            raise ValueError(f"row {i}: bound {self.bounds[i]} exceeds row size {sizes[i]}")
        if len(self.indices) and not 0 <= self.indices.min() <= self.indices.max() < self.n_vars:
            raise ValueError(f"a variable index lies outside [0, {self.n_vars})")

    @property
    def rows(self) -> list[np.ndarray]:
        """Per-row variable index sets (views of ``indices``)."""
        bounds = self.indptr.tolist()
        return [self.indices[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal vertex of the relaxation, with the row duals, the iteration
    count and the solver of the HiGHS run that found it ("fixed" when the
    forced variables left nothing to run)."""

    values: np.ndarray           # x, clipped to [0, 1]^n, no signed zeros
    objective_value: float
    iterations: int              # simplex + IPM + crossover iterations
    duals: np.ndarray            # one per row, nonnegative up to rounding
    backend: str                 # "simplex", "ipm" (with crossover) or "fixed"


def build_lp(inst: DominationInstance) -> LinearProgram:
    """One covering row per vertex, over its closed neighborhood (A + I).

    The program shares the graph's and the instance's read-only arrays.
    """
    g = inst.graph
    indptr, indices = g.closed_csr()
    return LinearProgram(
        n_vars=g.n,
        weights=g.weight_array(),
        indptr=indptr,
        indices=indices,
        bounds=inst.demand_array(),
    )


def solve_lp(lp: LinearProgram) -> FractionalSolution:
    """Optimal vertex of the relaxation: forced variables fixed first, the
    rest from at most one HiGHS run.

    A row whose bound equals its size is tight and fixes each of its
    variables at 1.  Every row then loses the coverage of those variables,
    a row whose bound falls to 0 is dropped, and a variable left in no row
    is fixed at 0 (weights are nonnegative).  One pass reaches the fixpoint:
    fixing f variables of a row lowers its bound and its size by f each, so
    a row that was not tight does not become tight.  What is left goes to
    HiGHS row-wise, with presolve off (it found nothing to reduce on the
    programs measured and cost 10-40% of their solve), on the solver that
    the reduced program's shape picks (:func:`_backend`).  When no row is
    left no run starts: ``backend`` reads "fixed" and ``iterations`` 0.

    The duals are the reduced program's for its rows, 0 for a dropped row,
    and for a tight row the largest max(0, w_j - (A^T y)_j) over its
    variables, with y the kept rows' duals.  Every fixed-at-1 variable then
    has a nonpositive reduced cost, and the safe bound of :func:`certify`
    is the reduced program's bound plus the fixed weight.

    Raises :class:`SimplexError`, naming n, the iterations reached, the
    solver, the model status and, where HiGHS's info is valid, the largest
    primal residual, when HiGHS reports anything but an optimum, or when
    crossover leaves no valid basis (the point would not be a vertex).
    """
    m, n = len(lp.bounds), lp.n_vars
    tight = lp.bounds == np.diff(lp.indptr)
    if m and not tight.any():
        values, duals, iterations, backend = _run_highs(lp, n)  # nothing to fix
    else:
        values, duals, iterations, backend = _fix_and_solve(lp, tight)
    return FractionalSolution(values, float(lp.weights.astype(float) @ values), iterations,
                              duals, backend)


def _fix_and_solve(lp: LinearProgram,
                   tight: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, str]:
    """:func:`solve_lp` on a program with a tight row or with no rows: fix,
    reduce, solve what is left, and set the duals of the tight rows."""
    m, n = len(lp.bounds), lp.n_vars
    row_of = _rows(lp.indptr)
    in_tight = tight[row_of]
    forced = np.zeros(n, dtype=bool)
    forced[lp.indices[in_tight]] = True
    hit = forced[lp.indices]
    need = lp.bounds - np.bincount(row_of[hit], minlength=m)
    kept = need > 0
    stays = kept[row_of] & ~hit                  # the entries HiGHS sees
    free = np.zeros(n, dtype=bool)
    free[lp.indices[stays]] = True

    values, duals = forced.astype(float), np.zeros(m)
    if not kept.any():
        iterations, backend = 0, "fixed"
    else:
        column = np.cumsum(free) - 1
        reduced = LinearProgram(
            n_vars=int(column[-1]) + 1,
            weights=lp.weights[free],
            indptr=np.concatenate(([0], np.cumsum(np.bincount(row_of[stays],
                                                              minlength=m)[kept]))),
            indices=column[lp.indices[stays]],
            bounds=need[kept])
        values[free], duals[kept], iterations, backend = _run_highs(reduced, n)
    # a tight row was dropped (its need is 0), so its dual is 0 until here
    aty = np.bincount(lp.indices, weights=np.maximum(duals, 0.0)[row_of], minlength=n)
    np.maximum.at(duals, row_of[in_tight],
                  np.maximum(lp.weights - aty, 0.0)[lp.indices[in_tight]])
    return values, duals, iterations, backend


def _backend(lp: LinearProgram) -> str:
    """The HiGHS solver for ``lp``: "ipm" (with crossover) past the size cut
    or for a dominant hub, "simplex" otherwise."""
    nnz = len(lp.indices)
    if nnz >= IPM_MIN_NONZEROS and nnz >= IPM_MIN_MEAN_ROW * len(lp.bounds):
        return "ipm"
    if nnz >= IPM_HUB_MIN_NONZEROS and \
            np.bincount(lp.indices, minlength=lp.n_vars).max() >= IPM_HUB_MIN_SHARE * nnz:
        return "ipm"
    return "simplex"


def _run_highs(lp: LinearProgram, n_named: int) -> tuple[np.ndarray, np.ndarray, int, str]:
    """(values, row duals, iterations, backend) of one HiGHS run on ``lp``,
    which has at least one row, with presolve off; a failure names
    ``n_named`` variables, those of the program before its reduction."""
    m, n = len(lp.bounds), lp.n_vars
    nnz = len(lp.indices)
    backend = _backend(lp)

    from scipy.optimize._highspy import _core as highs
    solver = _thread_highs(highs)
    solver.setOptionValue("solver", backend)  # "ipm" and "simplex" are HiGHS's names
    try:
        # the array form of passModel reads numpy buffers; a HighsLp built
        # field by field converts every entry through Python (0.4 ms on 2,000
        # nonzeros).  Its last argument marks every column continuous.
        passed = solver.passModel(n, m, nnz, int(highs.MatrixFormat.kRowwise),
                                  int(highs.ObjSense.kMinimize), 0.0, lp.weights.astype(float),
                                  np.zeros(n), np.ones(n), lp.bounds.astype(float),
                                  np.full(m, highs.kHighsInf), lp.indptr.astype(np.int32),
                                  lp.indices.astype(np.int32), np.ones(nnz),
                                  np.zeros(n, dtype=np.int32))
        if passed == highs.HighsStatus.kError:
            raise SimplexError(f"HiGHS rejected the program for n={n_named}")
        run_status = solver.run()
        status = solver.getModelStatus()
        info = solver.getInfo()
        # crossover_iteration_count reads 0 even when crossover ran
        iterations = (info.simplex_iteration_count + info.ipm_iteration_count
                      + info.crossover_iteration_count)
        if run_status == highs.HighsStatus.kError or status != highs.HighsModelStatus.kOptimal:
            failure = solver.modelStatusToString(status)
        elif backend == "ipm" and info.basis_validity != highs.kBasisValidityValid:
            failure = "crossover left no valid basis"
        else:
            failure = None
        if failure:
            residual = (f", largest primal residual {info.max_primal_infeasibility:g}"
                        if info.valid else "")
            raise SimplexError(f"HiGHS found no optimum for n={n_named} after {iterations} "
                               f"{backend} iterations: {failure}{residual}")
        solution = solver.getSolution()
        values = np.clip(solution.col_value, 0.0, 1.0) + 0.0  # + 0.0 turns -0.0 into 0.0
        return values, np.asarray(solution.row_dual), iterations, backend
    finally:
        solver.clearModel()


_held = threading.local()  # per thread: its HiGHS object


def _thread_highs(highs):
    """This thread's HiGHS object, with the options every run shares set.

    It is built on the thread's first run and kept for the thread's later
    runs.  Building and freeing one took about 0.1 ms, which a call per
    community LP paid before the object was kept.
    """
    solver = getattr(_held, "highs", None)
    if solver is None:
        solver = highs._Highs()
        solver.setOptionValue("output_flag", False)
        solver.setOptionValue("presolve", "off")
        solver.setOptionValue("run_crossover", "on")  # IPM must end at a vertex
        _held.highs = solver
    return solver


@dataclass(frozen=True)
class Certificate:
    """Exact evidence that a solution of the relaxation is optimal."""

    objective: Fraction          # weights.x of the rationalized primal
    lower_bound: Fraction        # safe dual bound b.y - sum(z)
    feasible: bool               # the rationalized primal meets every row and box
    gap: Fraction                # (objective - lower_bound) / max(1, |objective|)

    @property
    def certified(self) -> bool:
        return self.feasible and self.gap <= GAP_TOL


def certify(lp: LinearProgram, sol: FractionalSolution) -> Certificate:
    """Certify ``sol`` in exact rational arithmetic; no solver runs.

    The row duals y are ``sol.duals``, rationalized with denominators up to
    10**9 and clamped at 0.  With z = max(0, A^T y - w) the pair (y, z) is
    dual feasible by construction, so b.y - sum(z) is a lower bound on the
    optimum however inexact y is (Neumaier & Shcherbina, Math. Prog. 2004).
    The primal is rationalized with denominators up to 10**6 and checked
    against every row and box exactly; the certificate holds when it is
    feasible and its objective is within a relative 1e-9 of the bound.  The
    cost is O(nnz) Fraction operations.

    A vertex of a small program has small denominators and rationalizes
    exactly.  From n of about 200 up, the true denominators of a vertex pass
    10**6, so its rationalization can miss a row by a hair and the
    certificate reports it infeasible.
    """
    y = [max(Fraction(0), Fraction(float(v)).limit_denominator(DUAL_DENOMINATOR))
         for v in sol.duals]
    x = [Fraction(float(v)).limit_denominator(PRIMAL_DENOMINATOR) for v in sol.values]
    weights = [int(w) for w in lp.weights]

    aty = [Fraction(0)] * lp.n_vars
    feasible = all(0 <= xj <= 1 for xj in x)
    for i, row in enumerate(lp.rows):
        cols = row.tolist()
        if y[i]:
            for j in cols:
                aty[j] += y[i]
        feasible = feasible and sum(x[j] for j in cols) >= int(lp.bounds[i])

    lower_bound = Fraction(sum(int(b) * yi for b, yi in zip(lp.bounds, y))
                           - sum(max(Fraction(0), a - w) for a, w in zip(aty, weights)))
    objective = Fraction(sum(w * xj for w, xj in zip(weights, x)))
    gap = (objective - lower_bound) / max(1, abs(objective))
    return Certificate(objective, lower_bound, feasible, gap)


def lp_text(lp: LinearProgram) -> str:
    """Human-readable LP-format rendering, for diffing against other solvers."""
    lines = ["\\ alpha_rate_cover", "Minimize", " obj: " + " + ".join(
        f"{int(w)} x{j}" for j, w in enumerate(lp.weights))]
    lines.append("Subject To")
    for i, row in enumerate(lp.rows):
        terms = " + ".join(f"x{int(j)}" for j in row)
        lines.append(f" c{i}: {terms} >= {int(lp.bounds[i])}")
    lines.append("Bounds")
    for j in range(lp.n_vars):
        lines.append(f" 0 <= x{j} <= 1")
    lines.append("End")
    return "\n".join(lines) + "\n"
