"""Covering-relaxation linear programs, solved by HiGHS and certified exactly.

The relaxation has one row per vertex, summing the membership variables of
the closed neighborhood against the vertex demand, with every variable boxed
to [0, 1].  The constraint matrix is A + I of the graph, kept sparse.

:func:`solve_lp` hands the rows to HiGHS (Huangfu & Hall, Math. Prog. Comp.
2018) through the solver object bundled with scipy, in one run that yields the
vertex, the row duals and the iteration count.  Large programs with long rows
go to HiGHS's interior-point solver with crossover, every other program to its
dual simplex; both end at a vertex.  :func:`certify`
checks a solution with those duals in exact rational arithmetic, using the
safe dual bound of Neumaier & Shcherbina (Math. Prog. 2004), and runs no
solver.  scipy is imported inside :func:`solve_lp`, so commands that never
solve an LP do not pay for importing it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import DominationInstance

GAP_TOL = Fraction(1, 10**9)    # largest relative gap a certificate accepts
DUAL_DENOMINATOR = 10**9        # rationalization limits of the certificate
PRIMAL_DENOMINATOR = 10**6
# solve_lp runs IPM + crossover on a program with at least IPM_MIN_NONZEROS
# nonzeros in A + I and a mean row of at least IPM_MIN_MEAN_ROW; below either
# it runs dual simplex.  Measured (README, "Notes on scale"): on dense random
# and planted LPs the two are level near 6,000 nonzeros and IPM is 1.6-16x
# faster from n=800 to 5000; on hub-heavy, near-integral LPs with rows of
# 3-4 (mentions-like graphs, stars) IPM is 1.3-4.5x slower at every size.
IPM_MIN_NONZEROS = 6000
IPM_MIN_MEAN_ROW = 5


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

    @property
    def rows(self) -> list[np.ndarray]:
        """Per-row variable index sets (views of ``indices``)."""
        bounds = self.indptr.tolist()
        return [self.indices[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal vertex of the relaxation, with the row duals, the iteration
    count and the solver of the HiGHS run that found it."""

    values: np.ndarray           # x, clipped to [0, 1]^n, no signed zeros
    objective_value: float
    iterations: int              # simplex + IPM + crossover iterations
    duals: np.ndarray            # one per row, nonnegative up to rounding
    backend: str                 # "simplex" or "ipm" (with crossover)


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
    """Optimal vertex of the relaxation, from one HiGHS run.

    The CSR rows go to HiGHS row-wise, with only its log switched off and,
    for a program past the cut above, the IPM solver with crossover.  Raises
    :class:`SimplexError`, naming n, the iterations reached, the solver and
    the model status, when HiGHS reports anything but an optimum, or when
    crossover leaves no valid basis (the point would not be a vertex).
    """
    m, n = len(lp.bounds), lp.n_vars
    if m == 0 or n == 0:
        return FractionalSolution(np.zeros(n), 0.0, 0, np.zeros(m), "simplex")
    nnz = len(lp.indices)
    backend = "ipm" if nnz >= IPM_MIN_NONZEROS and nnz >= IPM_MIN_MEAN_ROW * m else "simplex"

    from scipy.optimize._highspy import _core as highs
    c = lp.weights.astype(float)
    model = highs.HighsLp()
    model.num_col_, model.num_row_ = n, m
    model.col_cost_ = c
    model.col_lower_, model.col_upper_ = np.zeros(n), np.ones(n)
    model.row_lower_, model.row_upper_ = lp.bounds.astype(float), np.full(m, highs.kHighsInf)
    matrix = model.a_matrix_
    matrix.format_ = highs.MatrixFormat.kRowwise  # HiGHS takes its shape from the model
    matrix.start_, matrix.index_ = lp.indptr, lp.indices
    matrix.value_ = np.ones(nnz)

    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    if backend == "ipm":
        solver.setOptionValue("solver", "ipm")
        solver.setOptionValue("run_crossover", "on")
    solver.passModel(model)
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
        raise SimplexError(f"HiGHS found no optimum for n={n} after {iterations} "
                           f"{backend} iterations: {failure}")
    solution = solver.getSolution()
    values = np.clip(solution.col_value, 0.0, 1.0) + 0.0  # + 0.0 turns HiGHS's -0.0 into 0.0
    return FractionalSolution(values, float(c @ values), iterations,
                              np.asarray(solution.row_dual), backend)


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


def lp_text(lp: LinearProgram, name: str = "alpha_rate_cover") -> str:
    """Human-readable LP-format rendering, for diffing against other solvers."""
    lines = [f"\\ {name}", "Minimize", " obj: " + " + ".join(
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
