"""Covering-relaxation linear programs, solved by HiGHS and certified exactly.

The relaxation has one row per vertex, summing the membership variables of
the closed neighborhood against the vertex demand, with every variable boxed
to [0, 1].  The constraint matrix is A + I of the graph, kept sparse.

:func:`solve_lp` hands the program to HiGHS (Huangfu & Hall, Math. Prog.
Comp. 2018) through ``scipy.optimize.milp`` with no integer variables, which
runs HiGHS's simplex and returns a vertex.  :func:`certify` checks any
solution, from any backend, in exact rational arithmetic with the safe dual
bound of Neumaier & Shcherbina (Math. Prog. 2004).  scipy is imported inside
the functions that need it, so commands that never solve an LP do not pay
for importing it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import DominationInstance

GAP_TOL = Fraction(1, 10**9)    # largest relative gap a certificate accepts
DUAL_DENOMINATOR = 10**9        # rationalization limits of the certificate
PRIMAL_DENOMINATOR = 10**6


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
    """Optimal vertex of the relaxation.

    ``iterations`` is always 0: ``scipy.optimize.milp`` does not report
    HiGHS's simplex iteration count.
    """

    values: np.ndarray           # x, clipped to [0, 1]^n, no signed zeros
    objective_value: float
    iterations: int


def build_lp(inst: DominationInstance) -> LinearProgram:
    """One covering row per vertex, over its closed neighborhood (A + I)."""
    g = inst.graph
    indptr, indices = g.closed_csr()
    return LinearProgram(
        n_vars=g.n,
        weights=g.weight_array().copy(),
        indptr=indptr,
        indices=indices,
        bounds=inst.demand_array().copy(),
    )


def _constraint_matrix(lp: LinearProgram):
    """The rows as a CSR matrix of ones (A + I for a graph's relaxation)."""
    from scipy.sparse import csr_array
    return csr_array((np.ones(len(lp.indices)), lp.indices, lp.indptr),
                     shape=(len(lp.bounds), lp.n_vars))


def solve_lp(lp: LinearProgram) -> FractionalSolution:
    """Optimal vertex of the relaxation, from HiGHS.

    Raises :class:`SimplexError`, naming n, the HiGHS status and its
    message, when HiGHS reports anything but an optimum.
    """
    m = len(lp.bounds)
    n = lp.n_vars
    if m == 0 or n == 0:
        return FractionalSolution(np.zeros(n), 0.0, 0)

    from scipy.optimize import Bounds, LinearConstraint, milp
    c = lp.weights.astype(float)
    res = milp(c, constraints=LinearConstraint(_constraint_matrix(lp),
                                               lb=lp.bounds.astype(float), ub=np.inf),
               bounds=Bounds(0.0, 1.0))
    if res.status != 0:
        raise SimplexError(f"HiGHS found no optimum for n={n}: "
                           f"status {res.status}: {res.message}")
    values = np.clip(res.x, 0.0, 1.0) + 0.0  # + 0.0 turns HiGHS's -0.0 into 0.0
    return FractionalSolution(values, float(c @ values), 0)


def highs_duals(lp: LinearProgram) -> np.ndarray:
    """Dual value of each covering row (nonnegative up to rounding), from
    HiGHS through ``scipy.optimize.linprog``."""
    if len(lp.bounds) == 0 or lp.n_vars == 0:
        return np.zeros(len(lp.bounds))
    from scipy.optimize import linprog
    res = linprog(lp.weights.astype(float), A_ub=-_constraint_matrix(lp),
                  b_ub=-lp.bounds.astype(float), bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        raise SimplexError(f"HiGHS found no optimum for n={lp.n_vars}: "
                           f"status {res.status}: {res.message}")
    return -res.ineqlin.marginals


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
    """Certify ``sol`` in exact rational arithmetic, whatever solved it.

    The row duals y come from :func:`highs_duals`, rationalized with
    denominators up to 10**9 and clamped at 0.  With z = max(0, A^T y - w)
    the pair (y, z) is dual feasible by construction, so b.y - sum(z) is a
    lower bound on the optimum however inexact y is (Neumaier & Shcherbina,
    Math. Prog. 2004).  The primal is rationalized with denominators up to
    10**6 and checked against every row and box exactly; the certificate
    holds when it is feasible and its objective is within a relative 1e-9 of
    the bound.  The cost is O(nnz) Fraction operations.

    A vertex of a small program has small denominators and rationalizes
    exactly.  From n of about 200 up, the true denominators of a vertex pass
    10**6, so its rationalization can miss a row by a hair and the
    certificate reports it infeasible.
    """
    y = [max(Fraction(0), Fraction(float(v)).limit_denominator(DUAL_DENOMINATOR))
         for v in highs_duals(lp)]
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
