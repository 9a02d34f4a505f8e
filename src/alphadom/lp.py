"""Covering-relaxation linear programs and a bounded-variable primal simplex.

The relaxation has one row per vertex, summing the membership variables of
the closed neighborhood against the vertex demand, with every variable boxed
to [0, 1].  The all-ones point is feasible by construction, which gives the
solver a ready-made starting basis (all surplus variables basic, all
membership variables nonbasic at their upper bound): no Phase-1 is needed.

Pricing is steepest edge (largest squared reduced cost over the column's
squared norm plus one) with an automatic switch to Bland's rule after a
streak of degenerate pivots, so the solver is fast in the common case and
still cannot cycle.  All pivot choices are deterministic, so identical
programs produce identical bases and identical solutions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import DominationInstance

PRICE_TOL = 1e-9    # reduced-cost optimality threshold
PIVOT_TOL = 1e-9    # smallest tableau entry eligible for a ratio test
FEAS_TOL = 1e-7     # bound violation treated as numerical failure
DEGENERATE_STREAK = 60


class SimplexError(RuntimeError):
    """Numerical instability: feasibility could not be maintained in tolerance."""


@dataclass(frozen=True)
class LinearProgram:
    """min weights.x subject to, per row, sum(x[row]) >= bound, 0 <= x <= 1.

    Every row's index set contains the row's own vertex and the bound never
    exceeds the row size, so the all-ones point is always feasible.
    """

    n_vars: int
    weights: np.ndarray          # objective coefficients, int64
    rows: list[np.ndarray]       # per-row variable index sets
    bounds: np.ndarray           # per-row lower bounds, int64

    def __post_init__(self):
        if len(self.rows) != len(self.bounds):
            raise ValueError("row/bound count mismatch")
        for i, row in enumerate(self.rows):
            if self.bounds[i] > len(row):
                raise ValueError(f"row {i}: bound {self.bounds[i]} exceeds row size {len(row)}")


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal point of the relaxation plus the basis that certifies it."""

    values: np.ndarray           # x in [0, 1]^n
    objective_value: float
    basis: tuple[int, ...]       # basic variable per row; indices >= n_vars are surplus
    at_upper: frozenset          # nonbasic variables pinned at their upper bound
    iterations: int


def build_lp(inst: DominationInstance) -> LinearProgram:
    """One covering row per vertex, over its closed neighborhood."""
    g = inst.graph
    return LinearProgram(
        n_vars=g.n,
        weights=g.weight_array().copy(),
        rows=[g.closed_neighborhood(v) for v in range(g.n)],
        bounds=inst.demand_array().copy(),
    )


def _dense_system(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M = [A | -I] with surplus columns, plus costs c and upper bounds."""
    m = len(lp.rows)
    n = lp.n_vars
    M = np.zeros((m, n + m))
    for i, row in enumerate(lp.rows):
        M[i, row] = 1.0
        M[i, n + i] = -1.0
    c = np.concatenate([lp.weights.astype(float), np.zeros(m)])
    ub = np.concatenate([np.ones(n), np.full(m, np.inf)])
    return M, c, ub


_BASIC, _LOWER, _UPPER = 0, 1, 2


def solve_lp(lp: LinearProgram) -> FractionalSolution:
    """Optimal basic solution of the relaxation.

    Starts from the all-ones point (membership variables nonbasic at their
    upper bound, surplus variables basic) and iterates upper-bounded primal
    simplex with steepest-edge pricing; a streak of degenerate pivots flips
    the pricing to Bland's rule so cycling is impossible.  The final basic
    values are re-solved from the original columns, which strips any drift
    accumulated by tableau updates.
    """
    m = len(lp.rows)
    n = lp.n_vars
    if m == 0 or n == 0:
        return FractionalSolution(np.zeros(n), 0.0, (), frozenset(), 0)

    M, c, ub = _dense_system(lp)
    b = lp.bounds.astype(float)

    status = np.full(n + m, _UPPER, dtype=np.int8)
    status[n:] = _BASIC
    basis = np.arange(n, n + m)
    T = -M  # inverse of the initial surplus basis is -I
    xB = M[:, :n] @ np.ones(n) - b
    d = c.copy()
    # steepest-edge weights ||T[:, j]||^2 + 1; exactly 2 for basic (unit) columns
    gamma = (M * M).sum(axis=0) + 1.0

    iterations = 0
    max_iterations = 20_000 + 50 * (n + m)
    bland = False
    degen_streak = 0

    def apply_pivot(r: int, j: int) -> None:
        nonlocal T, d, gamma
        piv = T[r, j]
        trow = T[r] / piv
        col = T[:, j].copy()
        ip = col @ T
        T -= np.outer(col, trow)
        T[r] = trow
        d -= d[j] * trow
        gamma = gamma - 2.0 * trow * ip + trow * trow * (float(col @ col) + 1.0)
        np.maximum(gamma, 1.0 + 1e-12, out=gamma)
        T[:, j] = 0.0
        T[r, j] = 1.0
        d[j] = 0.0
        gamma[j] = 2.0

    for _refresh in range(3):
        while True:
            if iterations > max_iterations:
                raise SimplexError("iteration cap exceeded")
            at_lower = status == _LOWER
            at_upper = status == _UPPER
            viol = np.where(at_lower, -d, 0.0) + np.where(at_upper, d, 0.0)
            eligible = viol > PRICE_TOL
            if not eligible.any():
                break
            if bland:
                j = int(np.nonzero(eligible)[0][0])
            else:
                j = int(np.argmax(np.where(eligible, viol * viol / gamma, -1.0)))
            from_lower = status[j] == _LOWER

            a = T[:, j]
            e = a if from_lower else -a
            t_arr = np.full(m, np.inf)
            dec = e > PIVOT_TOL
            t_arr[dec] = np.maximum(xB[dec], 0.0) / e[dec]
            ub_basic = ub[basis]
            inc = (e < -PIVOT_TOL) & np.isfinite(ub_basic)
            t_arr[inc] = np.maximum(ub_basic[inc] - xB[inc], 0.0) / -e[inc]

            t_min = float(t_arr.min()) if m else np.inf
            own = float(ub[j])  # traversal to the entering variable's other bound
            if own <= t_min + 1e-12:
                if not np.isfinite(own):
                    raise SimplexError("unbounded direction in a box-bounded program")
                xB -= own * e
                status[j] = _LOWER if status[j] == _UPPER else _UPPER
                iterations += 1
                degen_streak = 0
                continue
            if not np.isfinite(t_min):
                raise SimplexError("unbounded direction in a box-bounded program")

            cand = np.nonzero(t_arr <= t_min + 1e-10)[0]
            if bland:
                r = int(cand[np.argmin(basis[cand])])
            else:
                order = np.lexsort((basis[cand], -np.abs(e[cand])))
                r = int(cand[order[0]])

            if t_min < 1e-10:
                degen_streak += 1
                if degen_streak > DEGENERATE_STREAK:
                    bland = True
            else:
                degen_streak = 0
                bland = False

            leaving = int(basis[r])
            xB -= t_min * e
            xB[r] = t_min if from_lower else ub[j] - t_min
            status[leaving] = _LOWER if e[r] > 0 else _UPPER
            status[j] = _BASIC
            basis[r] = j
            apply_pivot(r, j)
            iterations += 1

        # audit optimality against the original columns; the tableau may have drifted
        B = M[:, basis]
        y = np.linalg.solve(B.T, c[basis])
        d_fresh = c - M.T @ y
        at_lower = status == _LOWER
        at_upper = status == _UPPER
        worst = max(
            float(np.max(-d_fresh[at_lower], initial=0.0)),
            float(np.max(d_fresh[at_upper], initial=0.0)),
        )
        if worst <= 100 * PRICE_TOL:
            break
        # drift was real: rebuild the tableau from the current basis and resume
        T = np.linalg.solve(B, M)
        d = d_fresh
        gamma = (T * T).sum(axis=0) + 1.0
        x_full = np.zeros(n + m)
        x_full[status == _UPPER] = ub[status == _UPPER]
        xB = np.linalg.solve(B, b - M @ x_full)
    else:
        raise SimplexError("optimality could not be certified after refreshes")

    x_full = np.zeros(n + m)
    x_full[status == _UPPER] = ub[status == _UPPER]
    rhs = b - M @ x_full
    xB_exact = np.linalg.solve(M[:, basis], rhs)
    if float(np.min(xB_exact, initial=0.0)) < -FEAS_TOL:
        raise SimplexError("basic solution left its bounds")
    if float(np.max(xB_exact - ub[basis], initial=0.0)) > FEAS_TOL:
        raise SimplexError("basic solution left its bounds")
    x_full[basis] = xB_exact

    values = np.clip(x_full[:n], 0.0, 1.0)
    objective = float(lp.weights.astype(float) @ values)
    nonbasic_upper = frozenset(int(i) for i in np.nonzero(status == _UPPER)[0])
    return FractionalSolution(values, objective, tuple(int(v) for v in basis),
                              nonbasic_upper, iterations)


@dataclass(frozen=True)
class ExactVerification:
    """Outcome of re-deriving a returned basis in exact rational arithmetic."""

    objective: Fraction
    feasible: bool
    optimal: bool


def _solve_fraction_system(B: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over Fractions; raises on a singular basis."""
    m = len(B)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(B)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if piv is None:
            raise SimplexError("singular basis in exact verification")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][m] for r in range(m)]


def verify_basis_exact(lp: LinearProgram, sol: FractionalSolution) -> ExactVerification:
    """Recompute the basic solution and reduced costs as exact rationals.

    Independent of the float tableau: it starts from the integer program data
    and the basis/bound bookkeeping in ``sol``, checks primal feasibility and
    the reduced-cost sign conditions exactly, and returns the exact objective.
    """
    m = len(lp.rows)
    n = lp.n_vars
    cols: list[dict[int, int]] = [{} for _ in range(n + m)]
    for i, row in enumerate(lp.rows):
        for j in row:
            cols[int(j)][i] = 1
        cols[n + i][i] = -1

    basis = list(sol.basis)
    B = [[Fraction(cols[basis[k]].get(i, 0)) for k in range(m)] for i in range(m)]
    rhs = [
        Fraction(int(lp.bounds[i]))
        - sum(1 for j in lp.rows[i] if int(j) in sol.at_upper)
        for i in range(m)
    ]
    zB = _solve_fraction_system(B, rhs)

    feasible = all(z >= 0 for z in zB) and all(
        z <= 1 for k, z in enumerate(zB) if basis[k] < n
    )

    cost = [Fraction(int(lp.weights[j])) if j < n else Fraction(0) for j in range(n + m)]
    Bt = [[B[i][k] for i in range(m)] for k in range(m)]
    y = _solve_fraction_system(Bt, [cost[basis[k]] for k in range(m)])

    optimal = True
    in_basis = set(basis)
    for j in range(n + m):
        if j in in_basis:
            continue
        dj = cost[j] - sum(y[i] * v for i, v in cols[j].items())
        if j in sol.at_upper:
            if dj > 0:
                optimal = False
        elif dj < 0:
            optimal = False

    objective = sum(
        (cost[basis[k]] * zB[k] for k in range(m) if basis[k] < n), Fraction(0)
    ) + sum((cost[j] for j in sol.at_upper if j < n), Fraction(0))
    return ExactVerification(objective, feasible, optimal)


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
