"""Randomized rounding of the covering relaxation, with amplification and repair.

The relaxation is solved once; its optimum is rounded independently per
vertex in up to ceil(log2(max degree)) passes, unioning the passes until the
accumulated set is feasible.  A deterministic repair sweep (the scan of
greedy S1, started from the rounded set) then fills any remaining per-vertex
shortfall, so the returned set is feasible for every seed.  Every draw
comes from [0, THRESHOLD_UPPER) rather than [0, 1), which inflates each
inclusion probability to min(1, x / THRESHOLD_UPPER): any fractional value
of at least one half is a certain pick.  One pass loop, :func:`round_rows`,
reads the rows of A + I and the demands as arrays, and serves both ``rr``
(through :func:`round_until_feasible`) and the per-community rounding of
:mod:`alphadom.community`.
"""
from __future__ import annotations

import numpy as np

from .graph import DominatingSet, DominationInstance, WeightedGraph, coverage_counts
from .greedy import Strategy, _fill
from .lp import FractionalSolution, build_lp, solve_lp
# Not called here, but perfbench/tracer.py POINTS wraps it by its name in
# this module, and a name that does not resolve fails the traced run's check.
from .graph import is_feasible  # noqa: F401


THRESHOLD_UPPER = 0.5  # upper end of every rounding draw


def default_max_rounds(g: WeightedGraph) -> int:
    """ceil(log2(max degree)), never below 1."""
    return max(1, (g.max_degree() - 1).bit_length())


def round_once(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One independent rounding pass: include i iff a fresh draw from
    [0, THRESHOLD_UPPER) falls strictly below values[i].  Returns the
    included indices, ascending."""
    draws = rng.random(len(values)) * THRESHOLD_UPPER
    return np.nonzero(draws < values)[0]


def round_rows(indptr: np.ndarray, indices: np.ndarray, demands: np.ndarray,
               values: np.ndarray, rng: np.random.Generator, rounds: int) -> np.ndarray:
    """Union up to ``rounds`` passes of :func:`round_once`, stopping at the
    first union whose coverage meets every demand; returns the union as a
    mask over ``values``.

    Row i of the CSR arrays (``indptr``, ``indices``) is the closed
    neighbourhood whose members' count must reach ``demands[i]``; no row is
    empty.  The union may still fall short.
    """
    picked = np.zeros(len(values), dtype=bool)
    for _ in range(rounds):
        picked[round_once(values, rng)] = True
        if np.all(np.add.reduceat(picked[indices], indptr[:-1], dtype=np.int64) >= demands):
            break
    return picked


def round_until_feasible(inst: DominationInstance, values: np.ndarray,
                         rng: np.random.Generator, rounds: int) -> DominatingSet:
    """:func:`round_rows` on the instance's rows of A + I and its demands,
    as a set.  The result may still fall short."""
    indptr, indices = inst.graph.closed_csr()
    return DominatingSet.from_mask(inst.graph, round_rows(indptr, indices, inst.demand_array(),
                                                          values, rng, rounds))


def repair(inst: DominationInstance, candidate: DominatingSet) -> DominatingSet:
    """Deterministically top up every uncovered vertex.

    This is the scan of greedy S1 started from ``candidate`` and its
    coverage: vertices are visited in ascending index order, and each
    shortfall of l is filled with the l lowest-weight non-members of the
    closed neighborhood (ties to the lower index).  The input set is not
    modified.
    """
    return _fill(inst, Strategy.S1, candidate, coverage_counts(inst.graph, candidate))


def randomized_rounding(inst: DominationInstance, seed: int,
                        fractional: FractionalSolution | None = None) -> DominatingSet:
    """Amplified randomized rounding; always returns a feasible set.

    The relaxation is solved once up front (``fractional`` lets callers reuse
    a solution they already have).  Up to :func:`default_max_rounds` passes,
    drawn from ``default_rng(seed)``, go through :func:`round_until_feasible`;
    the repair sweep guarantees feasibility even when every pass is unlucky.
    """
    frac = fractional if fractional is not None else solve_lp(build_lp(inst))
    rng = np.random.default_rng(seed)
    rounded = round_until_feasible(inst, frac.values, rng, default_max_rounds(inst.graph))
    return repair(inst, rounded)
