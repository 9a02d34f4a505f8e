"""Randomized rounding of the covering relaxation, with amplification and repair.

The relaxation is solved once; its optimum is rounded independently per
vertex in up to ceil(log2(max degree)) passes, unioning the passes until the
accumulated set is feasible.  A deterministic repair sweep then fills any
remaining per-vertex shortfall, so the returned set is feasible for every
seed.  Every draw comes from [0, THRESHOLD_UPPER) rather than [0, 1), which
inflates each inclusion probability to min(1, x / THRESHOLD_UPPER): any
fractional value of at least one half is a certain pick.  The same pass loop,
:func:`round_until_feasible`, serves the per-community rounding of
:mod:`alphadom.community`.
"""
from __future__ import annotations

import numpy as np

from .graph import (DominatingSet, DominationInstance, WeightedGraph,
                    coverage_counts, is_feasible)
from .lp import FractionalSolution, build_lp, solve_lp


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


def round_until_feasible(inst: DominationInstance, values: np.ndarray,
                         rng: np.random.Generator, rounds: int) -> DominatingSet:
    """Union up to ``rounds`` passes of :func:`round_once`, stopping at the
    first union that is feasible.  The result may still fall short."""
    g = inst.graph
    accumulated = DominatingSet.empty()
    for _ in range(rounds):
        for v in round_once(values, rng):
            accumulated.add(g, int(v))
        if is_feasible(inst, accumulated):
            break
    return accumulated


def repair(inst: DominationInstance, candidate: DominatingSet) -> DominatingSet:
    """Deterministically top up every uncovered vertex.

    Scans vertices in ascending index order, recomputing coverage as members
    are added; each shortfall of l is filled with the l lowest-weight
    non-members of the closed neighborhood (ties to the lower index).  The
    input set is not modified.
    """
    g = inst.graph
    out = candidate.copy()
    cover = coverage_counts(g, out)
    for v in range(g.n):
        short = inst.demands[v] - int(cover[v])
        if short <= 0:
            continue
        pool = [u for u in g.adjacency[v] if u not in out]
        if v not in out:
            pool.append(v)
        pool.sort(key=lambda u: (g.weights[u], u))
        for u in pool[:short]:
            out.add(g, u)
            cover[g.closed_neighborhood(u)] += 1
    return out


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
