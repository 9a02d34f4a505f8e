"""Exact reference computations: brute-force optimum and Poisson-binomial tails.

Everything here exists to give the test and acceptance suites ground truth at
desk scale.  None of the solvers call into this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import DominatingSet, DominationInstance

BRUTE_FORCE_LIMIT = 22
TAIL_SLACK = 1e-12  # float error that check_theorem_half forgives below 1/2


class InstanceTooLargeError(ValueError):
    """Raised when an exhaustive enumeration would exceed the hard guard."""


@dataclass(frozen=True)
class OracleResult:
    opt_weight: int
    opt_set: DominatingSet


def brute_force_opt(inst: DominationInstance) -> OracleResult:
    """Minimum-weight feasible subset by exhaustive enumeration.

    Walks all 2^n subsets in Gray-code order so each step flips one vertex
    and updates coverage incrementally.  Ties break by smaller cardinality,
    then lexicographically smallest sorted member tuple.  Guarded to
    n <= 22.
    """
    g = inst.graph
    n = g.n
    if n > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(f"n={n} exceeds brute-force guard {BRUTE_FORCE_LIMIT}")

    demands = inst.demand_array().tolist()
    closed = [list(g.closed_neighborhood(v)) for v in range(n)]
    weights = g.weights

    cover = [0] * n
    deficits = sum(1 for v in range(n) if demands[v] > 0)  # empty set: all short
    weight = 0
    mask = 0
    best_weight = math.inf
    best_card = math.inf
    best_members: tuple[int, ...] | None = None

    if deficits == 0:  # only possible for n == 0
        return OracleResult(0, DominatingSet.empty())

    for step in range(1, 1 << n):
        v = (step & -step).bit_length() - 1  # Gray code: flip lowest set bit of step
        bit = 1 << v
        if mask & bit:
            mask ^= bit
            weight -= weights[v]
            for u in closed[v]:
                c = cover[u] - 1
                cover[u] = c
                if c == demands[u] - 1:
                    deficits += 1
        else:
            mask ^= bit
            weight += weights[v]
            for u in closed[v]:
                c = cover[u] + 1
                cover[u] = c
                if c == demands[u]:
                    deficits -= 1
        if deficits:
            continue
        card = bin(mask).count("1")
        if weight > best_weight:
            continue
        if weight == best_weight:
            if card > best_card:
                continue
            if card == best_card:
                members = tuple(v for v in range(n) if mask >> v & 1)
                if members >= best_members:
                    continue
                best_members = members
                continue
        best_weight = weight
        best_card = card
        best_members = tuple(v for v in range(n) if mask >> v & 1)

    assert best_members is not None  # D = V is always feasible
    return OracleResult(int(best_weight),
                        DominatingSet.from_members(g, best_members))


def poisson_binomial_pmf(probs) -> np.ndarray:
    """Exact pmf of a sum of independent Bernoulli trials, length len(probs)+1."""
    pmf = np.array([1.0])
    for p in probs:
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


def poisson_binomial_tail(probs, k: int) -> float:
    """Exact P(X >= k) for X a sum of independent Bernoulli(p_i) trials.

    Dynamic program over trials with the state capped at k successes, so the
    cost is O(len(probs) * k) and the k-th cell absorbs all mass at or above
    the threshold.
    """
    d = len(probs)
    if k <= 0:
        return 1.0
    if k > d:
        return 0.0
    dp = np.zeros(k + 1)
    dp[0] = 1.0
    for p in probs:
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        dp[k] += dp[k - 1] * p
        dp[1:k] = dp[1:k] * (1.0 - p) + dp[0:k - 1] * p
        dp[0] *= 1.0 - p
    return float(dp[k])


def check_theorem_half(probs, k: int) -> bool:
    """Validate the at-least-one-half coverage tail on one parameter vector.

    Requires sum(probs) >= k.  Returns True when the exact tail P(X >= k)
    clears 1/2 (within :data:`TAIL_SLACK`); a False return signals an
    implementation bug somewhere, not an expected outcome.
    """
    total = math.fsum(float(p) for p in probs)
    if total < k - 1e-9:
        raise ValueError(f"sum of probabilities {total} below threshold {k}")
    return poisson_binomial_tail(probs, k) >= 0.5 - TAIL_SLACK
