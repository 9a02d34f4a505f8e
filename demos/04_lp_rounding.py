"""From the fractional relaxation to an integral set: rounding step by step.

The relaxation asks each closed neighborhood to sum to the vertex demand with
every membership variable boxed to [0, 1].  Rounding draws a uniform number
from [0, 0.5) per vertex and keeps the vertex when the draw lands below its
fractional value, so anything at 0.5 or above is a certain pick and smaller
values get a doubled chance.  Unioning a few passes and repairing the
leftovers always lands on a feasible set.
"""
import statistics
from fractions import Fraction

import numpy as np

from alphadom import (DominatingSet, DominationInstance, Strategy, WeightSpec, assign_weights,
                      brute_force_opt, build_lp, certify, default_max_rounds, gen_gnm,
                      greedy_dominate, is_feasible, randomized_rounding, repair,
                      round_once, round_until_feasible, solve_lp)

g = assign_weights(gen_gnm(12, 30, seed=5), WeightSpec(1, 71), seed=6)
inst = DominationInstance(g, Fraction(1, 2))
lp = build_lp(inst)
frac = solve_lp(lp)

print("fractional optimum:", np.round(frac.values, 3))
print("objective:", round(frac.objective_value, 3))
print(f"HiGHS {frac.backend} iterations:", frac.iterations)
check = certify(lp, frac)
print("exact certificate (rationalized primal against the safe dual bound):",
      f"objective={check.objective} bound={check.lower_bound} "
      f"feasible={check.feasible} certified={check.certified}")

opt = brute_force_opt(inst)
print("integer optimum:", opt.opt_weight,
      f"(relaxation is a lower bound: {frac.objective_value:.2f} <= {opt.opt_weight})")

print("\nsingle rounding passes (draws from [0, 0.5)):")
rng = np.random.default_rng(7)
for trial in range(3):
    picked = round_once(frac.values, rng)
    d = DominatingSet.from_members(g, picked)
    print(f"  pass {trial}: size={len(d)} weight={d.total_weight} "
          f"feasible={is_feasible(inst, d)}")

print("\nrepair tops up whatever a bad set is missing, lightest first:")
fixed = repair(inst, DominatingSet.empty())
print(f"  repair(empty) -> size={len(fixed)} weight={fixed.total_weight} "
      f"feasible={is_feasible(inst, fixed)}; it is greedy S1's scan: "
      f"{fixed.members == greedy_dominate(inst, Strategy.S1).members}")

rounds = default_max_rounds(g)
print(f"\nthe pass loop: union up to {rounds} passes, stop at the first feasible union")
union = round_until_feasible(inst, frac.values, np.random.default_rng(3), rounds)
same = repair(inst, union).members == randomized_rounding(inst, 3, fractional=frac).members
print(f"  seed 3: union size={len(union)} feasible={is_feasible(inst, union)}; "
      f"after repair it is randomized_rounding(inst, 3): {same}")

print(f"\nfull amplified run (up to {rounds} passes, early exit, then repair):")
weights = []
for seed in range(200):
    d = randomized_rounding(inst, seed)
    assert is_feasible(inst, d)
    weights.append(d.total_weight)
print(f"  200 seeds: min={min(weights)} mean={statistics.fmean(weights):.1f} "
      f"max={max(weights)} vs exact optimum {opt.opt_weight}")
