#!/usr/bin/env python3
"""Multi-seed sweep: an empirical stand-in for almost-sure convergence.

Runs twenty independent replicas of the stochastic solver with seeds derived
from one master seed, prints the per-seed outcomes, and shows the schedule
gate rejecting a noise decay too slow for the variance budget.
"""

import numpy as np

from sifb import (
    InertiaSchedule,
    NoiseSchedule,
    SolverConfig,
    derive_seeds,
    run,
)
from sifb.problems import build_lasso, reference_oracle, sifb_instance

demo = build_lasso(20, 30, lam=0.1, cond=100.0, seed=42)
ref = reference_oracle(demo, tol=1e-10)
noise = NoiseSchedule.polynomial(0.25, 0.75)
inertia = InertiaSchedule.polynomial(0.5, 1.5)

print("== schedule gate ==")
print(f"theta=0.75, q=1.5 -> ok={noise.violation() is None and inertia.violation() is None}")
too_slow = NoiseSchedule.polynomial(0.25, 0.4)
print(f"theta=0.40, q=1.5 -> ok={too_slow.violation() is None} "
      f"({too_slow.CONDITION}: {too_slow.violation()})")

print("\n== twenty replicas, seeds split from master 2024 ==")
print(f"{'seed':>22s} {'status':>10s} {'iters':>7s} {'residual':>10s} {'dist':>10s}")
iters = []
for seed in derive_seeds(2024, 20):
    inst = sifb_instance(demo, noise=noise, seed=seed)
    cfg = SolverConfig(beta=inst.beta, max_iter=50000, stop_tol=1e-4,
                       inertia=inertia, record_every=25)
    x, trace = run(inst, cfg)
    iters.append(trace.iterations)
    print(f"{seed:>22d} {trace.status:>10s} {trace.iterations:>7d} "
          f"{trace.final_residual:>10.2e} {(x - ref).norm():>10.2e}")

print(f"\nmedian iterations to tolerance: {int(np.median(iters))}")
print("the same experiment runs from a config file via:")
print("  sifb sweep config.json --seeds 20 --jobs 4")
