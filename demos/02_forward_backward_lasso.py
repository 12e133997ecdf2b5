#!/usr/bin/env python3
"""Forward-backward on a lasso instance: deterministic, inertial, stochastic.

Builds one synthetic instance, solves it three ways with the same core loop,
and compares everything against an independent proximal-gradient oracle. The
stochastic run keeps the conditions the convergence guarantee needs: unbiased
draws, summable noise variance, summable inertia.
"""

from sifb import InertiaSchedule, NoiseSchedule, SolverConfig, run
from sifb.problems import build_lasso, objective, reference_oracle, sifb_instance

demo = build_lasso(n=20, p=30, lam=0.1, cond=100.0, seed=42)
ref = reference_oracle(demo, tol=1e-10)
print(f"instance: 20x30 data matrix, condition 100, lam=0.1")
print(f"oracle objective: {objective(demo, ref):.10f}\n")

print("== deterministic run ==")
inst = sifb_instance(demo)
cfg = SolverConfig(beta=inst.beta, max_iter=100000, stop_tol=1e-9)
x, trace = run(inst, cfg, reference=ref)
print(f"status={trace.status} after {trace.iterations} iterations, "
      f"distance to oracle {(x - ref).norm():.2e}")

print("\n== with heavy-ball extrapolation (geometric, summable) ==")
cfg_inertial = SolverConfig(beta=inst.beta, max_iter=100000, stop_tol=1e-9,
                            inertia=InertiaSchedule.geometric(0.3, 0.9))
x_in, trace_in = run(inst, cfg_inertial, reference=ref)
print(f"status={trace_in.status} after {trace_in.iterations} iterations, "
      f"distance to oracle {(x_in - ref).norm():.2e}")

print("\n== stochastic run ==")
noise = NoiseSchedule.polynomial(0.25, 0.75)   # sum sigma_n^2 finite
inertia = InertiaSchedule.polynomial(0.5, 1.5)  # sum alpha_n finite
ok = noise.violation() is None and inertia.violation() is None
print(f"schedule validation ok: {ok}")
inst_s = sifb_instance(demo, noise=noise, seed=7)
cfg_s = SolverConfig(beta=inst_s.beta, max_iter=50000, stop_tol=1e-4,
                     inertia=inertia, record_every=25)
x_s, trace_s = run(inst_s, cfg_s, reference=ref)
print(f"status={trace_s.status} after {trace_s.iterations} iterations, "
      f"noise-free residual {trace_s.final_residual:.2e}, "
      f"distance to oracle {(x_s - ref).norm():.2e}")

print("\nfirst and last recorded rows (n, residual, step norm, dist):")
for row in (trace_s.rows[0], trace_s.rows[-1]):
    print(f"  n={row.n:<6d} fp={row.fp_residual:.3e} "
          f"step={row.step_norm:.3e} dist={row.dist_to_ref:.3e}")

with open("lasso_trace.csv", "w", encoding="utf-8") as f:
    trace_s.to_csv(f)
print("\nwrote lasso_trace.csv (schema: n,fp_residual,step_norm,"
      "dist_to_ref,sigma_n,alpha_n)")
