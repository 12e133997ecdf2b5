#!/usr/bin/env python3
"""Tour of the operator toolbox.

Walks through the proximity catalogue and the subdifferential distance that
certifies each prox point, the Moreau decomposition, resolvents in weighted
metrics, and the cocoercivity audit that certifies forward-step constants
before a solver ever runs.
"""

import numpy as np

from sifb import (
    BlockVector,
    CocoerciveMap,
    MonotoneBlock,
    Preconditioner,
    ProxFunction,
    check_cocoercivity,
    moreau_check,
    prox_conjugate,
    prox_weighted,
)
from sifb.operators import subdiff_distance

rng = np.random.default_rng(0)

print("== proximity catalogue ==")
print("at unit step, p = prox_f(x) exactly when x - p is in the subdifferential of f at p:")
x = np.array([3.0, -0.4, 1.2])
for f in (ProxFunction.zero(), ProxFunction.l1(1.0), ProxFunction.squared_l2(1.0, 0.0),
          ProxFunction.box(-1, 1), ProxFunction.linf_ball(0.5), ProxFunction.affine(0.2)):
    p = f.prox(x, 1.0)
    print(f"{f!r:42s} prox({x}) = {p}, distance {subdiff_distance(f, p, x - p):.1e}")

print("\n== Moreau decomposition at unit step ==")
print("prox_f(x) + prox_{f*}(x) recovers x for every conjugate pair:")
for f in (ProxFunction.l1(0.7), ProxFunction.squared_l2(1.3, 0.4),
          ProxFunction.linf_ball(0.9)):
    res = max(moreau_check(f, rng.uniform(-4, 4, 8)) for _ in range(100))
    print(f"  {f.family:10s} worst residual over 100 draws: {res:.2e}")

print("\n== prox in a weighted metric ==")
# a diagonal metric rescales the effective threshold coordinate-wise
metric = Preconditioner.diagonal([[2.0, 0.5]])
v = BlockVector([[3.0, 3.0]])
shrunk = prox_weighted(ProxFunction.l1(1.0), metric, v)
print(f"l1 prox of {v.blocks[0]} under diag(2, 0.5): {shrunk.blocks[0]}")
print("(weight 2 shrinks by 0.5, weight 0.5 shrinks by 2)")

print("\n== conjugate prox: closed form vs decomposition ==")
g = ProxFunction.squared_l2(2.0, 0.3)
sigma = Preconditioner.scalar([1.7], (4,))
t = BlockVector([rng.uniform(-2, 2, 4)])
closed = prox_conjugate(g, sigma, t)
w = sigma.diag_blocks()[0]
decomp = BlockVector([t.blocks[0] - w * g.prox(t.blocks[0] / w, 1.0 / w)])
print(f"two paths agree to {(closed - decomp).norm():.2e}")

print("\n== resolvents in a weighted metric ==")
a = MonotoneBlock.subdiff([ProxFunction.l1(1.0)])
u = Preconditioner.diagonal([[0.5]])
p = a.resolvent(2.0, u, BlockVector([[3.0]]))
print(f"J with step 2 and metric weight 0.5 maps 3.0 to {p.blocks[0][0]}")
print("(effective threshold is step * weight = 1)")

print("\n== cocoercivity audit ==")
a_mat = rng.standard_normal((30, 12))
grad = CocoerciveMap.least_squares_gradient(a_mat, rng.standard_normal(30))
print(f"data-fit gradient, certified constant {grad.beta:.5f} "
      f"(exact {grad.beta_exact:.5f} before the safety deflation)")
ok = check_cocoercivity(grad, trials=100, seed=1)
bad = check_cocoercivity(grad, trials=100, seed=1, beta=1.05 * grad.beta)
print(f"audit at the advertised constant: pass={ok.passed} "
      f"(min slack {ok.min_slack:.2e})")
print(f"audit at 1.05x the constant:      pass={bad.passed} "
      f"(min slack {bad.min_slack:.2e})")
