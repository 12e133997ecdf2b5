"""Plain-numpy floor: the solver's forward-backward loop on one flat array.

Same arithmetic as `sifb.solver.run` on a lasso `sifb_instance` with
`record_every`, poly noise and poly inertia: extrapolate, one draw from the
same (seed, n) stream, soft-threshold, relax (lambda = 1 makes the relaxed
point the prox output, as in the solver), and the noise-free fixed-point
residual on recorded iterations. No block objects, no range checks, no trace
rows, so its time per iteration is the floor the solver's own overhead sits
on. It reproduces the solver's iteration count exactly, which the benchmark
checks.
"""

from __future__ import annotations

import numpy as np


def _soft(z, t):
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def fb_lasso_iterations(a, b, lam, gamma, seed, *, sigma0, theta, alpha0, q,
                        stop_tol, max_iter, record_every):
    """Iterations to `stop_tol` of the flat loop (max_iter if it never gets there)."""
    x = x_prev = np.zeros(a.shape[1])
    t = gamma * lam
    for n in range(max_iter + 1):
        if n % record_every == 0 or n == max_iter:
            z = x - gamma * (a.T @ (a @ x - b))
            d = x - _soft(z, t)
            if np.sqrt(d @ d) <= stop_tol:
                return n
        if n == max_iter:
            return max_iter
        alpha = alpha0 * (n + 1.0) ** (-q) if alpha0 else 0.0
        w = x if alpha == 0.0 else x + alpha * (x - x_prev)
        g = a.T @ (a @ w - b)
        sigma = sigma0 * (n + 1.0) ** (-theta) if sigma0 else 0.0
        if sigma != 0.0:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
            g = g + sigma * rng.standard_normal(g.shape[0])
        x_prev, x = x, _soft(w - gamma * g, t)
    return max_iter
