"""Independent reference solvers for the demo problems.

These provide the ground-truth solutions that the acceptance checks compare
against. They deliberately share no code with the solver modules: plain numpy
loops, dense eigendecompositions for step sizes, and their own stopping
rules. Never approximate silently: failure to reach the requested tolerance
raises.
"""

from __future__ import annotations

import numpy as np

from .errors import OracleError


def _top_eig(mat):
    return float(np.linalg.eigvalsh(mat)[-1])


def _prox_gradient(name, h, v, prox, tol, max_iter):
    """x <- prox(x - t (H x - v), t) from x = 0, with t = 1 / lambda_max(H).

    Stops when the fixed-point residual ||x_new - x|| falls below tol, and
    raises, naming the solver `name`, when max_iter iterations do not get there.
    """
    t = 1.0 / _top_eig(h)
    x = np.zeros(h.shape[0])
    for _ in range(max_iter):
        x_new = prox(x - t * (h @ x - v), t)
        if np.linalg.norm(x_new - x) <= tol:
            return x_new
        x = x_new
    raise OracleError(f"{name} did not reach tol={tol} in {max_iter} iterations")


def ista_lasso(a, b, lam, tol=1e-10, max_iter=500000):
    """Proximal gradient on 0.5 ||A x - b||^2 + lam ||x||_1.

    Stops when the fixed-point residual of the prox-gradient map falls below
    tol.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    return _prox_gradient("ista_lasso", a.T @ a, a.T @ b,
                          lambda z, t: np.sign(z) * np.maximum(np.abs(z) - t * lam, 0.0),
                          tol, max_iter)


def projected_gradient_box(q, c, lo, hi, tol=1e-12, max_iter=500000):
    """Projected gradient for min 0.5 x'Qx - c'x over the box [lo, hi]."""
    return _prox_gradient(
        "projected_gradient_box", np.asarray(q, dtype=np.float64),
        np.asarray(c, dtype=np.float64).reshape(-1),
        lambda z, t: np.minimum(np.maximum(z, lo), hi), tol, max_iter)


def huber_value(u, lam, mu):
    """The infimal convolution of (1/(2 mu))|.|^2 with lam |.|_1, elementwise."""
    u = np.asarray(u, dtype=np.float64)
    quad = u * u / (2.0 * mu)
    lin = lam * np.abs(u) - 0.5 * lam * lam * mu
    return float(np.where(np.abs(u) <= lam * mu, quad, lin).sum())


def huber_prox(z, step, lam, mu):
    """Closed-form prox of the smoothed absolute value, elementwise.

    Piecewise from the optimality condition: the quadratic region shrinks by
    mu/(mu+step), the linear region soft-thresholds by step*lam.
    """
    z = np.asarray(z, dtype=np.float64)
    inner = np.abs(z) <= lam * (mu + step)
    return np.where(inner, z * (mu / (mu + step)), z - step * lam * np.sign(z))


def smoothed_lasso_ista(a, b, lam, mu, tol=1e-10, max_iter=500000):
    """Proximal gradient on 0.5 ||A x - b||^2 + sum_j huber(x_j).

    Treats the smoothed separable term by its closed-form prox, so the step
    size does not degrade as mu -> 0. Stops on the prox-gradient fixed-point
    residual.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    return _prox_gradient("smoothed_lasso_ista", a.T @ a, a.T @ b,
                          lambda z, t: huber_prox(z, t, lam, mu), tol, max_iter)


def least_squares(a, b):
    """Minimum-norm least-squares fit, by dense factorization."""
    x, *_ = np.linalg.lstsq(np.asarray(a, dtype=np.float64),
                            np.asarray(b, dtype=np.float64).reshape(-1), rcond=None)
    return x
