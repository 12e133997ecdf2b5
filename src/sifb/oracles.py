"""Independent reference solvers for the demo problems.

These provide the ground-truth solutions that the acceptance checks compare
against. They deliberately share no code with the solver modules: plain numpy
loops and dense eigenvalue solves for step sizes. Never approximate silently:
failure to reach the requested tolerance raises.

Each solver returns its point and a certificate. The three proximal-gradient
solvers run accelerated proximal gradient (FISTA's momentum sequence, Beck
and Teboulle 2009) on x = prox(x - t (H x - v), t). Their proxes are
separable and piecewise affine, and they polish when the piece repeats:
whenever the prox's affine piece at a step equals the previous step's and
is not the last one tried, one linear solve gives the fixed point of the map
with the prox held on that piece (for the lasso, the normal equations on the
support with its signs). The polished point is returned if its own
fixed-point residual ||x - prox(x - t (H x - v), t)|| is at most tol;
otherwise the loop goes on until a step of at most tol, and returns the
point the step is taken from, whose residual the step is. The certificate is
the fixed-point residual of the returned point: a point with certificate 0
is exactly optimal. The polish reads only the piece, so the point is the one
a plain loop polishing once at a step of 1e-4 returns whenever that loop
polishes on the settled piece; where its one polish is refused, a later
piece is polished here (parallel_sum dims 34, mu 0.5, lam 0.2, seed 4:
certificate 7.5e-16, not the plain loop's 8.9e-11 at a step of tol). The
least-squares solver's certificate is its normal-equation residual
||A'(A x - b)||.

The step is 1 / lambda_max of the Hessian; for the two lasso solvers that is
`gram_top(a)`, which a demo that already holds it may pass in as `top`.

The solvers run at whatever BLAS thread count their caller set. The demos
call them at one thread (`problems.certified_reference` and
`DemoProblem.gram_top`), so a demo's reference and its certificate do not
depend on the thread count.
"""

from __future__ import annotations

import numpy as np

from .errors import OracleError

# iterations a reference solve may take before it raises OracleError
_MAX_ITER = 500000


def _top_eig(mat):
    return float(np.linalg.eigvalsh(mat)[-1])


def gram_top(a, gram=None):
    """lambda_max of A'A, from the smaller of A'A and AA' (the same value);
    gram, when given, is A'A."""
    if a.shape[0] < a.shape[1]:
        return _top_eig(a @ a.T)
    return _top_eig(a.T @ a if gram is None else gram)


def _polish(h, v, t, d, e):
    """The fixed point of x = d (x - t (H x - v)) + e, elementwise d in [0, 1]:
    the prox-gradient map with the prox held on its affine piece d z + e.

    Where d = 0, x = e. On the other entries, divided by t d, the fixed point
    solves (H + diag((1 - d) / (t d))) x = v + e / (t d), the rest held at e.
    Raises numpy's LinAlgError when that system is singular.
    """
    x = e.copy()
    free = d > 0
    if free.any():
        df, rows = d[free], h[free]
        lhs = rows[:, free] + np.diag((1.0 - df) / (t * df))
        rhs = v[free] + e[free] / (t * df) - rows[:, ~free] @ e[~free]
        x[free] = np.linalg.solve(lhs, rhs)
    return x


def _prox_gradient(name, h, v, top, piece, tol):
    """Accelerated proximal gradient (FISTA) on x = prox(x - t (H x - v), t) from
    x = 0, with t = 1 / top, top = lambda_max(H), polished whenever the prox's
    piece repeats; (point, certificate) as the module says.

    piece(z, t) is the affine piece (d, e) of the prox at z: prox(z, t) = d z + e.
    A step from y is ||prox(y - t (H y - v), t) - y||, the fixed-point residual of
    y; the loop polishes on a step's piece when it equals the previous step's and
    differs from the last piece polished on. Raises, naming the solver `name`,
    when _MAX_ITER steps reach neither a polished point nor a step of tol.
    """
    t = 1.0 / top

    def prox_step(x):
        z = x - t * (h @ x - v)
        d, e = piece(z, t)
        return d * z + e, d, e

    def same(p, q):
        return q is not None and np.array_equal(p[0], q[0]) and np.array_equal(p[1], q[1])

    x = y = np.zeros(h.shape[0])
    s, last, tried = 1.0, None, None
    for _ in range(_MAX_ITER):
        x_new, d, e = prox_step(y)
        step = float(np.linalg.norm(x_new - y))
        if same((d, e), last) and not same((d, e), tried):
            tried = (d, e)
            try:
                polished = _polish(h, v, t, d, e)
            except np.linalg.LinAlgError:
                pass
            else:
                certificate = float(np.linalg.norm(polished - prox_step(polished)[0]))
                if certificate <= tol:
                    return polished, certificate
        if step <= tol:
            return y, step
        last = (d, e)
        s_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * s * s))
        y = x_new + ((s - 1.0) / s_new) * (x_new - x)
        x, s = x_new, s_new
    raise OracleError(f"{name} did not reach tol={tol} in {_MAX_ITER} iterations")


def ista_lasso(a, b, lam, tol, top=None):
    """Proximal gradient on 0.5 ||A x - b||^2 + lam ||x||_1, polished on its
    support; (x, certificate). top is `gram_top(a)`, computed when None."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)

    def piece(z, t):
        # soft thresholding: z - t lam sign(z) where |z| > t lam, 0 elsewhere
        live = np.abs(z) > t * lam
        return live.astype(np.float64), np.where(live, -t * lam * np.sign(z), 0.0)

    gram = a.T @ a
    top = gram_top(a, gram) if top is None else top
    return _prox_gradient("ista_lasso", gram, a.T @ b, top, piece, tol)


def projected_gradient_box(q, c, lo, hi, tol):
    """Projected gradient for min 0.5 x'Qx - c'x over the box [lo, hi],
    polished on its free set; (x, certificate)."""
    q = np.asarray(q, dtype=np.float64)

    def piece(z, t):
        # projection: z inside the box, the bound it crosses outside
        inside = (z > lo) & (z < hi)
        return inside.astype(np.float64), np.where(z <= lo, lo, np.where(z >= hi, hi, 0.0))

    return _prox_gradient("projected_gradient_box", q,
                          np.asarray(c, dtype=np.float64).reshape(-1), _top_eig(q),
                          piece, tol)


def huber_value(u, lam, mu):
    """The infimal convolution of (1/(2 mu))|.|^2 with lam |.|_1, elementwise."""
    u = np.asarray(u, dtype=np.float64)
    quad = u * u / (2.0 * mu)
    lin = lam * np.abs(u) - 0.5 * lam * lam * mu
    return float(np.where(np.abs(u) <= lam * mu, quad, lin).sum())


def smoothed_lasso_ista(a, b, lam, mu, tol, top=None):
    """Proximal gradient on 0.5 ||A x - b||^2 + sum_j huber(x_j), polished on
    its pieces; (x, certificate). top is `gram_top(a)`, computed when None.

    Treats the smoothed separable term by its closed-form prox, so the step
    size does not degrade as mu -> 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)

    def piece(z, t):
        # closed form, from the optimality condition: the quadratic region
        # shrinks by mu/(mu+t), the linear region soft-thresholds by t*lam
        inner = np.abs(z) <= lam * (mu + t)
        return (np.where(inner, mu / (mu + t), 1.0),
                np.where(inner, 0.0, -t * lam * np.sign(z)))

    gram = a.T @ a
    top = gram_top(a, gram) if top is None else top
    return _prox_gradient("smoothed_lasso_ista", gram, a.T @ b, top, piece, tol)


def least_squares(a, b):
    """Minimum-norm least-squares fit, by dense factorization; (x, certificate),
    the certificate being the normal-equation residual ||A'(A x - b)||."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x, float(np.linalg.norm(a.T @ (a @ x - b)))
