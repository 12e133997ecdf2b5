"""Dense audit helpers the tests share; nothing in `sifb` needs them.

The solver never forms a stacked preconditioner, a weighted inner product or
a dense coupling: both primal-dual assemblies run block sweeps. The tests
cross-check those sweeps against the dense objects built here, at small
sizes. The solver also steps on flat arrays only; `step_blocks` and
`blockvector_instance` let a test step from, or sweep with, block vectors.
Import as `from audits import ...` (pytest puts `tests/` on the path).
"""

import numpy as np

from sifb import (
    BlockVector,
    ConfigurationError,
    InfeasibleProblemError,
    OracleError,
    Preconditioner,
    ProblemInstance,
    block_concat,
    block_split,
    step,
)
from sifb import oracles
from sifb.solver import Plan
from sifb.spaces import _offsets


def dense(op):
    """A BlockLinearOperator as one (sum dims_out, sum dims_in) array; None cells are zeros."""
    rows, cols = _offsets(op.dims_out), _offsets(op.dims_in)
    out = np.zeros((rows[-1], cols[-1]))
    for k, row in enumerate(op.entries):
        for i, cell in enumerate(row):
            if cell is None:
                continue
            block = out[rows[k]:rows[k + 1], cols[i]:cols[i + 1]]
            if cell.ndim:
                block[...] = cell
            else:
                np.fill_diagonal(block, cell)
    return out


def step_blocks(inst, cfg, state, n):
    """One `step` of inst under cfg at iteration n from a pair of block
    vectors, on the plan a run would compile; returns the new pair."""
    plan = Plan(inst, cfg.step_size(inst), cfg.relaxation)
    x, x_prev = (v.concatenated() for v in state)
    x_next, _ = step(plan, (x, x_prev), n, cfg.inertia.alpha(n), inst.oracle.noise.sigma(n))
    return BlockVector.from_flat(x_next, inst.x0.dims), state[0]


def blockvector_instance(oracle, x0, beta, backward_fn, gamma_fixed=None):
    """An instance whose backward map is backward_fn(w, gamma, r) on block vectors."""
    dims = x0.dims

    def bind_backward(gamma):
        return lambda w, r: backward_fn(BlockVector.from_flat(w, dims), gamma,
                                        BlockVector.from_flat(r, dims)).concatenated()

    return ProblemInstance(oracle, x0, beta, bind_backward, gamma_fixed)


def inverse(p):
    """The inverse of a diagonal Preconditioner, as a Preconditioner of the same kind."""
    return Preconditioner(p.kind, p.dims, [1.0 / w for w in p.diag_blocks()])


def loose_stop_prox_gradient(name, h, v, top, piece, tol):
    """The reference loop the accelerated one replaced, as a test oracle with
    `oracles._prox_gradient`'s signature: plain steps x <- prox(x - t (H x - v), t)
    from x = 0 to a step of at most max(tol, 1e-4), one polish on that step's
    piece, returned if its fixed-point residual is at most tol; otherwise plain
    steps on to a step of at most tol, returning the point it is taken from."""
    t = 1.0 / top

    def prox_step(x):
        z = x - t * (h @ x - v)
        d, e = piece(z, t)
        return d * z + e, d, e

    loose, polish = max(tol, 1e-4), True
    x = np.zeros(h.shape[0])
    for _ in range(oracles._MAX_ITER):
        x_new, d, e = prox_step(x)
        step = float(np.linalg.norm(x_new - x))
        if polish and step <= loose:
            polish = False
            try:
                y = oracles._polish(h, v, t, d, e)
            except np.linalg.LinAlgError:
                pass
            else:
                certificate = float(np.linalg.norm(y - prox_step(y)[0]))
                if certificate <= tol:
                    return y, certificate
        if step <= tol:
            return x, step
        x = x_new
    raise OracleError(f"{name} did not reach tol={tol} in {oracles._MAX_ITER} iterations")


class WeightedMetric:
    """The inner product (x, y) -> <x, W y> induced by a preconditioner W."""

    __slots__ = ("weight",)

    def __init__(self, weight):
        self.weight = weight

    def inner(self, x, y):
        return x.dot(self.weight.apply(y))

    def norm_sq(self, x):
        return x.dot(self.weight.apply(x))


def scalar_feasibility_constant(nu, mu, tau, sigma, coupling_norm):
    """Class-II constant for the all-scalar metric choice.

    With V = tau Id, W = sigma Id, C nu-cocoercive and D^{-1} mu-cocoercive in
    the plain metric, the constant is min(nu/tau, (mu/sigma)(1 - tau sigma
    ||L||^2)); positive for tau and sigma small enough.
    """
    for name, v in (("nu", nu), ("mu", mu), ("tau", tau), ("sigma", sigma)):
        if v <= 0:
            raise ConfigurationError(f"{name} must be positive, got {v}")
    return min(nu / tau, (mu / sigma) * (1.0 - tau * sigma * coupling_norm**2))


# ---------------------------------------------------------------------------
# dense stacked-metric actions of the two primal-dual assemblies
# ---------------------------------------------------------------------------


class _SchurActions:
    """Shared dense machinery behind the two stacked-metric actions."""

    def __init__(self, prob):
        self.prob = prob
        self.ld = dense(prob.coupling)
        self.v_diag = (np.concatenate(prob.V.diag_blocks())
                       if sum(prob.primal_dims) else np.zeros(0))
        self.w_diag = (np.concatenate(prob.W.diag_blocks())
                       if sum(prob.dual_dims) else np.zeros(0))
        schur = np.diag(1.0 / self.w_diag) - (self.ld * self.v_diag[None, :]) @ self.ld.T
        # positive definite exactly when ||sqrt(W) L sqrt(V)|| < 1
        try:
            np.linalg.cholesky(schur) if schur.size else None
        except np.linalg.LinAlgError as e:
            raise InfeasibleProblemError(
                "dual Schur complement is not positive definite; "
                "||sqrt(W) L sqrt(V)|| >= 1"
            ) from e
        self.schur = schur

    def _solve(self, rhs):
        if self.schur.size == 0:
            return rhs
        return np.linalg.solve(self.schur, rhs)

    def split(self, xy):
        x, v = block_split(xy, self.prob.m)
        return x.concatenated(), v.concatenated()

    def join(self, xf, vf):
        return block_concat(
            BlockVector.from_flat(xf, self.prob.primal_dims),
            BlockVector.from_flat(vf, self.prob.dual_dims),
        )

    def class1_apply(self, xy):
        # inverse of the block operator [[V^-1, -L*], [-L, W^-1]]
        a, b = self.split(xy)
        v = self._solve(b + self.ld @ (self.v_diag * a))
        x = self.v_diag * (a + self.ld.T @ v)
        return self.join(x, v)

    def class2_apply(self, xy):
        a, b = self.split(xy)
        return self.join(self.v_diag * a, self._solve(b))

    def class1_dense(self):
        n_p, n_d = self.ld.shape[1], self.ld.shape[0]
        up = np.zeros((n_p + n_d, n_p + n_d))
        up[:n_p, :n_p] = np.diag(1.0 / self.v_diag)
        up[:n_p, n_p:] = -self.ld.T
        up[n_p:, :n_p] = -self.ld
        up[n_p:, n_p:] = np.diag(1.0 / self.w_diag)
        return np.linalg.inv(up)

    def class2_dense(self):
        n_p, n_d = self.ld.shape[1], self.ld.shape[0]
        t = np.zeros((n_p + n_d, n_p + n_d))
        t[:n_p, :n_p] = np.diag(self.v_diag)
        t[n_p:, n_p:] = np.linalg.inv(self.schur)
        return t


def class1_metric_apply(prob):
    """Action of the class-I stacked metric, via the dual Schur solve."""
    actions = _SchurActions(prob)
    return actions.class1_apply


def class2_metric_apply(prob):
    """Action of the class-II stacked metric (block diagonal)."""
    actions = _SchurActions(prob)
    return actions.class2_apply


def dense_metrics(prob):
    """Both stacked metrics as dense matrices, for small cross-checks."""
    actions = _SchurActions(prob)
    return actions.class1_dense(), actions.class2_dense()
