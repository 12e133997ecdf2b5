"""Dense audit helpers the tests share; nothing in `sifb` needs them.

The solver never forms a stacked preconditioner, a weighted inner product or
a dense coupling: both primal-dual assemblies run block sweeps. The tests
cross-check those sweeps against the dense objects built here, at small
sizes. Import as `from audits import ...` (pytest puts `tests/` on the path).
"""

import numpy as np

from sifb import (
    BlockVector,
    ConfigurationError,
    InfeasibleProblemError,
    Preconditioner,
    block_concat,
    block_split,
)
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


def inverse(p):
    """The inverse of a diagonal Preconditioner, as a Preconditioner of the same kind."""
    return Preconditioner(p.kind, p.dims, [1.0 / w for w in p.diag_blocks()])


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
