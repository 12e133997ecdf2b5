"""Structured primal-dual problems and their two product-space assemblies.

A problem couples m primal blocks (operator A_i, shift z_i, metric V_i) and s
dual blocks (operator B_k, single-valued D_k^{-1}, shift r_k, metric W_k)
through a block linear map L, plus a cocoercive smooth coupling C over the
primal blocks. Stacking primal and dual variables turns it into a plain
monotone inclusion that the core solver handles; the two assemblies differ in
the product-space preconditioner.

Neither stacked preconditioner is ever formed. Class I realizes its backward
map by the explicit resolvent/reflection sweep over blocks; class II (all
primal operators zero) by a forward-substitution sweep whose dual solve is
the only implicit piece. Both sweeps work on the per-block numpy arrays
(`BlockLinearOperator.apply_blocks`, `Preconditioner.apply_blocks`) and build
one `BlockVector` per call; they update the temporaries they create in
place, and skip the subtraction of a shift block z_i or r_k that is all
+0.0 (`_shifts`, decided at assembly), so every bit stays as it was. Their
resolvents J_{V A_i} and J_{W B_k^-1} are kernels bound once, at assembly,
to the diagonals of V and W at the fixed step 1 (`MonotoneBlock.bind`). A
coupling cell may be a number s, meaning s times the identity (the identity
rows of a fully split problem): its product adds s x, which equals the dense
product with s I bit for bit for finite x. The coupling norm
c = ||sqrt(W) L sqrt(V)|| behind both assemblies' gates is computed once per
problem (`PrimalDualProblem.coupling_norm`), however often
`compute_constants` asks for it. The optimality residuals take one graph
distance per block from each operator (`MonotoneBlock.distances`); which rule
or family a block has is known only to `operators`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatch, InfeasibleProblemError
from .operators import CocoerciveMap
from .solver import ProblemInstance
from .spaces import BlockVector, block_split, estimate_weighted_norm
from .stochastic import StochasticOracle

# Feasibility thresholds use a strict margin to avoid boundary flakiness.
_FEAS_MARGIN = 1e-9


class PrimalDualProblem:
    """The full coupled-inclusion data set.

    primal_ops / dual_inverse are blockwise monotone operators; dual_inverse
    holds the INVERSES B_k^{-1} as resolvent rules (conjugate subdifferentials
    for catalogue functions). smooth is the coupling C with constant nu0
    relative to V; dual_smooth is D^{-1} with constant mu0 relative to W.
    """

    def __init__(self, primal_ops, z, V, dual_inverse, r, W, coupling,
                 smooth=None, dual_smooth=None, nu0=None, mu0=None):
        self.primal_ops = primal_ops
        self.z = z
        self.V = V
        self.dual_inverse = dual_inverse
        self.r = r
        self.W = W
        self.coupling = coupling
        self.primal_dims = V.dims
        self.dual_dims = W.dims
        if z.dims != self.primal_dims:
            raise DimensionMismatch(f"z dims {z.dims} != primal dims {self.primal_dims}")
        if r.dims != self.dual_dims:
            raise DimensionMismatch(f"r dims {r.dims} != dual dims {self.dual_dims}")
        if coupling.dims_in != self.primal_dims or coupling.dims_out != self.dual_dims:
            raise DimensionMismatch(
                f"coupling maps {coupling.dims_in}->{coupling.dims_out}, expected "
                f"{self.primal_dims}->{self.dual_dims}"
            )
        primal_ops.check_dims(self.primal_dims, "primal")
        dual_inverse.check_dims(self.dual_dims, "dual")
        self.smooth = smooth if smooth is not None else CocoerciveMap.zero_map(self.primal_dims)
        self.dual_smooth = (dual_smooth if dual_smooth is not None
                            else CocoerciveMap.zero_map(self.dual_dims))
        self.nu0 = float(nu0) if nu0 is not None else self.smooth.beta
        self.mu0 = float(mu0) if mu0 is not None else self.dual_smooth.beta
        if not self.nu0 > 0 or not self.mu0 > 0:
            raise ConfigurationError(
                f"cocoercivity constants must be positive (nu0={self.nu0}, mu0={self.mu0})"
            )
        self._norm = None

    def coupling_norm(self):
        """c = ||sqrt(W) L sqrt(V)||, one eigensolve per (coupling, V, W).

        The three are immutable, so c is kept in a one-slot cache keyed on
        their identity; a copy whose coupling, V or W is replaced computes its
        own. A NormEstimationError is not cached: the next call raises again.
        """
        key = (self.coupling, self.V, self.W)
        if self._norm is None or any(a is not b for a, b in zip(self._norm, key)):
            self._norm = key + (estimate_weighted_norm(*key),)
        return self._norm[3]

    @property
    def m(self):
        return len(self.primal_dims)

    @property
    def stacked_dims(self):
        return self.primal_dims + self.dual_dims

    def smooth_pair_map(self, beta):
        """The stacked map (x, v) -> (C x, D^{-1} v) with an attached constant."""
        return CocoerciveMap.paired(self.smooth, self.dual_smooth, beta=beta)


@dataclass
class ConstantsReport:
    """Feasibility constants of the two assemblies."""

    c: float                 # ||sqrt(W) L sqrt(V)||
    xi_hat: float            # optimal balance parameter (`optimal_balance`)
    beta_hat: float          # best class-I constant
    beta: float              # class-II constant
    feasible_class1: bool    # beta_hat > 1/2
    feasible_class2: bool    # 2 beta > 1


def beta_for_balance(nu0, mu0, c, xi):
    """The class-I constant produced by one balance parameter xi > 0."""
    if xi <= 0:
        raise ConfigurationError(f"balance parameter must be positive, got {xi}")
    return (1.0 - c * c) * min(nu0 / (1.0 + xi * c), mu0 / (1.0 + c / xi))


def optimal_balance(nu0, mu0, c):
    """The xi maximizing beta_for_balance: inf when only nu0 is infinite and 0
    when only mu0 is (the limit where the other term alone counts), nan when
    c = 0 or both are infinite (no xi is singled out)."""
    if c == 0.0 or not (np.isfinite(nu0) or np.isfinite(mu0)):
        return float("nan")
    if not np.isfinite(nu0):
        return float("inf")
    if not np.isfinite(mu0):
        return 0.0
    if nu0 == mu0:
        # the discriminant collapses to (2 c nu0)^2; keep the value exact
        return 1.0
    disc = math.sqrt((mu0 - nu0) ** 2 + 4.0 * c * c * nu0 * mu0)
    return (nu0 - mu0 + disc) / (2.0 * mu0 * c)


def compute_constants(prob):
    """Norm, optimal balance, and both feasibility constants for a problem.

    The norm comes from `prob.coupling_norm()`, so repeated calls on one
    problem (validation, then each assembly) share one eigensolve; c >= 1
    raises InfeasibleProblemError on every call.
    """
    c = prob.coupling_norm()
    if c >= 1.0:
        raise InfeasibleProblemError(
            f"||sqrt(W) L sqrt(V)|| = {c:.6g} >= 1; the stacked preconditioners "
            "degenerate and no constant is positive"
        )
    nu0, mu0 = prob.nu0, prob.mu0
    one_m_c2 = 1.0 - c * c
    xi_hat = optimal_balance(nu0, mu0, c)
    if c > 0.0 and np.isfinite(nu0) and np.isfinite(mu0):
        beta_hat = beta_for_balance(nu0, mu0, c, xi_hat)
    else:
        # at c = 0 the factor 1 - c^2 is exactly 1, and an infinite constant
        # drops its term of beta_for_balance's minimum
        beta_hat = one_m_c2 * min(nu0, mu0)
    beta = min(nu0, mu0 * one_m_c2)
    return ConstantsReport(
        c=c,
        xi_hat=xi_hat,
        beta_hat=beta_hat,
        beta=beta,
        feasible_class1=beta_hat > 0.5 + _FEAS_MARGIN,
        feasible_class2=2.0 * beta > 1.0 + _FEAS_MARGIN,
    )


def extract_primal_dual(x_stacked, prob):
    """Undo the stacking: (primal blocks, dual blocks)."""
    if x_stacked.dims != prob.stacked_dims:
        raise DimensionMismatch(
            f"stacked dims {x_stacked.dims} != problem dims {prob.stacked_dims}"
        )
    return block_split(x_stacked, prob.m)


def _check_stacked(dims, u, a):
    """Refuse a sweep's iterate u or draw a unless both have the stacked dims."""
    for name, x in (("iterate", u), ("draw", a)):
        if x.dims != dims:
            raise DimensionMismatch(f"{name} dims {x.dims} != stacked dims {dims}")


def _shifts(v):
    """The blocks of a shift z or r, None where a block is all +0.0.

    x - (+0.0) is x bit for bit for every x, -0.0 and NaN included, so the
    sweeps skip those subtractions; a block holding -0.0 is kept.
    """
    return [None if not (b.any() or np.signbit(b).any()) else b for b in v.blocks]


def _minus_draw(xs, draws, shifts):
    """(x - draw) - shift per block, in the fresh arrays xs; a None shift is skipped."""
    for x, b, s in zip(xs, draws, shifts):
        x -= b
        if s is not None:
            x -= s
    return xs


def assemble_class1(prob, noise=None, seed=0):
    """Stacked instance whose unit-step backward map is the class-I sweep.

    One solver step reproduces, blockwise: primal resolvents at the
    extrapolated point, reflection, then dual resolvents against the
    reflected primal. Requires the class-I constant > 1/2.

    The sweep works on the block arrays of u = (c, d) and of the draw
    a = (a_p, b_d), applies the resolvent kernels bound here, and wraps one
    `BlockVector` at the end:
        p = J_{V A}(c - V (L* d + a_p - z)),
        q = J_{W B^-1}(d + W (L (2 p - c) - b_d - r)).
    """
    rep = compute_constants(prob)
    if not rep.feasible_class1:
        raise InfeasibleProblemError(
            f"class-I assembly requires beta_hat > 1/2; got beta_hat={rep.beta_hat:.6g}"
        )
    oracle = StochasticOracle(prob.smooth_pair_map(beta=rep.beta_hat), noise=noise,
                              rng_seed=seed)
    m, dims = prob.m, prob.stacked_dims
    L, V, W, z, r = prob.coupling, prob.V, prob.W, _shifts(prob.z), _shifts(prob.r)
    j_va = prob.primal_ops.bind(1.0, V.diag_blocks())
    j_wb = prob.dual_inverse.bind(1.0, W.diag_blocks())

    def backward(u, gamma, a):
        _check_stacked(dims, u, a)
        c, d = u.blocks[:m], u.blocks[m:]
        a_p, b_d = a.blocks[:m], a.blocks[m:]
        t = L.adjoint_apply_blocks(d)
        for ti, ap, zi in zip(t, a_p, z):
            ti += ap
            if zi is not None:
                ti -= zi
        p = [j(np.subtract(ci, vt, out=vt))
             for j, ci, vt in zip(j_va, c, V.apply_blocks(t, overwrite=True))]
        y = [2.0 * pi for pi in p]
        for yi, ci in zip(y, c):
            yi -= ci
        u_k = _minus_draw(L.apply_blocks(y), b_d, r)
        q = [j(np.add(dk, wu, out=wu))
             for j, dk, wu in zip(j_wb, d, W.apply_blocks(u_k, overwrite=True))]
        return BlockVector._wrap(p + q, dims)

    return ProblemInstance(oracle, BlockVector.zeros(dims), rep.beta_hat,
                           backward, gamma_fixed=1.0)


def assemble_class2(prob, noise=None, seed=0):
    """Stacked instance for the all-explicit-primal variant.

    Only valid when every primal block operator is zero; the primal half
    becomes forward substitutions around the single dual resolvent. Requires
    twice the class-II constant > 1.

    The sweep works on block arrays, as the class-I one does:
        s = c - V (a_p - z),
        q = J_{W B^-1}(d + W (L (s - V L* d) - b_d - r)),
        p = s - V L* q.
    """
    if not prob.primal_ops.is_zero():
        raise ConfigurationError(
            "class-II assembly requires every primal block operator to be zero"
        )
    rep = compute_constants(prob)
    if not rep.feasible_class2:
        raise InfeasibleProblemError(
            f"class-II assembly requires 2*beta > 1; got beta={rep.beta:.6g}"
        )
    oracle = StochasticOracle(prob.smooth_pair_map(beta=rep.beta), noise=noise,
                              rng_seed=seed)
    m, dims = prob.m, prob.stacked_dims
    L, V, W, z, r = prob.coupling, prob.V, prob.W, _shifts(prob.z), _shifts(prob.r)
    j_wb = prob.dual_inverse.bind(1.0, W.diag_blocks())

    def minus_v_adjoint(s_i, v):
        """s - V L* v, computed in the arrays of L* v."""
        return [np.subtract(si, x, out=x) for si, x in
                zip(s_i, V.apply_blocks(L.adjoint_apply_blocks(v), overwrite=True))]

    def backward(u, gamma, a):
        _check_stacked(dims, u, a)
        c, d = u.blocks[:m], u.blocks[m:]
        a_p, b_d = a.blocks[:m], a.blocks[m:]
        # not in place: a skipped shift leaves the draw's own read-only array
        s_i = [ci - vt for ci, vt in zip(c, V.apply_blocks(
            [ap if zi is None else ap - zi for ap, zi in zip(a_p, z)]))]
        e = _minus_draw(L.apply_blocks(minus_v_adjoint(s_i, d)), b_d, r)
        q = [j(np.add(dk, we, out=we))
             for j, dk, we in zip(j_wb, d, W.apply_blocks(e, overwrite=True))]
        return BlockVector._wrap(minus_v_adjoint(s_i, q) + q, dims)

    return ProblemInstance(oracle, BlockVector.zeros(dims), rep.beta,
                           backward, gamma_fixed=1.0)


# ---------------------------------------------------------------------------
# optimality-system residuals
# ---------------------------------------------------------------------------


@dataclass
class DualityReport:
    primal_block_res: list
    dual_block_res: list
    unchecked: list

    @property
    def max_residual(self):
        vals = [v for v in self.primal_block_res + self.dual_block_res if v is not None]
        return max(vals) if vals else float("nan")


def duality_residuals(primal, dual, prob):
    """Violation of the coupled optimality system at a primal-dual pair.

    Per primal block: distance of z_i - (L* v)_i - C_i(x) from the graph of
    A_i at x_i. Per dual block: distance of (L x)_k - r_k - D_k^{-1} v_k from
    the graph of B_k^{-1} at v_k. Blocks without a checkable rule are listed
    as unchecked, never reported as zero.
    """
    if primal.dims != prob.primal_dims:
        raise DimensionMismatch(f"primal dims {primal.dims} != {prob.primal_dims}")
    if dual.dims != prob.dual_dims:
        raise DimensionMismatch(f"dual dims {dual.dims} != {prob.dual_dims}")
    lt_v = prob.coupling.adjoint_apply(dual)
    cx = prob.smooth.apply(primal)
    primal_res = prob.primal_ops.distances(
        primal.blocks, [zi - lv - c for zi, lv, c in zip(prob.z.blocks, lt_v.blocks, cx.blocks)])
    lx = prob.coupling.apply(primal)
    dv = prob.dual_smooth.apply(dual)
    dual_res = prob.dual_inverse.distances(
        dual.blocks, [lk - rk - d for lk, rk, d in zip(lx.blocks, prob.r.blocks, dv.blocks)])
    unchecked = [f"{side}[{i}]" for side, res in (("primal", primal_res), ("dual", dual_res))
                 for i, d in enumerate(res) if d is None]
    return DualityReport(primal_res, dual_res, unchecked)
