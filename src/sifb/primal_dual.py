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
the only implicit piece. Both sweeps are compiled at assembly to the
problem's structure: each metric becomes one multiply of its diagonal
with a flat half, each shift one subtraction of its flat array, skipped
when every entry is +0.0 (`_shift`),
and each coupling product the compiled terms of its output blocks (one gemv
per dense cell, a multiply per scalar cell, nothing but the add for a cell
equal to 1; `BlockLinearOperator`). A sweep writes its output through the
block views of one fresh flat array, and every element sees the operations
of the block-by-block sweep in the same order, so every bit stays as it was.
Their resolvents J_{V A_i} and J_{W B_k^-1} are kernels bound once, at
assembly, to the diagonals of V and W at the fixed step 1
(`MonotoneBlock.bind`). A coupling cell may be a number s, meaning s times
the identity (the identity rows of a fully split problem): its product adds
s x, which equals the dense product with s I bit for bit for finite x. The
coupling norm c = ||sqrt(W) L sqrt(V)|| behind both assemblies' gates is
computed once per problem (`PrimalDualProblem.coupling_norm`), however often
`compute_constants` asks for it, and not at all when the code that makes
the problem gives it (the lasso demo's `split` and `cp` forms take it from the one
spectrum of their data). The optimality residuals take one graph
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
from .spaces import BlockVector, block_split, block_views, estimate_weighted_norm
from .stochastic import StochasticOracle

# Feasibility thresholds use a strict margin to avoid boundary flakiness.
_FEAS_MARGIN = 1e-9


class PrimalDualProblem:
    """The full coupled-inclusion data set.

    primal_ops / dual_inverse are blockwise monotone operators; dual_inverse
    holds the INVERSES B_k^{-1} as resolvent rules (conjugate subdifferentials
    for catalogue functions). smooth is the coupling C with constant nu0
    relative to V; dual_smooth is D^{-1} with constant mu0 relative to W.
    norm, when given, is the coupling norm c = ||sqrt(W) L sqrt(V)||, known
    to the code that makes the problem (`coupling_norm`).
    """

    def __init__(self, primal_ops, z, V, dual_inverse, r, W, coupling,
                 smooth=None, dual_smooth=None, nu0=None, mu0=None, norm=None):
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
        self._norm = None if norm is None else (coupling, V, W, float(norm))

    def coupling_norm(self):
        """c = ||sqrt(W) L sqrt(V)||, one eigensolve per (coupling, V, W).

        The three are immutable, so c is kept in a one-slot cache keyed on
        their identity; a copy whose coupling, V or W is replaced computes its
        own. A norm given to the constructor fills that cache, so the problem
        it was given for makes no eigensolve. A NormEstimationError is not
        cached: the next call raises again.
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
    c = 0 or both are infinite (no xi is singled out). Finite constants whose
    ratio leaves the float range give the same limits."""
    if c == 0.0 or not (np.isfinite(nu0) or np.isfinite(mu0)):
        return float("nan")
    if not np.isfinite(nu0):
        return float("inf")
    if not np.isfinite(mu0):
        return 0.0
    if nu0 == mu0:
        # the discriminant collapses to (2 c nu0)^2; keep the value exact
        return 1.0
    # one power of two scales nu0, mu0, disc and both sides of the quotient
    # exactly, and keeps the squares finite
    e = math.frexp(max(nu0, mu0))[1]
    nu, mu = math.ldexp(nu0, -e), math.ldexp(mu0, -e)
    disc = math.sqrt((mu - nu) ** 2 + 4.0 * c * c * nu * mu)
    if mu > nu:
        # nu - mu + disc cancels, partly or wholly: the same xi, rationalised
        return 2.0 * c * nu / (mu - nu + disc)
    den = 2.0 * mu * c
    # den underflows to 0 only when mu0 / nu0 or c is below the float range;
    # xi is then inf, and compute_constants takes the limit either way
    return (nu - mu + disc) / den if den else math.inf


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
    if 0.0 < xi_hat < math.inf:
        beta_hat = beta_for_balance(nu0, mu0, c, xi_hat)
    else:
        # at c = 0 the factor 1 - c^2 is exactly 1, and an infinite constant,
        # or one too large against the other for xi_hat to be a float,
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


def _shift(v):
    """The flat array of a shift z or r, or None when every entry is +0.0.

    x - (+0.0) is x bit for bit for every x, -0.0 and NaN included, so the
    sweeps skip that subtraction, and subtracting the whole flat array is
    subtracting each block that holds something other than +0.0.
    """
    return v.flat if v.flat.any() or np.signbit(v.flat).any() else None


def _factor(metric):
    """The flat diagonal that multiplies a flat half, or None for the
    identity, whose multiply is skipped."""
    return None if metric.kind == "identity" else metric.diag


def _resolve(kernels, xs):
    """Each block array of xs replaced by its kernel's value, in place."""
    for j, x in zip(kernels, xs):
        y = j(x)
        if y is not x:
            x[...] = y


def _dual_half(prob):
    """The dual half of both sweeps, bound to prob: a function of the
    primal blocks y, the dual half d of the point and b_d of the draw, and
    the dual half q of the output, which writes
        q = J_{W B^-1}(d + W (L y - b_d - r))
    through q's block views and returns them."""
    L, dv, kernels = prob.coupling, block_views(prob.dual_dims), prob.dual_inverse.bind(
        1.0, prob.W.diag_blocks())
    r, w = _shift(prob.r), _factor(prob.W)

    def dual(y, d, b_d, q):
        qs = dv(q)
        L.apply_blocks(y, qs)
        q -= b_d
        if r is not None:
            q -= r
        if w is not None:
            np.multiply(w, q, out=q)
        np.add(d, q, out=q)
        _resolve(kernels, qs)
        return qs

    return dual


def assemble_class1(prob, noise=None, seed=0):
    """Stacked instance whose unit-step backward map is the class-I sweep.

    One solver step reproduces, blockwise: primal resolvents at the
    extrapolated point, reflection, then dual resolvents against the
    reflected primal. Requires the class-I constant > 1/2.

    The sweep works on the flat halves of u = (c, d) and of the draw
    a = (a_p, b_d), and writes each half of its output, one fresh flat
    array, in place through its block views:
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
    n, k, L = sum(prob.stacked_dims), sum(prob.primal_dims), prob.coupling
    pv, dv = block_views(prob.primal_dims), block_views(prob.dual_dims)
    v, z, dual = _factor(prob.V), _shift(prob.z), _dual_half(prob)
    j_va = prob.primal_ops.bind(1.0, prob.V.diag_blocks())

    def backward(u, a):
        out = np.empty(n)
        c, d, p = u[:k], u[k:], out[:k]
        ps = L.adjoint_apply_blocks(dv(d), pv(p))
        p += a[:k]
        if z is not None:
            p -= z
        if v is not None:
            np.multiply(v, p, out=p)
        np.subtract(c, p, out=p)
        _resolve(j_va, ps)
        y = 2.0 * p
        y -= c
        dual(pv(y), d, a[k:], out[k:])
        return out

    return ProblemInstance(oracle, BlockVector.zeros(prob.stacked_dims), rep.beta_hat,
                           lambda gamma: backward, gamma_fixed=1.0)


def assemble_class2(prob, noise=None, seed=0):
    """Stacked instance for the all-explicit-primal variant.

    Only valid when every primal block operator is zero; the primal half
    becomes forward substitutions around the single dual resolvent. Requires
    twice the class-II constant > 1.

    The sweep works on flat halves, as the class-I one does, and writes L* d
    and L* q through the block views of one flat array each:
        s = c - V (a_p - z),
        q = J_{W B^-1}(d + W (L (s - V L* d) - b_d - r)),
        p = s - V L* q.
    Each run binds its own sweep, which keeps its last output and that
    output's L* q: when the next sweep's point is that output (as at
    alpha = 0 and lambda = 1), L* d is the kept L* q, so the sweep makes 2
    coupling products instead of 3.
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
    n, k, L = sum(prob.stacked_dims), sum(prob.primal_dims), prob.coupling
    pv, dv = block_views(prob.primal_dims), block_views(prob.dual_dims)
    v, z, dual = _factor(prob.V), _shift(prob.z), _dual_half(prob)

    def adjoint(qs):
        """L* q of the dual blocks qs, as one fresh flat array."""
        lt = np.empty(k)
        L.adjoint_apply_blocks(qs, pv(lt))
        return lt

    def minus_v(s, lt, out=None):
        """s - V lt, into out (a fresh array when None)."""
        return np.subtract(s, lt if v is None else v * lt, out=out)

    def bind_backward(gamma):
        last = None  # (the last output, L* q of its dual blocks)

        def backward(u, a):
            nonlocal last
            out = np.empty(n)
            c, d = u[:k], u[k:]
            s = a[:k] if z is None else a[:k] - z
            if v is not None:
                s = v * s
            s = c - s
            lt_d = last[1] if last is not None and last[0] is u else adjoint(dv(d))
            qs = dual(pv(minus_v(s, lt_d)), d, a[k:], out[k:])
            lt_q = adjoint(qs)
            lt_q.setflags(write=False)
            minus_v(s, lt_q, out[:k])
            last = (out, lt_q)
            return out

        return backward

    return ProblemInstance(oracle, BlockVector.zeros(prob.stacked_dims), rep.beta,
                           bind_backward, gamma_fixed=1.0)


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
