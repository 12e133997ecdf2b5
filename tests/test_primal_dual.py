import copy
import dataclasses
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sifb import (
    BlockLinearOperator,
    BlockVector,
    CocoerciveMap,
    ConfigurationError,
    DimensionMismatch,
    InertiaSchedule,
    InfeasibleProblemError,
    MonotoneBlock,
    NoiseSchedule,
    NormEstimationError,
    Preconditioner,
    PrimalDualProblem,
    ProxFunction,
    SolverConfig,
    assemble_class1,
    assemble_class2,
    beta_for_balance,
    block_concat,
    block_split,
    compute_constants,
    duality_residuals,
    extract_primal_dual,
    optimal_balance,
    run,
    step,
)
from sifb.problems import (
    build_demo,
    build_lasso,
    pd_problem,
    reference_oracle,
    sifb_instance,
)
from sifb.solver import Plan
from sifb.spaces import estimate_weighted_norm

from test_solver import csv_text

from audits import (
    LinearBlocks,
    blockvector_instance,
    class1_metric_apply,
    class2_metric_apply,
    dense,
    dense_metrics,
    scalar_feasibility_constant,
    step_blocks,
)


class ReplayOracle:
    """Injects a fixed stacked draw; lets a transcription see the same noise."""

    def __init__(self, base, value):
        self.base = base
        self.value = value.concatenated()
        self.noise = NoiseSchedule.zero()

    def sample(self, n, w, *args):
        return self.value


# --- constants ----------------------------------------------------------------


def test_balance_symmetry_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        nu = float(rng.uniform(0.1, 10.0))
        c = float(rng.uniform(0.01, 0.99))
        assert optimal_balance(nu, nu, c) == 1.0  # exactly
        got = beta_for_balance(nu, nu, c, 1.0)
        assert got == pytest.approx(nu * (1.0 - c), rel=1e-12)


def test_balance_maximizes_over_log_grid():
    rng = np.random.default_rng(1)
    grid = np.logspace(-3, 3, 50)
    for _ in range(20):
        nu = float(rng.uniform(0.05, 20.0))
        mu = float(rng.uniform(0.05, 20.0))
        c = float(rng.uniform(0.01, 0.99))
        best = beta_for_balance(nu, mu, c, optimal_balance(nu, mu, c))
        for xi in grid:
            assert best >= beta_for_balance(nu, mu, c, float(xi)) - 1e-12 * best


def test_beta_decreasing_in_c():
    nu, mu = 2.0, 3.0
    prev = None
    for c in np.linspace(0.0, 0.95, 20):
        beta = min(nu, mu * (1 - c * c))
        if prev is not None:
            assert beta <= prev + 1e-15
        prev = beta


def small_problem(c_target, nu=2.0, mu=3.0):
    """m = s = 1, scalar metrics, norms arranged to give c = c_target."""
    p, n = 3, 2
    l_mat = np.zeros((n, p))
    l_mat[0, 0] = 1.0  # unit operator norm
    tau = sigma = c_target  # c = sqrt(tau sigma) * ||L|| = c_target
    v = Preconditioner.scalar([tau], (p,)) if c_target > 0 else Preconditioner.identity((p,))
    w = Preconditioner.scalar([sigma], (n,)) if c_target > 0 else Preconditioner.identity((n,))
    coupling = (BlockLinearOperator([[l_mat]], (p,), (n,)) if c_target > 0
                else BlockLinearOperator.zero((p,), (n,)))
    return PrimalDualProblem(
        primal_ops=MonotoneBlock.zero(1),
        z=BlockVector.zeros((p,)),
        V=v,
        dual_inverse=MonotoneBlock.conjugate_subdiff([ProxFunction.l1(1.0)]),
        r=BlockVector.zeros((n,)),
        W=w,
        coupling=coupling,
        nu0=nu,
        mu0=mu,
    )


def test_compute_constants_end_to_end():
    rep = compute_constants(small_problem(0.5, nu=2.0, mu=3.0))
    assert rep.c == pytest.approx(0.5, rel=1e-10)
    want_xi = optimal_balance(2.0, 3.0, rep.c)
    assert rep.xi_hat == pytest.approx(want_xi, rel=1e-10)
    assert rep.beta == pytest.approx(min(2.0, 3.0 * 0.75), rel=1e-10)
    assert rep.feasible_class1 and rep.feasible_class2


def test_constants_c_zero_limit():
    rep = compute_constants(small_problem(0.0, nu=2.0, mu=3.0))
    assert rep.c == 0.0
    assert np.isnan(rep.xi_hat)
    assert rep.beta_hat == pytest.approx(2.0)
    assert rep.beta == pytest.approx(2.0)
    # audited continuity at c = 1e-6
    tiny = compute_constants(small_problem(1e-6, nu=2.0, mu=3.0))
    assert tiny.beta_hat == pytest.approx(2.0, abs=1e-4)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("c,nu,mu,xi", [(0.0, 2.0, 3.0, NAN), (0.5, INF, INF, NAN),
                                        (0.5, INF, 3.0, INF), (0.5, 2.0, INF, 0.0),
                                        (0.5, 1e200, 1e-200, INF), (0.5, 1e-200, 1e200, 0.0)],
                         ids=["c-zero", "both-infinite", "nu0-infinite", "mu0-infinite",
                              "nu0-over-mu0-overflows", "nu0-over-mu0-underflows"])
def test_balance_where_the_formula_has_no_interior_optimum(c, nu, mu, xi):
    # compute_constants reports optimal_balance's xi; an infinite constant
    # drops its term of the class-I minimum
    rep = compute_constants(small_problem(c, nu=nu, mu=mu))
    for got in (optimal_balance(nu, mu, rep.c), rep.xi_hat):
        assert got == xi or (np.isnan(xi) and np.isnan(got))
    assert rep.beta_hat == (1.0 - rep.c * rep.c) * min(nu, mu)


@pytest.mark.parametrize("nu,mu,beta_hat", [
    (1e160, 1.0, 0.75), (1.0, 1e160, 0.75), (1.0, 1e20, 0.75),
    (1e160, np.nextafter(1e160, INF), 5e159)],
    ids=["square-overflows", "square-overflows-mu0", "cancels", "product-overflows"])
def test_balance_without_overflow_or_cancellation(nu, mu, beta_hat):
    # (mu0 - nu0)^2 or 4 c^2 nu0 mu0 overflows, or nu0 - mu0 + disc cancels
    # to 0, unless nu0 and mu0 are scaled first and the quotient rationalised
    xi = optimal_balance(nu, mu, 0.5)
    assert 0.0 < xi < INF
    assert beta_for_balance(nu, mu, 0.5, xi) == pytest.approx(beta_hat, rel=1e-12)


def test_balance_is_accurate_where_mu0_dwarfs_nu0():
    # nu0 - mu0 + disc keeps a few digits only, so the unrationalised quotient
    # was positive but gave beta_hat about 0.51 of its value here
    from decimal import Decimal, localcontext

    nu, mu, c = 0.09423940836164477, 119850200374628.05, 0.40334920379139044
    with localcontext() as ctx:
        ctx.prec = 50
        n, m, k = Decimal(nu), Decimal(mu), Decimal(c)
        xi = 2 * k * n / (m - n + ((m - n) ** 2 + 4 * k * k * n * m).sqrt())
        want = float((1 - k * k) * n / (1 + xi * k))
    got = beta_for_balance(nu, mu, c, optimal_balance(nu, mu, c))
    assert got == pytest.approx(want, rel=1e-12)


def test_constants_infeasible_norm():
    with pytest.raises(InfeasibleProblemError, match=">= 1"):
        compute_constants(small_problem(1.2))


def test_scalar_feasibility_constant_formula():
    rng = np.random.default_rng(3)
    l_mat = rng.standard_normal((4, 5))
    l_norm = float(np.linalg.norm(l_mat, 2))
    nu, mu = 1.5, 2.5
    tau, sigma = 0.2, 0.3 / l_norm**2
    want = min(nu / tau, (mu / sigma) * (1 - tau * sigma * l_norm**2))
    got = scalar_feasibility_constant(nu, mu, tau, sigma, l_norm)
    assert got == pytest.approx(want, rel=1e-12)
    # consistency with the assembled computation: nu0 = nu/tau, mu0 = mu/sigma
    prob = PrimalDualProblem(
        primal_ops=MonotoneBlock.zero(1),
        z=BlockVector.zeros((5,)),
        V=Preconditioner.scalar([tau], (5,)),
        dual_inverse=MonotoneBlock.conjugate_subdiff([ProxFunction.l1(1.0)]),
        r=BlockVector.zeros((4,)),
        W=Preconditioner.scalar([sigma], (4,)),
        coupling=BlockLinearOperator([[l_mat]], (5,), (4,)),
        nu0=nu / tau,
        mu0=mu / sigma,
    )
    rep = compute_constants(prob)
    assert rep.beta == pytest.approx(got, rel=1e-9)


def test_infinite_constants_for_zero_couplings():
    rep = compute_constants(small_problem(0.5, nu=float("inf"), mu=float("inf")))
    assert rep.beta_hat == float("inf") and rep.beta == float("inf")
    rep2 = compute_constants(small_problem(0.5, nu=float("inf"), mu=4.0))
    assert rep2.beta_hat == pytest.approx(0.75 * 4.0)
    rep3 = compute_constants(small_problem(0.5, nu=4.0, mu=float("inf")))
    assert rep3.beta_hat == pytest.approx(0.75 * 4.0)


@st.composite
def scalar_metric_problems(draw):
    """(problem, nu, mu, tau, sigma, ||L||): V = tau I, W = sigma I, c <= 0.95.

    Zero primal operators (class II), 1-2 blocks a side of dims <= 4, and
    dense, None and scalar coupling cells; sigma sets c = sqrt(tau sigma) ||L||.
    """
    dims_in = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    dims_out = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = []
    for dk in dims_out:
        row = []
        for di in dims_in:
            kind = draw(st.sampled_from(["none", "dense"] + (["scalar"] if dk == di else [])))
            row.append(None if kind == "none"
                       else draw(st.sampled_from([1.0, -1.0, 0.0, 0.3, 2.5])) if kind == "scalar"
                       else rng.standard_normal((dk, di)))
        entries.append(row)
    coupling = BlockLinearOperator(entries, dims_in, dims_out)
    l_norm = float(np.linalg.norm(dense(coupling), 2))
    tau, nu, mu = (draw(st.floats(0.05, 5.0)) for _ in range(3))
    c = draw(st.floats(0.01, 0.95))
    sigma = c * c / (tau * l_norm**2) if l_norm > 0 else draw(st.floats(0.05, 5.0))
    prob = PrimalDualProblem(
        primal_ops=MonotoneBlock.zero(len(dims_in)),
        z=BlockVector.zeros(dims_in),
        V=Preconditioner.scalar([tau] * len(dims_in), dims_in),
        dual_inverse=MonotoneBlock.conjugate_subdiff(
            [ProxFunction.l1(1.0) for _ in dims_out]),
        r=BlockVector.zeros(dims_out),
        W=Preconditioner.scalar([sigma] * len(dims_out), dims_out),
        coupling=coupling,
        nu0=nu / tau,
        mu0=mu / sigma,
    )
    return prob, nu, mu, tau, sigma, l_norm


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=scalar_metric_problems())
def test_class2_constant_equals_the_scalar_metric_closed_form(case):
    # with V = tau I and W = sigma I the assembled class-II constant is
    # min(nu/tau, (mu/sigma)(1 - tau sigma ||L||^2))
    prob, nu, mu, tau, sigma, l_norm = case
    rep = compute_constants(prob)
    want = scalar_feasibility_constant(nu, mu, tau, sigma, l_norm)
    assert rep.beta == pytest.approx(want, rel=1e-12)


CATALOGUE = ["zero", "l1", "sq_l2", "box", "linf_ball", "affine"]
# the primal families whose function is coercive on its own
COERCIVE = ["sq_l2", "box", "linf_ball"]


@st.composite
def gated_problems(draw):
    """(problem, primal operators all zero): a problem that has a solution.

    1-2 primal and 1-2 dual blocks of dims <= 4, scalar or diagonal metrics,
    catalogue functions on both sides, and dense, None and scalar coupling
    cells scaled to a target c in [0.05, 0.95]. Optional smooth terms
    C = mu I and D^-1 = mu I set nu0 and mu0 in [0.3, 5]. The primal side is
    coercive (C is present, or every primal function is coercive), and a box
    or ball holds the point that x = 0 gives it, so a primal-dual solution
    exists (Fenchel-Rockafellar).
    """
    dims_in = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    dims_out = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def metric(dims):
        if draw(st.booleans()):
            return Preconditioner.scalar(rng.uniform(0.2, 2.0, len(dims)), dims)
        return Preconditioner.diagonal([rng.uniform(0.2, 2.0, d) for d in dims])

    def function(family, d, inside):
        if family == "l1":
            return ProxFunction.l1(draw(st.floats(0.0, 2.0)))
        if family == "sq_l2":
            return ProxFunction.squared_l2(draw(st.floats(0.1, 2.0)), rng.uniform(-1, 1, d))
        if family == "box":
            return ProxFunction.box(inside - rng.uniform(0.1, 2.0, d),
                                    inside + rng.uniform(0.1, 2.0, d))
        if family == "linf_ball":
            return ProxFunction.linf_ball(np.abs(inside).max() + draw(st.floats(0.1, 2.0)))
        if family == "affine":
            return ProxFunction.affine(rng.uniform(-1, 1, d))
        return ProxFunction.zero()

    def scaled_identity(dims, metric):
        # constant nu0 (or mu0) = 1 / (mu max(metric)) relative to the metric
        top = max(float(w.max()) for w in metric.diag_blocks())
        return CocoerciveMap.scaled_identity(dims, 1.0 / (draw(st.floats(0.3, 5.0)) * top),
                                             metric)

    V, W = metric(dims_in), metric(dims_out)
    zero_primal = draw(st.booleans())
    smooth = zero_primal or draw(st.booleans())
    families = CATALOGUE if smooth else COERCIVE
    primal_ops = (MonotoneBlock.zero(len(dims_in)) if zero_primal else MonotoneBlock.subdiff(
        [function(draw(st.sampled_from(families)), d, np.zeros(d)) for d in dims_in]))
    r = [rng.uniform(-1, 1, d) for d in dims_out]
    dual_inverse = MonotoneBlock.conjugate_subdiff(
        [function(draw(st.sampled_from(CATALOGUE)), d, -rk) for d, rk in zip(dims_out, r)])
    entries = []
    for dk in dims_out:
        row = []
        for di in dims_in:
            kind = draw(st.sampled_from(["none", "dense"] + (["scalar"] if dk == di else [])))
            row.append(None if kind == "none" else draw(st.floats(-2.0, 2.0)) if kind == "scalar"
                       else rng.standard_normal((dk, di)))
        entries.append(row)
    coupling = BlockLinearOperator(entries, dims_in, dims_out)
    sv, sw = (np.sqrt(np.concatenate(m.diag_blocks())) for m in (V, W))
    c0 = float(np.linalg.norm(sw[:, None] * dense(coupling) * sv, 2))
    if c0 > 0:
        t = draw(st.floats(0.05, 0.95)) / c0
        coupling = BlockLinearOperator(
            [[None if c is None else c * t for c in row] for row in coupling.entries],
            dims_in, dims_out)
    prob = PrimalDualProblem(
        primal_ops=primal_ops, z=BlockVector([rng.uniform(-1, 1, d) for d in dims_in]), V=V,
        dual_inverse=dual_inverse, r=BlockVector(r), W=W, coupling=coupling,
        smooth=scaled_identity(dims_in, V) if smooth else None,
        dual_smooth=scaled_identity(dims_out, W) if draw(st.booleans()) else None)
    return prob, zero_primal


@settings(derandomize=True, max_examples=80, deadline=None)
@given(case=gated_problems())
def test_gates_admit_only_runs_that_converge(case):
    # an assembly that compute_constants admits converges noise-free within a
    # fixed budget, and its iterates stay bounded; a counterexample is a gate bug
    prob, zero_primal = case
    rep = compute_constants(prob)
    admitted = [assemble_class1] if rep.feasible_class1 else []
    if zero_primal and rep.feasible_class2:
        admitted.append(assemble_class2)
    for assemble in admitted:
        inst = assemble(prob)
        x, trace = run(inst, SolverConfig(beta=inst.beta, max_iter=20000, stop_tol=1e-9))
        assert trace.status == "converged", (assemble.__name__, trace.iterations, rep)
        assert trace.steps_bounded and np.isfinite(x.concatenated()).all()


@pytest.fixture
def count_norms(monkeypatch):
    """The calls of the coupling-norm eigensolve made through sifb.primal_dual."""
    import sifb.primal_dual

    calls = []
    norm = sifb.primal_dual.estimate_weighted_norm

    def counting(*args):
        calls.append(args)
        return norm(*args)

    monkeypatch.setattr("sifb.primal_dual.estimate_weighted_norm", counting)
    return calls


def test_constants_of_one_problem_share_one_norm(count_norms):
    prob = two_by_two_problem(zero_primal=True)
    reps = [compute_constants(prob) for _ in range(3)]
    assemble_class1(prob)
    assemble_class2(prob)
    assert len(count_norms) == 1
    assert len({rep.c.hex() for rep in reps}) == 1


def test_copy_with_a_replaced_coupling_or_metric_computes_its_own_norm(count_norms):
    prob = two_by_two_problem(zero_primal=True)
    c = compute_constants(prob).c
    # the scalar cell 0.4 stored as the matrix 0.4 I: a new object, the same bits
    dense = with_dense_coupling(prob)
    assert compute_constants(dense).c.hex() == c.hex()
    assert len(count_norms) == 2 and count_norms[-1][0] is dense.coupling
    rescaled = copy.copy(prob)
    rescaled.V = Preconditioner.diagonal([0.25 * d for d in prob.V.diag_blocks()])
    assert compute_constants(rescaled).c == pytest.approx(0.5 * c, rel=1e-12)
    assert len(count_norms) == 3
    # the original keeps its own value
    assert compute_constants(prob).c.hex() == c.hex() and len(count_norms) == 3


LASSO_SHAPES = {"tall": (12, 10), "wide": (8, 14), "square": (10, 10)}


@pytest.mark.parametrize("form", ["split", "cp"])
@pytest.mark.parametrize("shape", list(LASSO_SHAPES))
def test_lasso_forms_give_the_norm_the_eigensolve_finds(count_norms, form, shape):
    n, p = LASSO_SHAPES[shape]
    for seed in (1, 3, 42):
        prob = pd_problem(build_lasso(n, p, 0.2, cond=20.0, seed=seed), form)
        c = compute_constants(prob).c
        assert count_norms == []
        # the eigensolve, called here, where count_norms does not count it
        solved = estimate_weighted_norm(prob.coupling, prob.V, prob.W)
        assert c == pytest.approx(solved, rel=1e-12, abs=0.0)
        assert compute_constants(prob).c == c


@pytest.mark.parametrize("form", ["split", "cp"])
def test_copy_of_a_lasso_form_with_a_replaced_coupling_computes_its_own_norm(count_norms,
                                                                            form):
    prob = pd_problem(build_lasso(12, 10, 0.2, cond=20.0, seed=3), form)
    given = compute_constants(prob).c
    dense = with_dense_coupling(prob)
    assert compute_constants(dense).c == pytest.approx(given, rel=1e-12)
    assert len(count_norms) == 1 and count_norms[0][0] is dense.coupling
    halved = copy.copy(prob)
    halved.coupling = BlockLinearOperator(
        [[None if c is None else 0.5 * c for c in row] for row in prob.coupling.entries],
        prob.coupling.dims_in, prob.coupling.dims_out)
    assert compute_constants(halved).c == pytest.approx(0.5 * given, rel=1e-12)
    assert len(count_norms) == 2
    # the original keeps the norm it was given
    assert compute_constants(prob).c == given and len(count_norms) == 2


def test_norm_failure_is_not_cached(count_norms):
    huge = PrimalDualProblem(
        primal_ops=MonotoneBlock.zero(1), z=BlockVector.zeros((2,)),
        V=Preconditioner.identity((2,)),
        dual_inverse=MonotoneBlock.conjugate_subdiff([ProxFunction.l1(1.0)]),
        r=BlockVector.zeros((2,)), W=Preconditioner.identity((2,)),
        coupling=BlockLinearOperator([[1e200]], (2,), (2,)))
    for _ in range(2):
        with pytest.raises(NormEstimationError, match="non-finite"), \
                np.errstate(over="ignore"):
            compute_constants(huge)
    assert len(count_norms) == 2


def test_infeasible_norm_raises_on_every_call(count_norms):
    prob = small_problem(1.2)
    for _ in range(2):
        with pytest.raises(InfeasibleProblemError, match=">= 1"):
            compute_constants(prob)
    assert len(count_norms) == 1


# --- assembly fidelity -----------------------------------------------------------


def _prox_indep(fam, arg, stepv):
    kind = fam[0]
    if kind == "zero":
        return arg
    if kind == "l1":
        t = stepv * fam[1]
        return np.where(arg > t, arg - t, np.where(arg < -t, arg + t, 0.0))
    if kind == "box":
        return np.maximum(np.minimum(arg, fam[2]), fam[1])
    if kind == "sq":
        t = stepv * fam[1]
        return (arg + t * fam[2]) / (1.0 + t)
    raise AssertionError(kind)


def _conj_prox_indep(fam, arg, wv):
    kind = fam[0]
    if kind == "l1":
        return np.maximum(np.minimum(arg, fam[1]), -fam[1])
    if kind == "sq":
        lam, cen = fam[1], fam[2]
        return lam * (arg - wv * cen) / (wv + lam)
    raise AssertionError(kind)


def transcribe_class1(data, x, xp, v, vp, a, b, alpha, relax):
    m, s = data["m"], data["s"]
    ld, vd, wd, z, r = data["L"], data["vd"], data["wd"], data["z"], data["r"]
    c = [x[i] + alpha * (x[i] - xp[i]) for i in range(m)]
    d = [v[k] + alpha * (v[k] - vp[k]) for k in range(s)]
    p, y = [], []
    for i in range(m):
        t = a[i].copy()
        for k in range(s):
            if ld[k][i] is not None:
                t = t + ld[k][i].T @ d[k]
        pi = _prox_indep(data["primal"][i], c[i] - vd[i] * (t - z[i]), vd[i])
        p.append(pi)
        y.append(2.0 * pi - c[i])
    q = []
    for k in range(s):
        u = -b[k] - r[k]
        for i in range(m):
            if ld[k][i] is not None:
                u = u + ld[k][i] @ y[i]
        q.append(_conj_prox_indep(data["dual"][k], d[k] + wd[k] * u, wd[k]))
    x_new = [x[i] + relax * (p[i] - x[i]) for i in range(m)]
    v_new = [v[k] + relax * (q[k] - v[k]) for k in range(s)]
    return x_new, v_new


def transcribe_class2(data, x, xp, v, vp, a, b, alpha, relax):
    m, s = data["m"], data["s"]
    ld, vd, wd, z, r = data["L"], data["vd"], data["wd"], data["z"], data["r"]
    c = [x[i] + alpha * (x[i] - xp[i]) for i in range(m)]
    d = [v[k] + alpha * (v[k] - vp[k]) for k in range(s)]
    s_i, y = [], []
    for i in range(m):
        si = c[i] - vd[i] * (a[i] - z[i])
        acc = np.zeros_like(si)
        for k in range(s):
            if ld[k][i] is not None:
                acc = acc + ld[k][i].T @ d[k]
        s_i.append(si)
        y.append(si - vd[i] * acc)
    q = []
    for k in range(s):
        u = -b[k] - r[k]
        for i in range(m):
            if ld[k][i] is not None:
                u = u + ld[k][i] @ y[i]
        q.append(_conj_prox_indep(data["dual"][k], d[k] + wd[k] * u, wd[k]))
    p = []
    for i in range(m):
        acc = np.zeros_like(s_i[i])
        for k in range(s):
            if ld[k][i] is not None:
                acc = acc + ld[k][i].T @ q[k]
        p.append(s_i[i] - vd[i] * acc)
    x_new = [x[i] + relax * (p[i] - x[i]) for i in range(m)]
    v_new = [v[k] + relax * (q[k] - v[k]) for k in range(s)]
    return x_new, v_new


def random_structured_problem(rng, zero_primal):
    m = int(rng.integers(1, 4))
    s = int(rng.integers(1, 4))
    pdims = [int(rng.integers(1, 5)) for _ in range(m)]
    ddims = [int(rng.integers(1, 5)) for _ in range(s)]
    ld = [[rng.standard_normal((ddims[k], pdims[i])) if rng.random() > 0.25 else None
           for i in range(m)] for k in range(s)]
    vd = [rng.uniform(0.5, 2.0, d) for d in pdims]
    wd = [rng.uniform(0.5, 2.0, d) for d in ddims]
    # rescale both metrics so the weighted coupling norm is 0.8
    dense_rows = []
    for k in range(s):
        cells = [np.sqrt(wd[k])[:, None]
                 * (ld[k][i] if ld[k][i] is not None else np.zeros((ddims[k], pdims[i])))
                 * np.sqrt(vd[i])[None, :]
                 for i in range(m)]
        dense_rows.append(np.hstack(cells))
    c0 = float(np.linalg.norm(np.vstack(dense_rows), 2))
    if c0 > 0:
        scale = 0.8 / c0
        vd = [w * scale for w in vd]
        wd = [w * scale for w in wd]

    def rand_primal_fam(d):
        kind = rng.choice(["zero", "l1", "box", "sq"])
        if kind == "zero":
            return ("zero",)
        if kind == "l1":
            return ("l1", float(rng.uniform(0.1, 2.0)))
        if kind == "box":
            lo = rng.uniform(-2, 0, d)
            return ("box", lo, lo + rng.uniform(0.5, 2.0, d))
        return ("sq", float(rng.uniform(0.2, 3.0)), float(rng.uniform(-1, 1)))

    def rand_dual_fam():
        if rng.random() < 0.5:
            return ("l1", float(rng.uniform(0.1, 2.0)))
        return ("sq", float(rng.uniform(0.2, 3.0)), float(rng.uniform(-1, 1)))

    primal_fams = [("zero",) if zero_primal else rand_primal_fam(pdims[i])
                   for i in range(m)]
    dual_fams = [rand_dual_fam() for _ in range(s)]
    data = {
        "m": m, "s": s, "L": ld, "vd": vd, "wd": wd,
        "z": [rng.standard_normal(d) for d in pdims],
        "r": [rng.standard_normal(d) for d in ddims],
        "primal": primal_fams, "dual": dual_fams,
    }

    def to_rule(fam):
        if fam[0] == "zero":
            return MonotoneBlock.rule_subdiff(ProxFunction.zero())
        if fam[0] == "l1":
            return MonotoneBlock.rule_subdiff(ProxFunction.l1(fam[1]))
        if fam[0] == "box":
            return MonotoneBlock.rule_subdiff(ProxFunction.box(fam[1], fam[2]))
        return MonotoneBlock.rule_subdiff(ProxFunction.squared_l2(fam[1], fam[2]))

    def to_dual_rule(fam):
        if fam[0] == "l1":
            return MonotoneBlock.rule_conjugate_subdiff(ProxFunction.l1(fam[1]))
        return MonotoneBlock.rule_conjugate_subdiff(
            ProxFunction.squared_l2(fam[1], fam[2]))

    prob = PrimalDualProblem(
        primal_ops=MonotoneBlock([to_rule(f) for f in primal_fams]),
        z=BlockVector(data["z"]),
        V=Preconditioner.diagonal(vd),
        dual_inverse=MonotoneBlock([to_dual_rule(f) for f in dual_fams]),
        r=BlockVector(data["r"]),
        W=Preconditioner.diagonal(wd),
        coupling=BlockLinearOperator(ld, pdims, ddims),
    )
    return prob, data, pdims, ddims


@pytest.mark.parametrize("which", ["class1", "class2"])
def test_assembly_matches_transcription(which):
    rng = np.random.default_rng(101 if which == "class1" else 202)
    for trial in range(200):
        prob, data, pdims, ddims = random_structured_problem(
            rng, zero_primal=(which == "class2"))
        alpha = float(rng.uniform(0.0, 0.9))
        relax = float(rng.uniform(0.1, 1.0))
        x = [rng.standard_normal(d) for d in pdims]
        xp = [rng.standard_normal(d) for d in pdims]
        v = [rng.standard_normal(d) for d in ddims]
        vp = [rng.standard_normal(d) for d in ddims]
        a = [rng.standard_normal(d) for d in pdims]
        b = [rng.standard_normal(d) for d in ddims]
        replay = ReplayOracle(prob.smooth_pair_map(beta=float("inf")),
                              block_concat(BlockVector(a), BlockVector(b)))
        assemble = assemble_class1 if which == "class1" else assemble_class2
        inst = dataclasses.replace(assemble(prob), oracle=replay)
        inertia = (InertiaSchedule.polynomial(alpha, 2.0) if alpha > 0
                   else InertiaSchedule.zero())
        cfg = SolverConfig(beta=inst.beta, relaxation=relax, inertia=inertia,
                           max_iter=1)
        state = (block_concat(BlockVector(x), BlockVector(v)),
                 block_concat(BlockVector(xp), BlockVector(vp)))
        new_state, _ = step_blocks(inst, cfg, state, 0)
        primal_new, dual_new = extract_primal_dual(new_state, prob)
        transcribe = transcribe_class1 if which == "class1" else transcribe_class2
        want_x, want_v = transcribe(data, x, xp, v, vp, a, b, alpha, relax)
        for got, want in zip(primal_new.blocks, want_x):
            assert np.max(np.abs(got - want)) <= 1e-12
        for got, want in zip(dual_new.blocks, want_v):
            assert np.max(np.abs(got - want)) <= 1e-12


def test_class1_decoupled_when_coupling_vanishes():
    rng = np.random.default_rng(7)
    prob = PrimalDualProblem(
        primal_ops=MonotoneBlock.subdiff([ProxFunction.l1(0.5)]),
        z=BlockVector([rng.standard_normal(3)]),
        V=Preconditioner.scalar([0.7], (3,)),
        dual_inverse=MonotoneBlock.conjugate_subdiff([ProxFunction.l1(1.2)]),
        r=BlockVector([rng.standard_normal(2)]),
        W=Preconditioner.scalar([0.9], (2,)),
        coupling=BlockLinearOperator.zero((3,), (2,)),
    )
    a = BlockVector([rng.standard_normal(3)])
    b = BlockVector([rng.standard_normal(2)])
    replay = ReplayOracle(prob.smooth_pair_map(beta=float("inf")),
                          block_concat(a, b))
    inst = dataclasses.replace(assemble_class1(prob), oracle=replay)
    x = BlockVector([rng.standard_normal(3)])
    v = BlockVector([rng.standard_normal(2)])
    state = (block_concat(x, v),) * 2
    cfg = SolverConfig(beta=inst.beta, max_iter=1)
    new_state, _ = step_blocks(inst, cfg, state, 0)
    p_got, q_got = extract_primal_dual(new_state, prob)
    # primal and dual halves decouple into independent resolvent updates
    z_arg = x - prob.V.apply(a - prob.z)
    p_want = prob.primal_ops.resolvent(1.0, prob.V, z_arg)
    q_arg = v + prob.W.apply(-1.0 * b - prob.r)
    q_want = prob.dual_inverse.resolvent(1.0, prob.W, q_arg)
    assert (p_got - p_want).norm() <= 1e-14
    assert (q_got - q_want).norm() <= 1e-14


def test_class2_decoupled_primal_is_pure_forward_step():
    rng = np.random.default_rng(8)
    prob = PrimalDualProblem(
        primal_ops=MonotoneBlock.zero(1),
        z=BlockVector([rng.standard_normal(3)]),
        V=Preconditioner.scalar([0.7], (3,)),
        dual_inverse=MonotoneBlock.conjugate_subdiff([ProxFunction.l1(1.2)]),
        r=BlockVector([rng.standard_normal(2)]),
        W=Preconditioner.scalar([0.9], (2,)),
        coupling=BlockLinearOperator.zero((3,), (2,)),
    )
    a = BlockVector([rng.standard_normal(3)])
    b = BlockVector([rng.standard_normal(2)])
    replay = ReplayOracle(prob.smooth_pair_map(beta=float("inf")),
                          block_concat(a, b))
    inst = dataclasses.replace(assemble_class2(prob), oracle=replay)
    x = BlockVector([rng.standard_normal(3)])
    v = BlockVector([rng.standard_normal(2)])
    state = (block_concat(x, v),) * 2
    cfg = SolverConfig(beta=inst.beta, max_iter=1)
    new_state, _ = step_blocks(inst, cfg, state, 0)
    p_got, _ = extract_primal_dual(new_state, prob)
    p_want = x - prob.V.apply(a - prob.z)
    assert (p_got - p_want).norm() <= 1e-14


def test_class2_rejects_nonzero_primal_operator():
    demo = build_lasso(6, 4, 0.1, seed=1)
    prob = pd_problem(demo, "cp")  # keeps the l1 as a primal operator
    with pytest.raises(ConfigurationError, match="zero"):
        assemble_class2(prob)


def test_class1_feasibility_gate():
    prob = small_problem(0.5, nu=0.6, mu=0.6)
    rep = compute_constants(prob)
    assert rep.beta_hat < 0.5
    with pytest.raises(InfeasibleProblemError, match="beta_hat > 1/2"):
        assemble_class1(prob)


def test_class2_feasibility_gate():
    prob = small_problem(0.9, nu=0.45, mu=0.45)
    with pytest.raises(InfeasibleProblemError, match="2\\*beta > 1"):
        assemble_class2(prob)


@pytest.mark.parametrize("assemble", [assemble_class1, assemble_class2])
def test_run_rejects_other_step_on_assembled_instance_at_once(assemble):
    # the sweeps realize the stacked backward map only at gamma = 1
    inst = assemble(pd_problem(build_lasso(12, 10, 0.2, cond=20.0, seed=3), "split"))
    steps = []

    def counting(gamma):
        steps.append(gamma)
        return inst.bind_backward(gamma)

    counted = dataclasses.replace(inst, bind_backward=counting)
    cfg = SolverConfig(beta=inst.beta, gamma=0.5, max_iter=10)
    with pytest.raises(ConfigurationError, match="only at gamma=1.0, got 0.5"):
        run(counted, cfg)
    assert steps == []
    with pytest.raises(ConfigurationError, match="only at gamma=1.0"):
        counted.backward(inst.x0, 0.5, inst.x0)
    assert steps == []


def split_lasso():
    return pd_problem(build_lasso(12, 10, 0.2, cond=20.0, seed=3), "split")


@pytest.mark.parametrize("make,beta_scale,gamma,refusal", [
    (lambda: assemble_class1(split_lasso()), 1.0, 0.9, "only at gamma=1.0, got 0.9"),
    (lambda: assemble_class2(split_lasso()), 1.0, 0.9, "only at gamma=1.0, got 0.9"),
    # the assemblies' constants are infinite here; a plain instance has a finite one
    (lambda: sifb_instance(build_lasso(12, 10, 0.2, cond=20.0, seed=3)), 2.0, None,
     "exceeds the instance constant"),
    (lambda: assemble_class2(split_lasso(), noise=NoiseSchedule.polynomial(1.0, 0.4)),
     1.0, None, "summable_noise_variance"),
], ids=["gamma-class1", "gamma-class2", "beta", "noise"])
def test_run_refuses_before_drawing(make, beta_scale, gamma, refusal):
    # every gate is decided before the first iteration, so a refused run
    # compiles no plan (which binds the backward maps and reads the map) and
    # draws nothing
    inst = make()
    draws = []

    class CountingOracle:
        def __getattr__(self, name):
            return getattr(inst.oracle, name)

        def sample(self, n, w, *args):
            draws.append(n)
            return inst.oracle.sample(n, w, *args)

    def counting_bind(gamma):
        draws.append("bind")
        return inst.bind_backward(gamma)

    counted = dataclasses.replace(inst, oracle=CountingOracle(), bind_backward=counting_bind)
    cfg = SolverConfig(beta=beta_scale * inst.beta, gamma=gamma, max_iter=10)
    with pytest.raises(ConfigurationError, match=refusal):
        run(counted, cfg)
    assert draws == []


def test_class2_sweep_reuses_the_last_adjoint_product(monkeypatch):
    # a noise-free run at alpha = 0 and lambda = 1 sweeps from the last
    # sweep's output, whose L* q the run's sweep kept: one adjoint product per
    # sweep after the first, and the bits of a sweep that recomputes it
    inst = assemble_class2(split_lasso())
    cfg = SolverConfig(beta=inst.beta, max_iter=5000, stop_tol=1e-9)
    sweeps, adjoints = [], []
    adjoint = BlockLinearOperator.adjoint_apply_blocks

    def counting_adjoint(self, vs, out=None):
        adjoints.append(1)
        return adjoint(self, vs, out)

    def counting_bind(gamma):
        backward = inst.bind_backward(gamma)

        def counting_backward(u, a):
            sweeps.append(1)
            return backward(u, a)

        return counting_backward

    def copying_bind(gamma):
        # a copy of u is another array, which the kept output is not
        backward = inst.bind_backward(gamma)
        return lambda u, a: backward(u.copy(), a)

    monkeypatch.setattr(BlockLinearOperator, "adjoint_apply_blocks", counting_adjoint)
    x, trace = run(dataclasses.replace(inst, bind_backward=counting_bind), cfg)
    assert trace.status == "converged"
    assert len(adjoints) == len(sweeps) + 1 == trace.iterations + 2
    adjoints.clear()
    y, again = run(dataclasses.replace(inst, bind_backward=copying_bind), cfg)
    assert len(adjoints) == 2 * (trace.iterations + 1)
    assert csv_text(again) == csv_text(trace)
    assert x.concatenated().tobytes() == y.concatenated().tobytes()


def test_threads_stepping_one_class2_instance_match_serial_steps():
    # noisy steps at alpha = 0 sweep from the last output of their own
    # thread's plan, which keeps that output's L* q, while every thread draws
    # from the instance's one oracle; more threads than cores and a switch
    # interval of 1 us preempt them mid-step
    noise = NoiseSchedule.polynomial(0.2, 0.75)

    def chain(inst, count=200):
        plan = Plan(inst, 1.0, 1.0)
        x0 = inst.x0.concatenated()
        state, out = (x0, x0), []
        for n in range(count):
            state = step(plan, state, n, 0.0, noise.sigma(n))
            out.append(state[0].tobytes())
        return out

    serial = chain(assemble_class2(split_lasso(), noise=noise, seed=4))
    shared = assemble_class2(split_lasso(), noise=noise, seed=4)
    threads = (os.cpu_count() or 1) + 1
    results = [None] * threads

    def work(k):
        results[k] = chain(shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert results == [serial] * threads


# --- stacked metrics -----------------------------------------------------------------


def metric_test_problem(rng):
    a_c = rng.standard_normal((6, 4))
    b_c = rng.standard_normal(6)
    l_mat = rng.standard_normal((3, 4))
    mu = 0.7
    v_diag = rng.uniform(0.4, 1.2, 4)
    w_diag = rng.uniform(0.4, 1.2, 3)
    dense = np.sqrt(w_diag)[:, None] * l_mat * np.sqrt(v_diag)[None, :]
    scale = 0.7 / np.linalg.norm(dense, 2)
    v = Preconditioner.diagonal([v_diag * scale])
    w = Preconditioner.diagonal([w_diag * scale])
    smooth = CocoerciveMap.least_squares_gradient(a_c, b_c, metric=v)
    dual_smooth = CocoerciveMap.scaled_identity((3,), mu, metric=w)
    return PrimalDualProblem(
        primal_ops=MonotoneBlock.zero(1),
        z=BlockVector.zeros((4,)),
        V=v,
        dual_inverse=MonotoneBlock.conjugate_subdiff([ProxFunction.l1(1.0)]),
        r=BlockVector.zeros((3,)),
        W=w,
        coupling=BlockLinearOperator([[l_mat]], (4,), (3,)),
        smooth=smooth,
        dual_smooth=dual_smooth,
    )


def test_metric_actions_match_dense_inverse():
    rng = np.random.default_rng(31)
    prob = metric_test_problem(rng)
    u_dense, t_dense = dense_metrics(prob)
    u_apply = class1_metric_apply(prob)
    t_apply = class2_metric_apply(prob)
    dims = prob.stacked_dims
    for _ in range(20):
        xy = BlockVector([rng.standard_normal(d) for d in dims])
        flat = xy.concatenated()
        got_u = u_apply(xy).concatenated()
        got_t = t_apply(xy).concatenated()
        assert np.linalg.norm(got_u - u_dense @ flat) <= 1e-10 * max(
            1.0, np.linalg.norm(got_u))
        assert np.linalg.norm(got_t - t_dense @ flat) <= 1e-10 * max(
            1.0, np.linalg.norm(got_t))
    # both dense forms are symmetric positive definite
    for mat in (u_dense, t_dense):
        assert np.allclose(mat, mat.T, atol=1e-10)
        assert np.linalg.eigvalsh(mat)[0] > 0


def test_stacked_map_cocoercive_in_both_metrics():
    rng = np.random.default_rng(37)
    prob = metric_test_problem(rng)
    rep = compute_constants(prob)
    q_map = prob.smooth_pair_map(beta=rep.beta_hat)
    u_apply = class1_metric_apply(prob)
    t_apply = class2_metric_apply(prob)
    dims = prob.stacked_dims
    for _ in range(100):
        x = BlockVector([rng.standard_normal(d) for d in dims])
        y = BlockVector([rng.standard_normal(d) for d in dims])
        dq = q_map.apply(x) - q_map.apply(y)
        lhs = (x - y).dot(dq)
        assert lhs - rep.beta_hat * dq.dot(u_apply(dq)) >= -1e-10
        assert lhs - rep.beta * dq.dot(t_apply(dq)) >= -1e-10


# --- extraction and optimality residuals ------------------------------------------------


def test_extract_roundtrip_and_degenerate():
    rng = np.random.default_rng(41)
    demo = build_lasso(6, 4, 0.1, seed=2)
    prob = pd_problem(demo, "cp")
    xy = BlockVector([rng.standard_normal(4), rng.standard_normal(6)])
    p, d = extract_primal_dual(xy, prob)
    back = block_concat(p, d)
    assert (back - xy).norm() == 0.0
    smooth = pd_problem(demo, "smooth")
    p2, d2 = extract_primal_dual(BlockVector([rng.standard_normal(4)]), smooth)
    assert d2.nblocks == 0


def scalar_cp_problem(lam=0.5, target=2.0):
    return PrimalDualProblem(
        primal_ops=MonotoneBlock.subdiff([ProxFunction.l1(lam)]),
        z=BlockVector.zeros((1,)),
        V=Preconditioner.scalar([0.5], (1,)),
        dual_inverse=MonotoneBlock.conjugate_subdiff([ProxFunction.squared_l2(1.0, 0.0)]),
        r=BlockVector([[target]]),
        W=Preconditioner.scalar([0.5], (1,)),
        coupling=BlockLinearOperator([[np.eye(1)]], (1,), (1,)),
    )


def test_duality_residuals_exact_solution():
    # minimizer of 0.5 (x-2)^2 + 0.5|x| is x = 1.5 with dual v = x - 2 = -0.5
    prob = scalar_cp_problem()
    rep = duality_residuals(BlockVector([[1.5]]), BlockVector([[-0.5]]), prob)
    assert rep.max_residual <= 1e-12
    assert not rep.unchecked


def test_duality_residuals_reject_random_point():
    prob = scalar_cp_problem()
    rep = duality_residuals(BlockVector([[0.3]]), BlockVector([[0.9]]), prob)
    assert rep.max_residual > 0.1


def test_duality_residuals_zero_problem():
    prob = PrimalDualProblem(
        primal_ops=MonotoneBlock.zero(1),
        z=BlockVector.zeros((2,)),
        V=Preconditioner.identity((2,)),
        dual_inverse=MonotoneBlock.zero(1),
        r=BlockVector.zeros((2,)),
        W=Preconditioner.identity((2,)),
        coupling=BlockLinearOperator.zero((2,), (2,)),
    )
    rep = duality_residuals(BlockVector.zeros((2,)), BlockVector.zeros((2,)), prob)
    assert rep.max_residual == 0.0


def test_box_dual_block_is_unchecked_never_zero():
    # a box has no closed-form conjugate rule, so its dual block has no
    # checkable distance; the l1 block beside it stays checked
    prob = PrimalDualProblem(
        primal_ops=MonotoneBlock.zero(1),
        z=BlockVector.zeros((2,)),
        V=Preconditioner.identity((2,)),
        dual_inverse=MonotoneBlock.conjugate_subdiff(
            [ProxFunction.l1(1.0), ProxFunction.box(-1.0, 1.0)]),
        r=BlockVector.zeros((2, 2)),
        W=Preconditioner.identity((2, 2)),
        coupling=BlockLinearOperator([[0.5], [0.5]], (2,), (2, 2)),
    )
    rep = duality_residuals(BlockVector([[0.3, -0.2]]), BlockVector([[0.1, 0.4], [0.2, 0.0]]),
                            prob)
    assert rep.dual_block_res[1] is None and rep.dual_block_res[0] is not None
    assert rep.unchecked == ["dual[1]"]


def conjugate_primal_subdiff_dual_problem(rng):
    """A primal block A = d(g*) (the normal cone of a box), and dual blocks
    B^-1 = d(sq_l2) and B^-1 = M, monotone linear and skew in part."""
    a, b = rng.standard_normal((5, 3)), rng.standard_normal(5)
    v = Preconditioner.scalar([0.5 / np.linalg.norm(a, 2) ** 2], (3,))
    m = rng.standard_normal((2, 2))
    dual_ops = LinearBlocks(
        [MonotoneBlock.rule_subdiff(ProxFunction.squared_l2(2.0, center=np.array([0.3, -0.2])))],
        [m @ m.T + (m - m.T)])
    return PrimalDualProblem(
        primal_ops=MonotoneBlock.conjugate_subdiff([ProxFunction.l1(0.15)]),
        z=BlockVector([rng.standard_normal(3)]),
        V=v,
        dual_inverse=dual_ops,
        r=BlockVector([rng.standard_normal(2), rng.standard_normal(2)]),
        W=Preconditioner.scalar([0.2, 0.2], (2, 2)),
        coupling=BlockLinearOperator([[rng.standard_normal((2, 3))],
                                      [rng.standard_normal((2, 3))]], (3,), (2, 2)),
        smooth=CocoerciveMap.least_squares_gradient(a, b, metric=v),
    )


def test_conjugate_primal_and_subdiff_and_linear_dual_blocks_are_checked():
    prob = conjugate_primal_subdiff_dual_problem(np.random.default_rng(61))
    inst = assemble_class1(prob)
    xy, trace = run(inst, SolverConfig(beta=inst.beta, max_iter=100000, stop_tol=1e-10))
    assert trace.status == "converged"
    primal, dual = extract_primal_dual(xy, prob)
    assert np.sum(np.abs(primal.blocks[0]) == 0.15) >= 1  # on the box's boundary
    rep = duality_residuals(primal, dual, prob)
    assert rep.unchecked == []
    assert all(d is not None for d in rep.primal_block_res + rep.dual_block_res)
    assert rep.max_residual <= 1e-8
    off = duality_residuals(primal + BlockVector([[0.0, 0.0, 0.3]]),
                            dual + BlockVector([[0.2, 0.0], [0.0, -0.3]]), prob)
    assert min(off.primal_block_res + off.dual_block_res) > 0.05


def test_classes_agree_on_ball_constrained_quadratic():
    # smooth quadratic data term, sup-norm-ball dual block, dims (4, 3):
    # with no primal operator both assemblies apply and must agree
    rng = np.random.default_rng(53)
    a_data = rng.standard_normal((6, 4))
    b_data = rng.standard_normal(6)
    l_mat = rng.standard_normal((3, 4))
    gram_top = float(np.linalg.eigvalsh(a_data.T @ a_data)[-1])
    tau = 0.8 / gram_top
    v = Preconditioner.scalar([tau], (4,))
    sigma = 0.25 / (tau * float(np.linalg.norm(l_mat, 2)) ** 2)
    w = Preconditioner.scalar([sigma], (3,))
    prob = PrimalDualProblem(
        primal_ops=MonotoneBlock.zero(1),
        z=BlockVector.zeros((4,)),
        V=v,
        dual_inverse=MonotoneBlock.conjugate_subdiff([ProxFunction.linf_ball(0.5)]),
        r=BlockVector.zeros((3,)),
        W=w,
        coupling=BlockLinearOperator([[l_mat]], (4,), (3,)),
        smooth=CocoerciveMap.least_squares_gradient(a_data, b_data, metric=v),
    )
    rep = compute_constants(prob)
    assert rep.feasible_class1 and rep.feasible_class2
    solutions = []
    for assemble in (assemble_class1, assemble_class2):
        inst = assemble(prob)
        xy, trace = run(inst, SolverConfig(beta=inst.beta, max_iter=100000,
                                           stop_tol=1e-9))
        assert trace.status == "converged"
        p, _ = extract_primal_dual(xy, prob)
        solutions.append(p)
    assert (solutions[0] - solutions[1]).norm() <= 1e-6
    # the constraint the ball indicator encodes holds at the solution
    assert np.abs(l_mat @ solutions[0].blocks[0]).max() <= 0.5 + 1e-7


def test_class1_solves_random_scalar_block_lassos():
    # zero noise, zero inertia, one primal and one dual block: the assembled
    # iteration is a known deterministic primal-dual scheme
    for seed in (3, 4, 5):
        demo = build_lasso(8, 6, 0.2, cond=20.0, seed=seed)
        prob = pd_problem(demo, "cp")
        inst = assemble_class1(prob)
        cfg = SolverConfig(beta=inst.beta, max_iter=50000, stop_tol=1e-10)
        xy, trace = run(inst, cfg)
        assert trace.status == "converged"
        p, _ = extract_primal_dual(xy, prob)
        ref = reference_oracle(demo, tol=1e-10)
        assert (p - ref).norm() <= 1e-6


# compute_constants on every demo form, pinned to 1e-14 relative: the lasso
# split/cp c is the given norm (0.95 by the demo's tau = sigma), the others come
# from the demo's eigenvalues and the norm estimator
LASSO_TALL = {"n": 12, "p": 10, "lam": 0.2, "cond": 20.0, "seed": 3}
LASSO_WIDE = {"n": 8, "p": 14, "lam": 0.2, "cond": 20.0, "seed": 4}
PINNED_CONSTANTS = [
    ("lasso", LASSO_TALL, "smooth",
     {"c": 0.0, "xi_hat": float("nan"), "beta_hat": 0.9900990099009903,
      "beta": 0.9900990099009903}),
    ("lasso", LASSO_TALL, "cp",
     {"c": 0.95, "xi_hat": float("nan"), "beta_hat": float("inf"),
      "beta": float("inf")}),
    ("lasso", LASSO_TALL, "split",
     {"c": 0.95, "xi_hat": float("nan"), "beta_hat": float("inf"),
      "beta": float("inf")}),
    ("lasso", LASSO_WIDE, "cp",
     {"c": 0.95, "xi_hat": float("nan"), "beta_hat": float("inf"),
      "beta": float("inf")}),
    ("lasso", LASSO_WIDE, "split",
     {"c": 0.95, "xi_hat": float("nan"), "beta_hat": float("inf"),
      "beta": float("inf")}),
    ("coupled_box_qp", {"m": 3, "dims": 4, "seed": 0}, None,
     {"c": 0.0, "xi_hat": float("nan"), "beta_hat": 1.237623762376238,
      "beta": 1.237623762376238}),
    ("parallel_sum", {"dims": 6, "mu": 0.5, "lam": 0.3, "seed": 0}, None,
     {"c": 0.49999999999999994, "xi_hat": 0.1120824810797716,
      "beta_hat": 0.8789598229209692, "beta": 1.2376237623762385}),
]


@pytest.mark.parametrize("name,params,form,pinned", PINNED_CONSTANTS,
                         ids=[f"{c[0]}-{c[2]}-{c[1].get('p', '')}" for c in PINNED_CONSTANTS])
def test_constants_match_pinned_values(name, params, form, pinned):
    rep = compute_constants(pd_problem(build_demo(name, params), form))
    for key, want in pinned.items():
        assert getattr(rep, key) == pytest.approx(want, rel=1e-14, nan_ok=True), key
    assert rep.feasible_class1 and rep.feasible_class2


# --- the block-array sweeps against the BlockVector sweeps they replaced -------


def reference_class1_sweep(prob):
    """The class-I sweep in BlockVector arithmetic, as it was before the sweeps
    moved onto block arrays: the byte-for-byte reference."""
    m = prob.m

    def backward(u, gamma, a):
        c, d = block_split(u, m)
        a_p, b_d = block_split(a, m)
        t = prob.coupling.adjoint_apply(d) + a_p - prob.z
        p = prob.primal_ops.resolvent(1.0, prob.V, c - prob.V.apply(t))
        y = (2.0 * p) - c
        u_k = prob.coupling.apply(y) - b_d - prob.r
        q = prob.dual_inverse.resolvent(1.0, prob.W, d + prob.W.apply(u_k))
        return block_concat(p, q)

    return backward


def reference_class2_sweep(prob):
    """The class-II sweep in BlockVector arithmetic; see reference_class1_sweep."""
    m = prob.m

    def backward(u, gamma, a):
        c, d = block_split(u, m)
        a_p, b_d = block_split(a, m)
        s_i = c - prob.V.apply(a_p - prob.z)
        y = s_i - prob.V.apply(prob.coupling.adjoint_apply(d))
        arg = d + prob.W.apply(prob.coupling.apply(y) - b_d - prob.r)
        q = prob.dual_inverse.resolvent(1.0, prob.W, arg)
        p = s_i - prob.V.apply(prob.coupling.adjoint_apply(q))
        return block_concat(p, q)

    return backward


def with_dense_coupling(prob):
    """A copy of prob whose scalar coupling cells s are stored as matrices s I."""
    L = prob.coupling
    out = copy.copy(prob)
    out.coupling = BlockLinearOperator(
        [[c if c is None or c.ndim else float(c) * np.eye(L.dims_in[i])
          for i, c in enumerate(row)] for row in L.entries],
        L.dims_in, L.dims_out)
    return out


def two_by_two_problem(zero_primal):
    """2 primal and 2 dual blocks, a None cell, a scalar cell 0.4 I, diagonal metrics."""
    rng = np.random.default_rng(5)
    pdims, ddims = (3, 4), (3, 2)
    primal = (MonotoneBlock.zero(2) if zero_primal else MonotoneBlock.subdiff(
        [ProxFunction.l1(0.3), ProxFunction.box(-np.ones(4), np.ones(4))]))
    return PrimalDualProblem(
        primal_ops=primal,
        z=BlockVector([rng.standard_normal(d) for d in pdims]),
        V=Preconditioner.diagonal([rng.uniform(0.1, 0.3, d) for d in pdims]),
        dual_inverse=MonotoneBlock.conjugate_subdiff(
            [ProxFunction.l1(0.5), ProxFunction.squared_l2(2.0, 0.1)]),
        r=BlockVector([rng.standard_normal(d) for d in ddims]),
        W=Preconditioner.diagonal([rng.uniform(0.1, 0.3, d) for d in ddims]),
        coupling=BlockLinearOperator(
            [[0.4, rng.standard_normal((3, 4))], [rng.standard_normal((2, 3)), None]],
            pdims, ddims),
        smooth=CocoerciveMap.scaled_identity(pdims, 0.5, metric=Preconditioner.identity(pdims)),
    )


def signed_zero_shift_problem():
    """Zero primal operators, r all +0.0, and z = (a block with a -0.0 entry,
    the zero block (-0.0, +0.0)). No coupling cell reaches primal block 1, so
    its sweep output is s = c - V (a_p - z) itself, where subtracting the
    -0.0 shows in the sign of a zero."""
    rng = np.random.default_rng(6)
    pdims, ddims = (3, 2), (3,)
    z = [rng.standard_normal(3), np.array([-0.0, 0.0])]
    z[0][0] = -0.0
    return PrimalDualProblem(
        primal_ops=MonotoneBlock.zero(2),
        z=BlockVector(z),
        V=Preconditioner.diagonal([rng.uniform(0.1, 0.3, d) for d in pdims]),
        dual_inverse=MonotoneBlock.conjugate_subdiff([ProxFunction.l1(0.5)]),
        r=BlockVector.zeros(ddims),
        W=Preconditioner.diagonal([rng.uniform(0.1, 0.3, d) for d in ddims]),
        coupling=BlockLinearOperator([[rng.standard_normal((3, 3)), None]], pdims, ddims),
        smooth=CocoerciveMap.scaled_identity(pdims, 0.5, metric=Preconditioner.identity(pdims)),
    )


METRIC_KINDS = {
    # a scalar metric with one factor for every block and with one factor per
    # block, a diagonal one whose entries are one number, a diagonal one, and
    # the identity
    "scalar-one-factor": lambda rng, dims: Preconditioner.scalar([0.3] * len(dims), dims),
    "scalar-per-block": lambda rng, dims: Preconditioner.scalar(
        rng.uniform(0.2, 0.4, len(dims)), dims),
    "diagonal-one-value": lambda rng, dims: Preconditioner.diagonal(
        [np.full(d, 0.25) for d in dims]),
    "diagonal": lambda rng, dims: Preconditioner.diagonal(
        [rng.uniform(0.2, 0.4, d) for d in dims]),
    "identity": lambda rng, dims: Preconditioner.identity(dims),
}


def compiled_sweep_problem(v_kind, w_kind, zero_primal):
    """Each thing the compiled sweeps branch on: dense cells, scalar cells 1
    and -0.7, None cells, a primal block that no cell reaches and a dual
    block row with no cell; the metric kinds of V and W; z holding only
    -0.0 and +0.0 entries, and r one block with a -0.0, one nonzero and two
    all +0.0.
    The metrics that are not the identity are scaled so that c = 0.6."""
    rng = np.random.default_rng(8)
    pdims, ddims = (3, 3, 2, 2), (3, 3, 2, 2)
    coupling = BlockLinearOperator(
        [[0.3 * rng.standard_normal((3, 3)), 1.0, None, None],
         [-0.7, None, 0.3 * rng.standard_normal((3, 2)), None],
         [None, None, 1.0, None],
         [None, None, None, None]], pdims, ddims)
    V, W = METRIC_KINDS[v_kind](rng, pdims), METRIC_KINDS[w_kind](rng, ddims)
    scaled = [m for m in (V, W) if m.factor is not None]
    f = (0.6 / estimate_weighted_norm(coupling, V, W)) ** (2 / len(scaled))
    V, W = (m if m.factor is None else
            Preconditioner(m.dims, [f * b for b in m.diag_blocks()]) for m in (V, W))
    z = [np.array([-0.0, 0.0, 0.0]), np.zeros(3), np.zeros(2), np.array([0.0, -0.0])]
    r = [np.array([0.0, -0.0, 0.0]), rng.standard_normal(3), np.zeros(2), np.zeros(2)]
    primal = (MonotoneBlock.zero(4) if zero_primal else MonotoneBlock.subdiff(
        [ProxFunction.l1(0.3), ProxFunction.box(-np.ones(3), np.ones(3)),
         ProxFunction.zero(), ProxFunction.squared_l2(0.5, 0.2)]))
    return PrimalDualProblem(
        primal_ops=primal, z=BlockVector(z), V=V,
        dual_inverse=MonotoneBlock.conjugate_subdiff(
            [ProxFunction.l1(0.5), ProxFunction.squared_l2(2.0, 0.1),
             ProxFunction.box(-np.ones(2), np.ones(2)), ProxFunction.l1(0.2)]),
        r=BlockVector(r), W=W, coupling=coupling)


def compiled_case(v_kind, w_kind, classes):
    return (f"compiled-V-{v_kind}-W-{w_kind}",
            lambda: compiled_sweep_problem(v_kind, w_kind, zero_primal=True),
            classes)


LASSO_20x30 = {"n": 20, "p": 30, "lam": 0.1, "cond": 10.0, "seed": 3}
BOTH, CLASS1 = ("class1", "class2"), ("class1",)
# (id, problem, classes that assemble it); class II needs every primal operator zero
SWEEP_CASES = [
    ("split-tall", lambda: pd_problem(build_demo("lasso", LASSO_TALL), "split"), BOTH),
    ("split-20x30", lambda: pd_problem(build_demo("lasso", LASSO_20x30), "split"), BOTH),
    ("cp", lambda: pd_problem(build_demo("lasso", LASSO_WIDE), "cp"), CLASS1),
    ("parallel_sum", lambda: pd_problem(build_demo(
        "parallel_sum", {"dims": 6, "mu": 0.5, "lam": 0.3, "seed": 0})), BOTH),
    ("coupled_box_qp", lambda: pd_problem(build_demo(
        "coupled_box_qp", {"m": 3, "dims": 4, "seed": 0})), CLASS1),
    ("two_by_two", lambda: two_by_two_problem(zero_primal=False), CLASS1),
    ("two_by_two-zero-primal", lambda: two_by_two_problem(zero_primal=True), BOTH),
    ("signed-zero-shifts", signed_zero_shift_problem, BOTH),
    compiled_case("scalar-one-factor", "diagonal", BOTH),
    compiled_case("scalar-per-block", "identity", BOTH),
    compiled_case("diagonal-one-value", "scalar-one-factor", BOTH),
    compiled_case("identity", "scalar-per-block", BOTH),
    compiled_case("diagonal", "diagonal-one-value", BOTH),
    ("compiled-primal-resolvents", lambda: compiled_sweep_problem(
        "diagonal", "scalar-per-block", zero_primal=False), CLASS1),
]


@pytest.mark.parametrize("make,which", [
    pytest.param(make, which, id=f"{name}-{which}")
    for name, make, classes in SWEEP_CASES for which in classes])
def test_block_array_sweeps_match_blockvector_reference_bytes(make, which):
    prob = make()
    assemble = assemble_class1 if which == "class1" else assemble_class2
    reference = (reference_class1_sweep if which == "class1"
                 else reference_class2_sweep)(with_dense_coupling(prob))
    inst = assemble(prob, noise=NoiseSchedule.polynomial(0.3, 0.75), seed=11)
    ref_inst = blockvector_instance(inst.oracle, inst.x0, inst.beta, reference, gamma_fixed=1.0)
    rng = np.random.default_rng(17)
    for _ in range(20):
        # about half the entries -0.0, so that signed zeros meet the shifts
        u, a = (BlockVector([np.where(rng.random(d) < 0.5, -0.0, rng.standard_normal(d))
                             for d in prob.stacked_dims]) for _ in range(2))
        got, want = inst.backward(u, 1.0, a), reference(u, 1.0, a)
        assert got.dims == want.dims
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got.blocks, want.blocks))
        assert all(not g.flags.writeable for g in got.blocks)
    # whole noisy inertial runs: the same trace and iterate bytes
    cfg = SolverConfig(beta=inst.beta, max_iter=300, stop_tol=0.0,
                       inertia=InertiaSchedule.polynomial(0.3, 1.5))
    x, trace = run(inst, cfg)
    x_ref, trace_ref = run(ref_inst, cfg)
    assert trace.iterations == trace_ref.iterations == 300
    assert csv_text(trace) == csv_text(trace_ref)
    assert x.concatenated().tobytes() == x_ref.concatenated().tobytes()


@pytest.mark.parametrize("make", [
    split_lasso, lambda: compiled_sweep_problem("scalar-per-block", "diagonal", True)],
    ids=["split-lasso", "compiled"])
def test_relaxed_noisy_class2_run_misses_the_kept_adjoint_and_matches_the_reference(
        monkeypatch, make):
    # at lambda = 0.9 the next point is never the last output, so every sweep
    # makes both adjoint products; noisy draws at alpha = 0
    prob = make()
    inst = assemble_class2(prob, noise=NoiseSchedule.polynomial(0.3, 0.75), seed=5)
    ref_inst = blockvector_instance(inst.oracle, inst.x0, inst.beta,
                                    reference_class2_sweep(with_dense_coupling(prob)),
                                    gamma_fixed=1.0)
    cfg = SolverConfig(beta=inst.beta, max_iter=200, stop_tol=0.0, relaxation=0.9)
    adjoints = []
    adjoint = BlockLinearOperator.adjoint_apply_blocks

    def counting_adjoint(self, vs, out=None):
        adjoints.append(1)
        return adjoint(self, vs, out)

    monkeypatch.setattr(BlockLinearOperator, "adjoint_apply_blocks", counting_adjoint)
    x, trace = run(inst, cfg)
    monkeypatch.undo()
    # one sweep per step and one per recorded row
    sweeps = trace.iterations + len(trace.rows)
    assert trace.iterations == 200 and len(adjoints) == 2 * sweeps
    x_ref, trace_ref = run(ref_inst, cfg)
    assert csv_text(trace) == csv_text(trace_ref)
    assert x.concatenated().tobytes() == x_ref.concatenated().tobytes()


@pytest.mark.parametrize("assemble", [assemble_class1, assemble_class2])
def test_sweep_refuses_iterate_or_draw_of_wrong_dims(assemble):
    prob = two_by_two_problem(zero_primal=True)
    backward = assemble(prob).backward
    good = BlockVector.zeros(prob.stacked_dims)
    for bad in (BlockVector.zeros((3, 4, 3, 3)), BlockVector.zeros((3, 4, 3)),
                BlockVector.zeros(prob.stacked_dims + (1,))):
        with pytest.raises(DimensionMismatch, match="iterate dims"):
            backward(bad, 1.0, good)
        with pytest.raises(DimensionMismatch, match="draw dims"):
            backward(good, 1.0, bad)
