"""Demo problem builders: convex minimization instances mapped onto the
solver and the primal-dual assemblies, with independent reference oracles.

Every acceptance number for these problems comes from the independent
solvers in `oracles`, generated at desk scale; nothing here is quoted from
elsewhere. Data matrices are synthesized from seeded orthogonal factors with
a geometric singular-value ladder, so instances are reproducible and have a
controlled condition number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracles
from .errors import ConfigurationError
from .operators import CocoerciveMap, MonotoneBlock, ProxFunction
from .primal_dual import PrimalDualProblem
from .solver import ProblemInstance
from .spaces import BlockLinearOperator, BlockVector, Preconditioner
from .stochastic import StochasticOracle


@dataclass
class DemoProblem:
    name: str                      # "lasso" | "coupled_box_qp" | "parallel_sum"
    params: dict
    data: dict


def _conditioned_matrix(rng, n, p, cond):
    """n x p matrix with unit top singular value and kappa(A'A) = cond."""
    k = min(n, p)
    qu, _ = np.linalg.qr(rng.standard_normal((n, k)))
    qv, _ = np.linalg.qr(rng.standard_normal((p, k)))
    if k == 1:
        svals = np.ones(1)
    else:
        svals = np.geomspace(1.0, cond ** -0.5, k)
    return (qu * svals[None, :]) @ qv.T


def build_lasso(n, p, lam, cond=10.0, seed=0):
    """min 0.5 ||A x - b||^2 + lam ||x||_1 with synthetic data."""
    if n < 1 or p < 1:
        raise ConfigurationError(f"need n, p >= 1, got ({n}, {p})")
    if lam < 0:
        raise ConfigurationError(f"lam must be nonnegative, got {lam}")
    rng = np.random.default_rng(seed)
    a = _conditioned_matrix(rng, n, p, cond)
    x_true = np.zeros(p)
    support = rng.choice(p, size=max(1, p // 5), replace=False)
    x_true[support] = rng.standard_normal(support.size)
    b = a @ x_true + 0.05 * rng.standard_normal(n)
    return DemoProblem(
        name="lasso",
        params={"n": int(n), "p": int(p), "lam": float(lam),
                "cond": float(cond), "seed": int(seed)},
        data={"a": a, "b": b},
    )


def build_coupled_system(m, dims, seed=0):
    """m-block box-constrained quadratic with dense off-diagonal coupling."""
    if m < 2:
        raise ConfigurationError(f"need at least 2 blocks, got {m}")
    rng = np.random.default_rng(seed)
    total = int(m) * int(dims)
    g = rng.standard_normal((total, total))
    q = g.T @ g
    q /= float(np.linalg.eigvalsh(q)[-1])
    if float(np.linalg.eigvalsh(q)[0]) < 0.0:
        q = q + 1e-6 * np.eye(total)
    c = rng.standard_normal(total)
    return DemoProblem(
        name="coupled_box_qp",
        params={"m": int(m), "dims": int(dims), "seed": int(seed)},
        data={"q": q, "c": c, "lo": -1.0, "hi": 1.0},
    )


def build_parallel_sum_instance(dims, mu, lam, seed=0, g_family="l1"):
    """min 0.5 ||A x - b||^2 + (smoothing box l1)(x): an infimal-convolution
    regularizer realized through a dual block with a single-valued inverse."""
    if mu <= 0:
        raise ConfigurationError(f"smoothing mu must be positive, got {mu}")
    if lam < 0:
        raise ConfigurationError(f"lam must be nonnegative, got {lam}")
    if g_family == "zero":
        raise ConfigurationError(
            "a zero dual function makes the infimal convolution degenerate; "
            "use lam=0 for the purely smooth reduction instead"
        )
    if g_family != "l1":
        raise ConfigurationError(f"unsupported dual family {g_family!r}")
    rng = np.random.default_rng(seed)
    p = int(dims)
    a = _conditioned_matrix(rng, p + 10, p, 10.0)
    x_true = rng.standard_normal(p)
    b = a @ x_true + 0.05 * rng.standard_normal(p + 10)
    return DemoProblem(
        name="parallel_sum",
        params={"dims": p, "mu": float(mu), "lam": float(lam), "seed": int(seed)},
        data={"a": a, "b": b},
    )


# ---------------------------------------------------------------------------
# routes onto the solver
# ---------------------------------------------------------------------------


def sifb_instance(demo, noise=None, seed=0, oracle_mode="additive_gaussian",
                  batch0=1):
    """The demo problem as a plain forward-backward instance."""
    if demo.name == "lasso":
        a, b, lam = demo.data["a"], demo.data["b"], demo.params["lam"]
        dims = (a.shape[1],)
        u = Preconditioner.identity(dims)
        grad = CocoerciveMap.least_squares_gradient(a, b, metric=u)
        op = MonotoneBlock.subdiff([ProxFunction.l1(lam)])
        oracle = StochasticOracle(grad, noise=noise, rng_seed=seed,
                                  mode=oracle_mode, batch0=batch0)
        return ProblemInstance.forward_backward(op, oracle, u, BlockVector.zeros(dims))
    if demo.name == "coupled_box_qp":
        m, d = demo.params["m"], demo.params["dims"]
        dims = (d,) * m
        u = Preconditioner.identity(dims)
        b_map = CocoerciveMap.linear(demo.data["q"], -demo.data["c"], dims=dims,
                                     metric=u)
        lo, hi = demo.data["lo"], demo.data["hi"]
        op = MonotoneBlock.subdiff(
            [ProxFunction.box(lo * np.ones(d), hi * np.ones(d)) for _ in range(m)]
        )
        oracle = StochasticOracle(b_map, noise=noise, rng_seed=seed,
                                  mode=oracle_mode, batch0=batch0)
        return ProblemInstance.forward_backward(op, oracle, u, BlockVector.zeros(dims))
    if demo.name == "parallel_sum":
        a, b = demo.data["a"], demo.data["b"]
        lam, mu = demo.params["lam"], demo.params["mu"]
        p = a.shape[1]
        dims = (p,)
        u = Preconditioner.identity(dims)
        gram = a.T @ a
        atb = a.T @ b
        lip = float(np.linalg.eigvalsh(gram)[-1]) + (1.0 / mu if lam > 0 else 0.0)

        def grad_fn(x):
            xb = x.blocks[0]
            g = gram @ xb - atb
            if lam > 0:
                g = g + np.clip(xb / mu, -lam, lam)
            return BlockVector._wrap([g])

        b_map = CocoerciveMap.from_callable(dims, grad_fn, beta=1.0 / (1.01 * lip),
                                            metric=u)
        op = MonotoneBlock.zero(1)
        oracle = StochasticOracle(b_map, noise=noise, rng_seed=seed,
                                  mode=oracle_mode, batch0=batch0)
        return ProblemInstance.forward_backward(op, oracle, u, BlockVector.zeros(dims))
    raise ConfigurationError(f"unknown demo problem {demo.name!r}")


def _lasso_pd_smooth(demo):
    """No dual block: the quadratic enters as the smooth coupling."""
    a, b, lam = demo.data["a"], demo.data["b"], demo.params["lam"]
    p = a.shape[1]
    gram_top = float(np.linalg.eigvalsh(a.T @ a)[-1])
    tau = 1.0 / gram_top
    v = Preconditioner.scalar([tau], (p,))
    smooth = CocoerciveMap.least_squares_gradient(a, b, metric=v)
    return PrimalDualProblem(
        primal_ops=MonotoneBlock.subdiff([ProxFunction.l1(lam)]),
        z=BlockVector.zeros((p,)),
        V=v,
        dual_inverse=MonotoneBlock.zero(0),
        r=BlockVector.zeros(()),
        W=Preconditioner.identity(()),
        coupling=BlockLinearOperator.zero((p,), ()),
        smooth=smooth,
    )


def _lasso_pd_cp(demo):
    """One dual block: the quadratic is dualized through the data matrix."""
    a, b, lam = demo.data["a"], demo.data["b"], demo.params["lam"]
    n, p = a.shape
    norm_a = float(np.sqrt(np.linalg.eigvalsh(a.T @ a)[-1]))
    tau = sigma = 0.95 / norm_a
    return PrimalDualProblem(
        primal_ops=MonotoneBlock.subdiff([ProxFunction.l1(lam)]),
        z=BlockVector.zeros((p,)),
        V=Preconditioner.scalar([tau], (p,)),
        dual_inverse=MonotoneBlock.conjugate_subdiff([ProxFunction.squared_l2(1.0, 0.0)]),
        r=BlockVector([b]),
        W=Preconditioner.scalar([sigma], (n,)),
        coupling=BlockLinearOperator([[a]], (p,), (n,)),
    )


def _lasso_pd_split(demo):
    """Fully dualized: no primal operator, both terms enter as dual blocks.

    The l1 term rides through an identity coupling row, so its dual iterate
    lives in the lam-radius sup-norm ball.
    """
    a, b, lam = demo.data["a"], demo.data["b"], demo.params["lam"]
    n, p = a.shape
    stack_top = float(np.linalg.eigvalsh(a.T @ a + np.eye(p))[-1])
    tau = sigma = 0.95 / float(np.sqrt(stack_top))
    return PrimalDualProblem(
        primal_ops=MonotoneBlock.zero(1),
        z=BlockVector.zeros((p,)),
        V=Preconditioner.scalar([tau], (p,)),
        dual_inverse=MonotoneBlock.conjugate_subdiff(
            [ProxFunction.squared_l2(1.0, 0.0), ProxFunction.l1(lam)]
        ),
        r=BlockVector([b, np.zeros(p)]),
        W=Preconditioner.scalar([sigma, sigma], (n, p)),
        coupling=BlockLinearOperator([[a], [np.eye(p)]], (p,), (n, p)),
    )


def pd_problem(demo, form=None):
    """The demo problem as a structured primal-dual instance.

    Lasso offers three splittings: "smooth" (no dual block), "cp" (quadratic
    dualized), and "split" (everything dualized; the only form with all
    primal operators zero, hence the class-II route). Default "split".
    """
    if demo.name == "lasso":
        form = form or "split"
        builders = {"smooth": _lasso_pd_smooth, "cp": _lasso_pd_cp,
                    "split": _lasso_pd_split}
        if form not in builders:
            raise ConfigurationError(
                f"unknown lasso form {form!r}; expected one of {sorted(builders)}"
            )
        return builders[form](demo)
    if demo.name == "coupled_box_qp":
        if form not in (None, "smooth"):
            raise ConfigurationError(f"coupled system has no form {form!r}")
        m, d = demo.params["m"], demo.params["dims"]
        dims = (d,) * m
        tau = 0.8  # top curvature is normalized to 1
        v = Preconditioner.scalar([tau] * m, dims)
        smooth = CocoerciveMap.linear(demo.data["q"], -demo.data["c"], dims=dims,
                                      metric=v)
        lo, hi = demo.data["lo"], demo.data["hi"]
        return PrimalDualProblem(
            primal_ops=MonotoneBlock.subdiff(
                [ProxFunction.box(lo * np.ones(d), hi * np.ones(d)) for _ in range(m)]
            ),
            z=BlockVector.zeros(dims),
            V=v,
            dual_inverse=MonotoneBlock.zero(0),
            r=BlockVector.zeros(()),
            W=Preconditioner.identity(()),
            coupling=BlockLinearOperator.zero(dims, ()),
            smooth=smooth,
        )
    if demo.name == "parallel_sum":
        if form is not None:
            raise ConfigurationError(f"parallel-sum instance has no form {form!r}")
        a = demo.data["a"]
        lam, mu = demo.params["lam"], demo.params["mu"]
        p = a.shape[1]
        gram_top = float(np.linalg.eigvalsh(a.T @ a)[-1])
        tau = 0.8 / gram_top
        v = Preconditioner.scalar([tau], (p,))
        smooth = CocoerciveMap.least_squares_gradient(a, demo.data["b"], metric=v)
        nu0 = smooth.beta
        sigma = min(0.25 / tau, 1.0 / (2.0 * nu0 * mu))
        w = Preconditioner.scalar([sigma], (p,))
        dual_smooth = CocoerciveMap.scaled_identity((p,), mu, metric=w)
        return PrimalDualProblem(
            primal_ops=MonotoneBlock.zero(1),
            z=BlockVector.zeros((p,)),
            V=v,
            dual_inverse=MonotoneBlock.conjugate_subdiff([ProxFunction.l1(lam)]),
            r=BlockVector.zeros((p,)),
            W=w,
            coupling=BlockLinearOperator([[np.eye(p)]], (p,), (p,)),
            smooth=smooth,
            dual_smooth=dual_smooth,
        )
    raise ConfigurationError(f"unknown demo problem {demo.name!r}")


# ---------------------------------------------------------------------------
# objectives and reference solutions
# ---------------------------------------------------------------------------


def objective(demo, x):
    """Objective value at a primal point (BlockVector or flat array)."""
    flat = x.concatenated() if isinstance(x, BlockVector) else np.asarray(x, dtype=np.float64)
    if demo.name == "lasso":
        a, b, lam = demo.data["a"], demo.data["b"], demo.params["lam"]
        r = a @ flat - b
        return float(0.5 * np.dot(r, r) + lam * np.abs(flat).sum())
    if demo.name == "coupled_box_qp":
        q, c = demo.data["q"], demo.data["c"]
        lo, hi = demo.data["lo"], demo.data["hi"]
        if np.any(flat < lo - 1e-9) or np.any(flat > hi + 1e-9):
            return float("inf")
        z = np.clip(flat, lo, hi)
        return float(0.5 * z @ q @ z - c @ z)
    if demo.name == "parallel_sum":
        a, b = demo.data["a"], demo.data["b"]
        lam, mu = demo.params["lam"], demo.params["mu"]
        r = a @ flat - b
        # closed-form infimal convolution of the smoother with lam l1
        return float(0.5 * np.dot(r, r) + oracles.huber_value(flat, lam, mu))
    raise ConfigurationError(f"unknown demo problem {demo.name!r}")


def reference_oracle(demo, tol=1e-10):
    """Ground-truth primal solution from an independent method."""
    if demo.name == "lasso":
        if demo.params["lam"] == 0.0:
            x = oracles.least_squares(demo.data["a"], demo.data["b"])
        else:
            x = oracles.ista_lasso(demo.data["a"], demo.data["b"],
                                   demo.params["lam"], tol=tol)
        return BlockVector([x])
    if demo.name == "coupled_box_qp":
        x = oracles.projected_gradient_box(demo.data["q"], demo.data["c"],
                                           demo.data["lo"], demo.data["hi"], tol=tol)
        d = demo.params["dims"]
        return BlockVector([x[i * d:(i + 1) * d] for i in range(demo.params["m"])])
    if demo.name == "parallel_sum":
        if demo.params["lam"] == 0.0:
            x = oracles.least_squares(demo.data["a"], demo.data["b"])
        else:
            x = oracles.smoothed_lasso_ista(demo.data["a"], demo.data["b"],
                                            demo.params["lam"], demo.params["mu"],
                                            tol=tol)
        return BlockVector([x])
    raise ConfigurationError(f"unknown demo problem {demo.name!r}")


BUILDERS = {
    "lasso": build_lasso,
    "coupled_box_qp": build_coupled_system,
    "parallel_sum": build_parallel_sum_instance,
}


def build_demo(name, params):
    """Config-facing entry: build a demo problem by name and parameter dict."""
    if name not in BUILDERS:
        raise ConfigurationError(
            f"unknown demo problem {name!r}; expected one of {sorted(BUILDERS)}"
        )
    return BUILDERS[name](**params)
