"""Demo problem builders: convex minimization instances mapped onto the
solver and the primal-dual assemblies, with independent reference oracles.

One class per demo; the module-level functions are the public entry points.
Every acceptance number for these problems comes from the independent
solvers in `oracles`, generated at desk scale; nothing here is quoted from
elsewhere. Data matrices are synthesized from seeded orthogonal factors with
a geometric singular-value ladder, so instances are reproducible and have a
controlled condition number. The builders, the demo's spectrum (`gram_top`)
and the reference (`certified_reference`) run at one BLAS thread
(`spaces.one_blas_thread`): a threaded QR or eigensolve splits its sums by
thread, and a demo's numbers would then depend on the thread count.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import oracles
from .errors import ConfigurationError, InvalidValue, bind_config
from .operators import BETA_DEFLATION, CocoerciveMap, MonotoneBlock, ProxFunction
from .primal_dual import PrimalDualProblem
from .solver import ProblemInstance
from .spaces import BlockLinearOperator, BlockVector, Preconditioner, one_blas_thread
from .stochastic import StochasticOracle


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


def _rng(seed):
    """The data generator of a demo; a negative seed is a config error, not numpy's."""
    if seed < 0:
        raise InvalidValue(f"demo seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


# the sifb route's problem; a beta of None takes the map's own constant
ForwardBackwardProblem = namedtuple("ForwardBackwardProblem", "operator map metric x0 beta")


@dataclass
class DemoProblem:
    """A demo problem. A subclass sets `name` and `forms` (primal-dual form ->
    builder, the default first; a None key is an unnamed form) and implements
    `dims`, `split` (operator and cocoercive map in a given metric), `value`
    (objective at a flat point) and `solve` (flat reference solution and its
    certificate, from `oracles`)."""

    params: dict
    data: dict
    _gram_top: tuple = field(default=None, init=False, repr=False, compare=False)

    def gram_top(self):
        """lambda_max of A'A for a demo whose data hold a matrix A ("a"), from
        the smaller Gram matrix (`oracles.gram_top`).

        One eigensolve per demo: the value is kept in a one-slot cache keyed
        on the identity of A, so data given a new A get their own. The
        demo's forms, its reference and the lasso's `split` in the identity
        metric (the sifb route's map) read it; a split in another metric
        solves its own weighted spectrum. Two threads asking at once each
        solve and store the same float. The solve runs at one BLAS thread; a
        cached read makes no BLAS call.
        """
        a = self.data["a"]
        last = self._gram_top
        if last is None or last[0] is not a:
            with one_blas_thread:
                last = self._gram_top = (a, oracles.gram_top(a))
        return last[1]

    def forward_backward(self):
        """The demo's split in the identity metric, from x0 = 0."""
        metric = Preconditioner.identity(self.dims)
        operator, b_map = self.split(metric)
        return ForwardBackwardProblem(operator, b_map, metric, BlockVector.zeros(self.dims), None)

    def check_form(self, form):
        """The declared form `form` names (None: the default), or refuse it."""
        if form is None:
            return next(iter(self.forms))
        if form not in self.forms:
            raise ConfigurationError(f"demo {self.name!r} has no form {form!r}; "
                                     f"declared: {sorted(f for f in self.forms if f)}")
        return form

    def _smooth_form(self, v):
        """No dual block: the split's map, in the metric V, is the smooth term."""
        op, smooth = self.split(v)
        return PrimalDualProblem(
            primal_ops=op,
            z=BlockVector.zeros(self.dims),
            V=v,
            dual_inverse=MonotoneBlock.zero(0),
            r=BlockVector.zeros(()),
            W=Preconditioner.identity(()),
            coupling=BlockLinearOperator.zero(self.dims, ()),
            smooth=smooth,
        )


class Lasso(DemoProblem):
    """Forms: "split" (everything dualized; the only form with all primal
    operators zero, hence the class-II route), "smooth" (no dual block) and
    "cp" (quadratic dualized)."""

    name = "lasso"

    @classmethod
    @one_blas_thread
    def build(cls, n: int, p: int, lam: float, cond: float = 10.0, seed: int = 0):
        """min 0.5 ||A x - b||^2 + lam ||x||_1 with synthetic data."""
        if n < 1 or p < 1:
            raise InvalidValue(f"need n, p >= 1, got ({n}, {p})")
        if not lam >= 0:
            raise InvalidValue(f"lam must be nonnegative, got {lam}")
        if not 1 <= cond < np.inf:
            raise InvalidValue(f"cond must be finite and at least 1, got {cond}")
        rng = _rng(seed)
        a = _conditioned_matrix(rng, n, p, cond)
        x_true = np.zeros(p)
        support = rng.choice(p, size=max(1, p // 5), replace=False)
        x_true[support] = rng.standard_normal(support.size)
        b = a @ x_true + 0.05 * rng.standard_normal(n)
        return cls(
            params={"n": int(n), "p": int(p), "lam": float(lam),
                    "cond": float(cond), "seed": int(seed)},
            data={"a": a, "b": b},
        )

    @property
    def dims(self):
        return (self.data["a"].shape[1],)

    def split(self, metric):
        # in the identity metric the map's lambda_max is the demo's one solve
        top = self.gram_top() if metric.kind == "identity" else None
        grad = CocoerciveMap.least_squares_gradient(self.data["a"], self.data["b"],
                                                    metric=metric, top=top)
        return MonotoneBlock.subdiff([ProxFunction.l1(self.params["lam"])]), grad

    def _form_smooth(self):
        return self._smooth_form(Preconditioner.scalar([1.0 / self.gram_top()], self.dims))

    def _form_cp(self):
        """One dual block: the quadratic is dualized through the data matrix.

        ||A||^2 = lambda_max(A'A), the demo's one spectrum, so with tau = sigma
        the coupling norm sqrt(tau sigma) ||A|| is tau ||A||, given to the
        problem rather than solved for again.
        """
        a, b, lam = self.data["a"], self.data["b"], self.params["lam"]
        n, p = a.shape
        root = float(np.sqrt(self.gram_top()))
        tau = sigma = 0.95 / root
        return PrimalDualProblem(
            primal_ops=MonotoneBlock.subdiff([ProxFunction.l1(lam)]),
            z=BlockVector.zeros((p,)),
            V=Preconditioner.scalar([tau], (p,)),
            dual_inverse=MonotoneBlock.conjugate_subdiff(
                [ProxFunction.squared_l2(1.0, 0.0)]),
            r=BlockVector([b]),
            W=Preconditioner.scalar([sigma], (n,)),
            coupling=BlockLinearOperator([[a]], (p,), (n,)),
            norm=tau * root,
        )

    def _form_split(self):
        """Fully dualized: no primal operator, both terms enter as dual blocks.

        The l1 term rides through an identity coupling row, so its dual iterate
        lives in the lam-radius sup-norm ball. The stacked coupling K = [A; I]
        has ||K||^2 = lambda_max(A'A) + 1, from the demo's one spectrum, so
        with tau = sigma the coupling norm tau ||K|| is given to the problem
        rather than solved for again.
        """
        a, b, lam = self.data["a"], self.data["b"], self.params["lam"]
        n, p = a.shape
        root = float(np.sqrt(self.gram_top() + 1.0))
        tau = sigma = 0.95 / root
        return PrimalDualProblem(
            primal_ops=MonotoneBlock.zero(1),
            z=BlockVector.zeros((p,)),
            V=Preconditioner.scalar([tau], (p,)),
            dual_inverse=MonotoneBlock.conjugate_subdiff(
                [ProxFunction.squared_l2(1.0, 0.0), ProxFunction.l1(lam)]
            ),
            r=BlockVector([b, np.zeros(p)]),
            W=Preconditioner.scalar([sigma, sigma], (n, p)),
            coupling=BlockLinearOperator([[a], [1.0]], (p,), (n, p)),
            norm=tau * root,
        )

    forms = {"split": _form_split, "smooth": _form_smooth, "cp": _form_cp}

    def value(self, flat):
        a, b, lam = self.data["a"], self.data["b"], self.params["lam"]
        r = a @ flat - b
        return float(0.5 * np.dot(r, r) + lam * np.abs(flat).sum())

    def solve(self, tol):
        if self.params["lam"] == 0.0:
            return oracles.least_squares(self.data["a"], self.data["b"])
        return oracles.ista_lasso(self.data["a"], self.data["b"],
                                  self.params["lam"], tol=tol, top=self.gram_top())


class CoupledBoxQP(DemoProblem):
    """One form, "smooth": the quadratic enters as the smooth term."""

    name = "coupled_box_qp"

    @classmethod
    @one_blas_thread
    def build(cls, m: int, dims: int, seed: int = 0):
        """m-block box-constrained quadratic with dense off-diagonal coupling."""
        if m < 2:
            raise InvalidValue(f"need at least 2 blocks, got {m}")
        if dims < 1:
            raise InvalidValue(f"dims must be at least 1, got {dims}")
        rng = _rng(seed)
        total = int(m) * int(dims)
        g = rng.standard_normal((total, total))
        q = g.T @ g
        q /= float(np.linalg.eigvalsh(q)[-1])
        if float(np.linalg.eigvalsh(q)[0]) < 0.0:
            q = q + 1e-6 * np.eye(total)
        c = rng.standard_normal(total)
        return cls(
            params={"m": int(m), "dims": int(dims), "seed": int(seed)},
            data={"q": q, "c": c, "lo": -1.0, "hi": 1.0},
        )

    @property
    def dims(self):
        return (self.params["dims"],) * self.params["m"]

    def split(self, metric):
        d, lo, hi = self.params["dims"], self.data["lo"], self.data["hi"]
        boxes = MonotoneBlock.subdiff(
            [ProxFunction.box(lo * np.ones(d), hi * np.ones(d))
             for _ in range(self.params["m"])]
        )
        return boxes, CocoerciveMap.linear(self.data["q"], -self.data["c"],
                                           dims=self.dims, metric=metric)

    def _form_smooth(self):
        tau = 0.8  # top curvature is normalized to 1
        return self._smooth_form(Preconditioner.scalar([tau] * self.params["m"], self.dims))

    forms = {"smooth": _form_smooth}

    def value(self, flat):
        q, c = self.data["q"], self.data["c"]
        lo, hi = self.data["lo"], self.data["hi"]
        if np.any(flat < lo - 1e-9) or np.any(flat > hi + 1e-9):
            return float("inf")
        z = np.clip(flat, lo, hi)
        return float(0.5 * z @ q @ z - c @ z)

    def solve(self, tol):
        return oracles.projected_gradient_box(self.data["q"], self.data["c"],
                                              self.data["lo"], self.data["hi"],
                                              tol=tol)


class ParallelSum(DemoProblem):
    """One primal-dual form, which has no name."""

    name = "parallel_sum"

    @classmethod
    @one_blas_thread
    def build(cls, dims: int, mu: float, lam: float, seed: int = 0):
        """min 0.5 ||A x - b||^2 + (smoothing box l1)(x): an infimal-convolution
        regularizer realized through a dual block with a single-valued inverse."""
        if dims < 1:
            raise InvalidValue(f"dims must be at least 1, got {dims}")
        if not mu > 0:
            raise InvalidValue(f"smoothing mu must be positive, got {mu}")
        if mu == np.inf:
            raise InvalidValue(f"smoothing mu must be finite, got {mu}")
        if not lam >= 0:
            raise InvalidValue(f"lam must be nonnegative, got {lam}")
        rng = _rng(seed)
        p = int(dims)
        a = _conditioned_matrix(rng, p + 10, p, 10.0)
        x_true = rng.standard_normal(p)
        b = a @ x_true + 0.05 * rng.standard_normal(p + 10)
        return cls(
            params={"dims": p, "mu": float(mu), "lam": float(lam), "seed": int(seed)},
            data={"a": a, "b": b},
        )

    @property
    def dims(self):
        return (self.data["a"].shape[1],)

    def split(self, metric):
        a, b = self.data["a"], self.data["b"]
        lam, mu = self.params["lam"], self.params["mu"]
        gram = a.T @ a
        atb = a.T @ b
        lip = self.gram_top() + (1.0 / mu if lam > 0 else 0.0)

        def apply_flat(x):
            g = gram @ x - atb
            if lam > 0:
                g += np.clip(x / mu, -lam, lam)
            return g

        return MonotoneBlock.zero(1), CocoerciveMap(
            "smoothed_lstsq", self.dims, apply_flat, beta=1.0 / (BETA_DEFLATION * lip),
            metric=metric)

    def _form(self):
        a = self.data["a"]
        lam, mu = self.params["lam"], self.params["mu"]
        p = a.shape[1]
        tau = 0.8 / self.gram_top()
        v = Preconditioner.scalar([tau], (p,))
        smooth = CocoerciveMap.least_squares_gradient(a, self.data["b"], metric=v)
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
            coupling=BlockLinearOperator([[1.0]], (p,), (p,)),
            smooth=smooth,
            dual_smooth=dual_smooth,
        )

    forms = {None: _form}

    def value(self, flat):
        a, b = self.data["a"], self.data["b"]
        r = a @ flat - b
        # closed-form infimal convolution of the smoother with lam l1
        return float(0.5 * np.dot(r, r)
                     + oracles.huber_value(flat, self.params["lam"], self.params["mu"]))

    def solve(self, tol):
        if self.params["lam"] == 0.0:
            return oracles.least_squares(self.data["a"], self.data["b"])
        return oracles.smoothed_lasso_ista(self.data["a"], self.data["b"],
                                           self.params["lam"], self.params["mu"],
                                           tol=tol, top=self.gram_top())


build_lasso = Lasso.build
build_coupled_system = CoupledBoxQP.build
build_parallel_sum_instance = ParallelSum.build

DEMOS = {cls.name: cls for cls in (Lasso, CoupledBoxQP, ParallelSum)}


def build_demo(name, params, where="params"):
    """Config-facing entry: build a demo problem by name and parameter dict,
    the config object at `where`."""
    if name not in DEMOS:
        raise ConfigurationError(
            f"unknown demo problem {name!r}; expected one of {sorted(DEMOS)}"
        )
    return bind_config(DEMOS[name].build, params, where)


def sifb_instance(problem, noise=None, seed=0):
    """A `ForwardBackwardProblem`, or a demo (its `forward_backward`, built
    afresh), as an instance whose map is drawn through a new
    `StochasticOracle` of the seed; the rest is the problem's own."""
    if isinstance(problem, DemoProblem):
        problem = problem.forward_backward()
    oracle = StochasticOracle(problem.map, noise=noise, rng_seed=seed)
    return ProblemInstance.forward_backward(problem.operator, oracle, problem.metric,
                                            problem.x0, problem.beta)


def pd_problem(demo, form=None):
    """The demo in its declared `form` (None: the default) as a primal-dual problem."""
    return demo.forms[demo.check_form(form)](demo)


def objective(demo, x):
    """Objective value at a primal point, a BlockVector."""
    return demo.value(x.flat)


def certified_reference(demo, tol=1e-10):
    """Ground-truth primal solution from an independent method, and its
    certificate: the oracle's optimality residual at it (see `oracles`),
    solved at one BLAS thread."""
    with one_blas_thread:
        flat, certificate = demo.solve(tol)
    return BlockVector.from_flat(flat, demo.dims), certificate


def reference_oracle(demo, tol=1e-10):
    """Ground-truth primal solution from an independent method."""
    return certified_reference(demo, tol)[0]
