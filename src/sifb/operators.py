"""Monotone-operator toolbox: proximity catalogue, resolvents in weighted
metrics, conjugate proxes, and cocoercive maps with audited constants.

The catalogue families are all coordinate-separable, so every resolvent with a
diagonal preconditioner reduces to an elementwise scalar prox with a
per-coordinate step. Conjugate proxes prefer closed forms; the generalized
Moreau decomposition is the fallback, and both paths must agree where both
exist.

This module is the only one that knows the families. A family is one
`_CATALOGUE` record (prox and conjugate-prox kernels bound to a step, with the
step-only constants computed at binding; subdifferential distances of f and
f*). A block of a `MonotoneBlock` is the subdifferential of a catalogue
function f or, for a dual block, of a conjugate g*, as in the paper's
minimization problems; the zero operator is the zero family's.
`MonotoneBlock.bind(gamma, diag)` gives the kernels of J_{gamma U A}, bound
once per run and step by the solve loops; `distances` gives the graph
distances behind the optimality residuals, and `check_dims` refuses block
dims that the blocks do not fit.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, DimensionMismatch, InvalidValue, bind_kind
from .spaces import BlockVector, Preconditioner, _freeze, one_blas_thread

# Safety deflation applied to computed cocoercivity constants before they are
# fed to step-size rules, so the defining inequality holds strictly in floats.
BETA_DEFLATION = 1.01


# ---------------------------------------------------------------------------
# the catalogue: one record per family
# ---------------------------------------------------------------------------


def _soft(t):
    return lambda x: np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _clip(lo, hi):
    # the method np.clip dispatches to: the same ufunc and signed zeros,
    # without the dispatch
    return lambda x: x.clip(lo, hi)


def _minus(shift):
    return lambda x: x - shift


def _shift_over(shift, scale):
    return lambda x: (x + shift) / scale


def _norm(a):
    return float(np.linalg.norm(a))


def _identity(x):
    return x


_ACTIVE_TOL = 1e-9  # coordinates this close to a kink are on it


def _l1_dist(p, x, u):
    lam = p["lam"]
    on = np.abs(x) > _ACTIVE_TOL
    return _norm(np.where(on, np.abs(u - lam * np.sign(x)), np.maximum(np.abs(u) - lam, 0.0)))


def _box_dist(p, x, u):
    """Infeasible x contributes its constraint violation."""
    lo = np.broadcast_to(p["lo"], x.shape)
    hi = np.broadcast_to(p["hi"], x.shape)
    viol = np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)
    at_lo = np.abs(x - lo) <= _ACTIVE_TOL
    at_hi = np.abs(x - hi) <= _ACTIVE_TOL
    d = np.abs(u)
    d = np.where(at_lo & ~at_hi, np.maximum(u, 0.0), d)
    d = np.where(at_hi & ~at_lo, np.maximum(-u, 0.0), d)
    d = np.where(at_lo & at_hi, 0.0, d)  # degenerate single-point interval
    return float(np.linalg.norm(d) + np.linalg.norm(viol))


# prox and conj bind (params, step), the step a number or a per-coordinate
# array, to a kernel of f and of f*: a function of one float64 array; conj None
# means the generalized Moreau decomposition. dist and conj_dist map (params, x,
# u), flat arrays, to the distance of u from the subdifferential of f and of f*
# at x; None: unchecked.
_Family = namedtuple("_Family", "prox conj dist conj_dist")
_CATALOGUE = {
    # the kernels' inputs are arrays that the solve loops have just computed,
    # so the zero operator's resolvent, the identity, returns its input
    "zero": _Family(
        prox=lambda p, step: _identity,
        conj=lambda p, step: np.zeros_like,  # f* is the indicator of {0}
        dist=lambda p, x, u: _norm(u),
        conj_dist=lambda p, x, u: _norm(x)),  # x must vanish; any u is then admissible
    "l1": _Family(
        prox=lambda p, step: _soft(step * p["lam"]),
        # f* is the indicator of the lam-radius sup-norm ball
        conj=lambda p, step: _clip(-p["lam"], p["lam"]),
        dist=_l1_dist,
        conj_dist=lambda p, x, u: _box_dist({"lo": -p["lam"], "hi": p["lam"]}, x, u)),
    "sq_l2": _Family(
        prox=lambda p, step: _shift_over(step * p["lam"] * p["center"], 1.0 + step * p["lam"]),
        # f* is <center, y> + |y|^2 / (2 lam); x + (-s) is x - s in IEEE arithmetic
        conj=lambda p, step: _shift_over(-(step * p["center"]), 1.0 + step / p["lam"]),
        dist=lambda p, x, u: _norm(u - p["lam"] * (x - p["center"])),
        conj_dist=lambda p, x, u: _norm(  # grad f*(x) = x / lam + center
            u - (x / p["lam"] + np.broadcast_to(p["center"], x.shape)))),
    "box": _Family(
        prox=lambda p, step: _clip(p["lo"], p["hi"]),
        conj=None,
        dist=_box_dist,
        conj_dist=None),
    "linf_ball": _Family(
        prox=lambda p, step: _clip(-p["radius"], p["radius"]),
        # f* is radius times the l1 norm
        conj=lambda p, step: _soft(step * p["radius"]),
        dist=lambda p, x, u: _box_dist({"lo": -p["radius"], "hi": p["radius"]}, x, u),
        conj_dist=lambda p, x, u: _l1_dist({"lam": p["radius"]}, x, u)),
    "affine": _Family(
        prox=lambda p, step: _minus(step * p["c"]),
        # f* is the indicator of {c}
        conj=lambda p, step: lambda x: np.broadcast_to(p["c"], x.shape).astype(np.float64),
        dist=lambda p, x, u: _norm(u - np.broadcast_to(p["c"], u.shape)),
        conj_dist=lambda p, x, u: _norm(x - np.broadcast_to(p["c"], x.shape))),
}
_FAMILIES = tuple(_CATALOGUE)


def _moreau(f, step):
    """prox of f* by the generalized Moreau decomposition:
    x - step * prox_{f / step}(x / step)."""
    inner = f.kernel(1.0 / step)
    return lambda x: x - step * inner(x / step)


# each vector parameter must broadcast to its block; the sign of the one
# infinity it may hold (an open side of a box), 0 for none
_VECTOR_PARAMS = {"lo": -1.0, "hi": 1.0, "c": 0.0, "center": 0.0}


class ProxFunction:
    """A convex function from the built-in catalogue, identified by family name.

    Exposes the scalar building blocks used everywhere else: `kernel` and
    `conj_kernel`, the prox of f and of its convex conjugate f* with a
    per-coordinate step bound, and `prox`, which applies the first.
    """

    __slots__ = ("family", "params")

    def __init__(self, family, **params):
        if family not in _FAMILIES:
            raise ConfigurationError(
                f"unknown prox family {family!r}; expected one of {_FAMILIES}"
            )
        for key, open_side in _VECTOR_PARAMS.items():
            if key not in params:
                continue
            value = np.asarray(params[key])
            if np.isnan(value).any():
                raise InvalidValue(f"{key} has a NaN entry")
            bad = value[np.isinf(value) & (np.sign(value) != open_side)]
            if bad.size:
                raise InvalidValue(f"{key} has an entry {bad[0]}, which leaves the prox "
                                   "undefined")
        self.family = family
        self.params = params

    # --- constructors ---------------------------------------------------
    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def l1(cls, lam: float):
        if not lam >= 0:
            raise InvalidValue(f"l1 weight must be nonnegative, got {lam}")
        return cls("l1", lam=float(lam))

    @classmethod
    def squared_l2(cls, lam: float = 1.0, center: np.ndarray = 0.0):
        """(lam/2) ||x - center||^2."""
        if not lam > 0:
            raise InvalidValue(f"sq_l2 weight must be positive, got {lam}")
        if lam == np.inf:  # its prox would compute inf * 0
            raise InvalidValue(f"sq_l2 weight must be finite, got {lam}")
        return cls("sq_l2", lam=float(lam), center=np.asarray(center, dtype=np.float64))

    @classmethod
    def box(cls, lo: np.ndarray, hi: np.ndarray):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.size > 1 and hi.size > 1 and lo.shape != hi.shape:
            raise DimensionMismatch(f"lo has shape {lo.shape}, hi has shape {hi.shape}")
        if np.any(lo > hi):
            raise InvalidValue("box indicator needs lo <= hi")
        return cls("box", lo=lo, hi=hi)

    @classmethod
    def linf_ball(cls, radius: float):
        if not radius >= 0:
            raise InvalidValue(f"ball radius must be nonnegative, got {radius}")
        return cls("linf_ball", radius=float(radius))

    @classmethod
    def affine(cls, c: np.ndarray):
        return cls("affine", c=np.asarray(c, dtype=np.float64))

    @classmethod
    def from_config(cls, spec, where="prox function"):
        """Build from the config object at `where`, like {"family": "l1", "lam": 0.5}."""
        constructors = {family: getattr(cls, {"sq_l2": "squared_l2"}.get(family, family))
                        for family in _FAMILIES}
        return bind_kind(constructors, spec, where, key="family")

    # --- evaluation -----------------------------------------------------
    def kernel(self, step):
        """prox with `step` bound: a function of one float64 array."""
        return _CATALOGUE[self.family].prox(self.params, step)

    def conj_kernel(self, step):
        """prox of the conjugate with `step` bound: the closed-form rule when
        the family has one, else the generalized Moreau decomposition."""
        conj = _CATALOGUE[self.family].conj
        return _moreau(self, step) if conj is None else conj(self.params, step)

    def prox(self, x, step=1.0):
        """argmin_y  f(y) + (1/(2*step)) (x - y)^2, elementwise, as a fresh
        array; step may be a vector."""
        return self.kernel(step)(np.array(x, dtype=np.float64))

    @property
    def has_conjugate_rule(self):
        return _CATALOGUE[self.family].conj is not None

    def __repr__(self):
        items = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"ProxFunction({self.family}{', ' + items if items else ''})"


# ---------------------------------------------------------------------------
# blockwise maximally monotone operators
# ---------------------------------------------------------------------------


# one block of a blockwise monotone operator: the subdifferential of the
# catalogue function fn, or of its conjugate when conjugate
_Rule = namedtuple("_Rule", "fn conjugate")


class MonotoneBlock:
    """Maximally monotone operator on a block space, given blockwise: each
    block the subdifferential of a catalogue function (`rule_subdiff`) or of
    its conjugate (`rule_conjugate_subdiff`, for dual blocks). The zero
    operator is the subdifferential of the zero family.
    """

    def __init__(self, rules):
        self.rules = tuple(rules)

    rule_subdiff = staticmethod(partial(_Rule, conjugate=False))
    rule_conjugate_subdiff = staticmethod(partial(_Rule, conjugate=True))

    @classmethod
    def zero(cls, nblocks):
        return cls.subdiff([ProxFunction.zero()] * nblocks)

    @classmethod
    def subdiff(cls, fs):
        return cls(map(cls.rule_subdiff, fs))

    @classmethod
    def conjugate_subdiff(cls, gs):
        return cls(map(cls.rule_conjugate_subdiff, gs))

    def is_zero(self):
        return all(r.fn.family == "zero" and not r.conjugate for r in self.rules)

    def check_dims(self, dims, name="block"):
        """Refuse block dims that do not fit: one dim per block, each vector
        parameter of shape (), (1,) or (d,). A message names block i as
        `name[i]`."""
        if len(dims) != len(self.rules):
            raise DimensionMismatch(
                f"{name} operator has {len(self.rules)} blocks, metric has {len(dims)}"
            )
        for i, (rule, d) in enumerate(zip(self.rules, dims)):
            params = rule.fn.params
            for key in _VECTOR_PARAMS:
                if key in params and np.shape(params[key]) not in ((), (1,), (d,)):
                    raise DimensionMismatch(
                        f"{name}[{i}]: {key} has shape {np.shape(params[key])}, block dim {d}")

    def bind(self, gamma, diag):
        """The kernels of J_{gamma U A}, one per block, for a diagonal
        preconditioner U given by its diagonal blocks: the prox of f, or of
        f* for a conjugate block, at the step gamma U. Each maps that block's
        array to a fresh array, except that the zero family's returns its
        input."""
        if gamma <= 0:
            raise ConfigurationError(f"resolvent step must be positive, got {gamma}")
        self.check_dims(tuple(map(len, diag)))
        return tuple((r.fn.conj_kernel if r.conjugate else r.fn.kernel)(gamma * u)
                     for r, u in zip(self.rules, diag))

    def resolvent(self, gamma, U, z):
        """J_{gamma U A}(z) for a diagonal preconditioner U."""
        kernels = self.bind(gamma, U.diag_blocks())
        if z.dims != U.dims:
            raise DimensionMismatch(f"vector dims {z.dims}, metric dims {U.dims}")
        return BlockVector([k(b) for k, b in zip(kernels, z.blocks)])

    def distances(self, xs, us):
        """Per block, the distance of us[i] from the operator at xs[i], or
        None where the block has no checkable rule."""
        return [(conjugate_subdiff_distance if r.conjugate else subdiff_distance)(r.fn, x, u)
                for r, x, u in zip(self.rules, xs, us)]


def prox_weighted(f, metric, x):
    """Prox of a separable catalogue function in a diagonal metric.

    Solves argmin_y f(y) + 0.5 ||x - y||^2_metric blockwise; the effective
    per-coordinate step is the inverse diagonal entry.
    """
    return BlockVector([f.kernel(1.0 / w)(b) for w, b in zip(metric.diag_blocks(), x.blocks)])


def prox_conjugate(g, metric, x):
    """prox of g* in the metric induced by the INVERSE of `metric`.

    Uses the closed-form conjugate rule when the family has one, otherwise the
    generalized Moreau decomposition
        prox_{g*}^{W^{-1}}(x) = x - W prox_g^W(W^{-1} x).
    """
    return BlockVector([g.conj_kernel(w)(b) for w, b in zip(metric.diag_blocks(), x.blocks)])


def moreau_check(f, x):
    """Residual of prox_f(x) + prox_{f*}(x) - x at unit step (flat array input)."""
    if not f.has_conjugate_rule:
        raise ConfigurationError(f"family {f.family!r} has no conjugate rule to check")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    r = f.prox(x, 1.0) + f.conj_kernel(1.0)(x) - x
    return float(np.linalg.norm(r))


# ---------------------------------------------------------------------------
# cocoercive single-valued maps
# ---------------------------------------------------------------------------


def _eigenvalue_range(mat, what):
    """(lambda_min, lambda_max) of the symmetric matrix mat() forms, `what` in
    messages, by one eigenvalue-only solve, formed and solved at one BLAS
    thread; refused as an InvalidValue when lambda_max is not finite, as when
    forming the matrix overflows."""
    with one_blas_thread, np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.linalg.eigvalsh(mat())
    low, top = float(spectrum[0]), float(spectrum[-1])
    if not np.isfinite(top):
        raise InvalidValue(f"lambda_max of {what} is {top}: the matrix overflows float64")
    return low, top


class CocoerciveMap:
    """Single-valued monotone map with an audited cocoercivity constant.

    The constant `beta` certifies
        <x - y, Bx - By>  >=  beta * <Bx - By, M (Bx - By)>
    with respect to the metric operator M attached at construction. Computed
    constants are deflated by `BETA_DEFLATION` before being advertised, so the
    inequality holds strictly in floating point; the undeflated value is kept
    as `beta_exact`.
    """

    def __init__(self, kind, dims, apply_flat, beta, beta_exact=None, metric=None,
                 extremal=None):
        self.kind = kind
        self.dims = tuple(int(d) for d in dims)
        # the map on bare arrays: a flat float64 array in the block layout of
        # dims to a flat array, fresh, or for a zero map one shared read-only
        # zero; it checks nothing
        self.apply_flat = apply_flat
        self.beta = float(beta)
        self.beta_exact = float(beta_exact) if beta_exact is not None else float(beta)
        self.metric = metric
        # BlockVector probe direction, or a function computing it on first read;
        # None if unknown
        self._extremal = extremal

    @property
    def extremal(self):
        """The audit's probe direction, computed when first read. Two threads
        that read it at once each compute the same vector."""
        probe = self._extremal
        if callable(probe):
            probe = self._extremal = probe()
        return probe

    def apply(self, x):
        """B x for a block vector x: `apply_flat`, with x's dims checked and
        the value wrapped."""
        if x.dims != self.dims:
            raise DimensionMismatch(f"map dims {self.dims}, vector dims {x.dims}")
        return BlockVector.from_flat(self.apply_flat(x.flat), self.dims)

    # --- constructors ---------------------------------------------------
    @classmethod
    def zero_map(cls, dims):
        """x -> 0; every bare-array call returns the same read-only zero array."""
        zero = _freeze(np.zeros(sum(dims)))
        return cls("zero", dims, lambda x: zero, beta=float("inf"),
                   beta_exact=float("inf"))

    @classmethod
    def scaled_identity(cls, dims, mu, metric):
        """x -> mu * x; exact constant 1/(mu * ||metric||), tight, so no deflation;
        refused as an InvalidValue when that constant is 0 or inf in float64."""
        mu = float(mu)
        if not mu > 0:
            raise InvalidValue(f"scale must be positive, got {mu}")
        top = 1.0
        extremal = None
        if sum(dims):
            top = float(metric.diag.max())
            probe = np.zeros(sum(dims))
            probe[int(metric.diag.argmax())] = 1.0  # the constant is tight here
            extremal = BlockVector.from_flat(probe, dims)
        scale = mu * top
        beta = 1.0 / scale if scale else float("inf")
        if not 0.0 < beta < float("inf"):
            raise InvalidValue(f"mu times the metric's largest entry is {scale}: "
                               f"beta = 1/{scale} is out of the float64 range")
        return cls("scaled_identity", dims, lambda x: mu * x, beta=beta,
                   beta_exact=beta, metric=metric, extremal=extremal)

    @classmethod
    def least_squares_gradient(cls, a, b, metric=None, *, top=None):
        """Gradient of 0.5 ||A x - b||^2 on a single block.

        beta = 1 / ||sqrt(M) A^T A sqrt(M)|| with respect to the metric M,
        from one eigenvalue-only dense solve of the smaller Gram matrix of
        A sqrt(M); the extremal probe direction is computed when an audit
        first reads it. Both solves run at one BLAS thread.

        In a metric whose entries are all 1.0 (`factor` None), `top` may give
        lambda_max of A^T A as `oracles.gram_top` computes it (the lasso
        demo's `gram_top`, which is that solve on the same bits); the map then
        forms no Gram matrix. Any other metric refuses `top`.
        """
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64).reshape(-1)
        if a.ndim != 2 or a.shape[0] != b.shape[0]:
            raise InvalidValue(f"data shapes incompatible: A {a.shape}, b {b.shape}")
        dims = (a.shape[1],)
        if metric is None:
            metric = Preconditioner.identity(dims)
        if metric.dims != dims:
            raise DimensionMismatch(f"metric dims {metric.dims} != map dims {dims}")
        if top is not None and metric.factor is not None:
            raise ValueError("top is lambda_max of A^T A, not of A in a weighted metric")

        # top eigenvalue of G^T G, G = A sqrt(M); for wide A that of G G^T
        sw = np.sqrt(metric.diag)
        wide = a.shape[0] < a.shape[1]

        def gram():
            g = a * sw
            return g, (g @ g.T if wide else g.T @ g)

        def extremal():
            # top eigenvector of G^T G; for wide A the top eigenvector u of
            # G G^T gives the right singular vector G^T u / ||G^T u||
            with one_blas_thread:
                g, mat = gram()
                vecs = np.linalg.eigh(mat)[1]
                vec = g.T @ vecs[:, -1] if wide else vecs[:, -1]
            return BlockVector([sw * (vec / np.linalg.norm(vec))])

        if top is None:
            top = _eigenvalue_range(lambda: gram()[1], "A'A in the metric")[1] if a.size else 0.0
        lam_max = float(top)
        beta_exact = float("inf") if lam_max <= 0 else 1.0 / lam_max
        beta = beta_exact / BETA_DEFLATION

        def apply_flat(x):
            return a.T @ (a @ x - b)

        return cls("lstsq", dims, apply_flat, beta=beta, beta_exact=beta_exact,
                   metric=metric, extremal=extremal if lam_max > 0 else None)

    @classmethod
    def linear(cls, q, offset, dims, metric):
        """x -> Q x + offset on the flat concatenation, Q symmetric PSD; an
        offset None is 0.

        beta = 1 / ||sqrt(M) Q sqrt(M)|| with respect to the metric M, from one
        eigenvalue-only dense solve; the extremal probe direction is computed
        when an audit first reads it. Both solves run at one BLAS thread.
        """
        q = np.asarray(q, dtype=np.float64)
        n = q.shape[0] if q.ndim else 0
        if q.shape != (n, n):
            raise InvalidValue(f"quadratic matrix must be square, got {q.shape}")
        if not np.allclose(q, q.T, atol=1e-10):
            raise InvalidValue("quadratic matrix must be symmetric")
        if sum(dims) != n:
            raise DimensionMismatch(f"dims {dims} do not sum to {n}")
        offset = np.zeros(n) if offset is None else np.asarray(offset, dtype=np.float64).reshape(-1)
        if offset.size not in (1, n):
            raise DimensionMismatch(f"offset has length {offset.size}, expected {n}")
        extremal = None
        lam_min = lam_max = 0.0
        if n:
            sw = np.sqrt(metric.diag)

            def sym():
                return sw[:, None] * q * sw[None, :]

            def extremal():
                with one_blas_thread:
                    vecs = np.linalg.eigh(sym())[1]
                return BlockVector.from_flat(sw * vecs[:, -1], dims)

            lam_min, lam_max = _eigenvalue_range(sym, "Q in the metric")
        # sqrt(M) Q sqrt(M) has Q's inertia; a negative eigenvalue beyond the
        # spectrum's rounding leaves x -> Q x + offset non-monotone
        if lam_min < -1e-10 * abs(lam_max):
            raise InvalidValue("quadratic matrix must be positive semidefinite")
        beta_exact = float("inf") if lam_max <= 0 else 1.0 / lam_max
        beta = beta_exact / BETA_DEFLATION

        return cls("linear", dims, lambda x: q @ x + offset, beta=beta, beta_exact=beta_exact,
                   metric=metric, extremal=extremal)

    @classmethod
    def from_callable(cls, dims, fn, beta, metric=None):
        """Wrap a user map on block vectors with a caller-certified constant."""
        dims = tuple(int(d) for d in dims)
        return cls("callable", dims,
                   lambda x: fn(BlockVector.from_flat(x, dims)).flat,
                   beta=beta, metric=metric)

    @classmethod
    def paired(cls, first, second, beta):
        """Blockwise pairing acting as (first, second) on a stacked vector.

        A pair of zero maps returns one read-only zero array on every call.
        """
        dims = first.dims + second.dims
        if first.kind == second.kind == "zero":
            zero = _freeze(np.zeros(sum(dims)))
            return cls("paired", dims, lambda x: zero, beta=beta)
        k = sum(first.dims)
        f, g = first.apply_flat, second.apply_flat
        return cls("paired", dims, lambda x: np.concatenate((f(x[:k]), g(x[k:]))), beta=beta)


@dataclass
class CocoercivityReport:
    min_slack: float
    passed: bool
    beta: float


def check_cocoercivity(b_map, metric=None, trials=100, seed=0, beta=None):
    """Audit the cocoercivity inequality on seeded random pairs.

    Evaluates <x - y, Bx - By> - beta <Bx - By, M (Bx - By)> on `trials`
    random pairs plus, when the map exposes one, a deterministic probe along
    its estimated extremal direction (random pairs alone cannot reliably
    refute a slightly inflated constant in more than one dimension). Passes
    iff the minimum slack is >= -1e-10. M is the `Preconditioner` metric,
    else the map's own; a map without one is audited with M = I.
    """
    if trials < 1:
        raise ConfigurationError(f"need at least one trial, got {trials}")
    if beta is None:
        beta = b_map.beta
    if metric is None:
        metric = b_map.metric
    rng = np.random.default_rng(seed)
    dims = b_map.dims

    def slack(x, y):
        dx = x - y
        db = b_map.apply(x) - b_map.apply(y)
        rhs = db.dot(db if metric is None else metric.apply(db))
        lhs = dx.dot(db)
        if rhs == 0.0:
            return lhs
        return lhs - beta * rhs

    worst = float("inf")
    for _ in range(trials):
        x = BlockVector([rng.standard_normal(d) for d in dims])
        y = BlockVector([rng.standard_normal(d) for d in dims])
        worst = min(worst, slack(x, y))
    if b_map.extremal is not None:
        x = BlockVector([rng.standard_normal(d) for d in dims])
        worst = min(worst, slack(x + b_map.extremal, x))
    return CocoercivityReport(min_slack=worst, passed=worst >= -1e-10, beta=beta)


# ---------------------------------------------------------------------------
# graph distances, for optimality-system residuals
# ---------------------------------------------------------------------------


def _flat(a):
    return np.asarray(a, dtype=np.float64).reshape(-1)


def subdiff_distance(f, x, u):
    """Distance of u from the subdifferential of the catalogue function f at x.

    Infeasible x (outside the domain) contributes its constraint violation.
    """
    return _CATALOGUE[f.family].dist(f.params, _flat(x), _flat(u))


def conjugate_subdiff_distance(g, v, u):
    """Distance of u from the subdifferential of g* at v, for catalogue g;
    None for a family without a checkable rule."""
    dist = _CATALOGUE[g.family].conj_dist
    return None if dist is None else dist(g.params, _flat(v), _flat(u))
