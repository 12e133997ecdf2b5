"""The core solver loop: inertial extrapolation, stochastic forward step,
preconditioned resolvent step, relaxation.

One iteration, from the current pair (x_n, x_{n-1}):

    w_n = x_n + alpha_n (x_n - x_{n-1})
    z_n = w_n - gamma_n U r_n          with r_n one oracle draw at w_n
    p_n = J_{gamma_n U A}(z_n)
    x_{n+1} = x_n + lambda_n (p_n - x_n)

Assembled primal-dual instances replace the middle two lines with an explicit
per-block sequence that realizes the same backward map at gamma = 1; the
extrapolation and relaxation lines are shared.

`run` compiles the iteration once at its start (a `Plan`): the map on
bare arrays, the backward maps bound at gamma and at the residual's step
gbar (one map when they are equal; for forward-backward instances the
resolvent kernels and U's diagonal, for the assemblies their sweeps),
with every dims check made there. The loop then steps on one flat float64
array per value: extrapolation, w - gamma U r, relaxation and differences
run once over it, kernels, map and coupling on its block views, and norms
are `spaces.block_dot` of those views, as a block vector's are. sigma_n and
alpha_n are computed once per iteration, for the trace row and the step.
The run starts from x0's flat array and reads the reference's, and the
iterate goes out as a block vector.

Cost: a step makes one oracle draw and one backward sweep, and a recorded
row one exact map evaluation and one sweep for its fixed-point residual.
Every reuse is decided in the run's own state, never on the instance or
the oracle, so concurrent runs may share both:
- `fp_residual` returns the row's record (x, B x, p, ||x - p||), which
  `run` hands to the steps until the next row.
- `step`, at that row's point with alpha_n = 0, passes the record's B x to
  the draw (`StochasticOracle.sample`), which returns it itself when the
  draw is exact (sigma_n = 0); if it did and gamma = gbar, the step's
  sweep is the record's p. So a noise-free run without inertia makes one
  evaluation and one sweep per iteration, and a noisy one without inertia
  still reuses the map value.
- `run` takes the trace's ||x_{n+1} - x_n|| of such a step at lambda = 1,
  whose x_{n+1} is the record's p, from the record: one norm of a
  difference per iteration.
- The class-II sweep that a run binds keeps its last output and that
  output's L* q (`primal_dual.assemble_class2`).
The divergence test computes ||x_n|| only when ||x_0|| plus the step norms
so far reaches half its limit, and stops at the same iterate as a test of
every norm would. A zero map, or a pair of them, returns one shared
read-only zero array. No array of a run is written after it is made, so
a reused value is what recomputing it would give.

The step gamma and the relaxation lambda are numbers fixed for a run (a
constant sequence, which the paper admits). `run` resolves gamma, the
default step included, and checks every gate before the first iteration;
nothing inside the loop raises a ConfigurationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionMismatch, check_type
from .spaces import BlockVector, block_dot, block_views
from .stochastic import InertiaSchedule

CONVERGED = "converged"
MAX_ITER = "max_iter"
DIVERGED = "diverged"

_DIVERGE_NORM = 1e12
_STEP_GROWTH_LIMIT = 1e6


@dataclass
class SolverConfig:
    """Step-size, relaxation, inertia and stopping configuration.

    `beta` is the cocoercivity constant of the instance being solved; the
    admissible ranges are gamma in [eps, (2 - eps) beta], lambda in [eps, 1],
    alpha_n in [0, 1 - eps], all checked at construction. gamma and
    relaxation are real numbers fixed for the run; gamma None is the
    instance's default step (`step_size`). Every field's type is checked
    first: `max_iter` and `record_every` are integers, the others real
    numbers (a bool is neither).
    """

    beta: float
    epsilon: float = 1e-3
    gamma: float | None = None    # None -> the instance's default step
    relaxation: float = 1.0
    inertia: InertiaSchedule = field(default_factory=InertiaSchedule.zero)
    max_iter: int = 1000
    stop_tol: float = 1e-8
    record_every: int = 1

    def __post_init__(self):
        for name, kind in (("beta", "float"), ("epsilon", "float"), ("max_iter", "int"),
                           ("stop_tol", "float"), ("record_every", "int"),
                           ("gamma", "float | None"), ("relaxation", "float")):
            check_type(getattr(self, name), kind, name)
        if not (self.beta > 0):
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        if not (0 < self.epsilon < min(1.0, self.beta)):
            raise ConfigurationError(
                f"epsilon={self.epsilon} outside ]0, min(1, beta)[ with beta={self.beta}"
            )
        if self.max_iter < 0:
            raise ConfigurationError(f"max_iter must be nonnegative, got {self.max_iter}")
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be positive, got {self.record_every}")
        if not self.stop_tol >= 0:
            raise ConfigurationError(f"stop_tol must be nonnegative, got {self.stop_tol}")
        if self.gamma is not None:
            self.gamma = self._in_range(float(self.gamma))
        self.relaxation = lam = float(self.relaxation)
        if not self.epsilon <= lam <= 1.0:
            raise ConfigurationError(
                f"relaxation lambda={lam} outside [eps, 1] = [{self.epsilon:g}, 1]"
            )
        if self.inertia.alpha(0) > 1.0 - self.epsilon:
            raise ConfigurationError(
                f"inertia alpha0={self.inertia.alpha(0)} exceeds 1 - eps = "
                f"{1.0 - self.epsilon:g}"
            )

    @property
    def gamma_range(self):
        return self.epsilon, (2.0 - self.epsilon) * self.beta

    def _in_range(self, g):
        lo, hi = self.gamma_range
        if not lo <= g <= hi:
            raise ConfigurationError(
                f"step size gamma={g} outside [eps, (2-eps)*beta] = [{lo:g}, {hi:g}]"
            )
        return g

    def step_size(self, prob):
        """The run's step on the instance prob: gamma, else prob's default step,
        refused unless it lies in `gamma_range` and prob's backward map is
        defined at it (`ProblemInstance.check_gamma`)."""
        return prob.check_gamma(self._in_range(
            prob.default_gamma if self.gamma is None else self.gamma))


@dataclass
class ProblemInstance:
    """A monotone inclusion packaged for the solver.

    The solver sees one interface: the stochastic oracle of the cocoercive
    part (`sample`, the `noise` schedule and the map `base`, as on
    `StochasticOracle`), the starting point x0, its cocoercivity constant
    beta, and `bind_backward(gamma)`, which returns the backward map at the
    step gamma on bare arrays: a function of the extrapolated point w and
    the draw r, flat float64 arrays in x0's block layout, to the next
    point, a fresh flat array. `run` calls it once per step value at its
    start, so what the map keeps between calls is the run's own.
    `forward_backward` builds it as the preconditioned resolvent step
    J_{gamma U A}(w - gamma U r); the primal-dual assemblies pass their
    class-I/II block sweeps, which realize the stacked backward map only at
    one step, `gamma_fixed` = 1. The map's dims must be x0's.
    """

    oracle: object
    x0: object
    beta: float
    bind_backward: object
    gamma_fixed: float = None

    def __post_init__(self):
        self.beta = float(self.beta)
        if self.oracle.base.dims != self.x0.dims:
            raise DimensionMismatch(
                f"map dims {self.oracle.base.dims}, x0 dims {self.x0.dims}")

    @classmethod
    def forward_backward(cls, operator, oracle, metric, x0, beta=None):
        if metric is None:
            raise ConfigurationError("forward-backward instances need a metric U")
        if beta is None:
            beta = oracle.base.beta
        dims = metric.dims
        operator.check_dims(dims)
        for name, v in (("map", oracle.base), ("x0", x0)):
            if v.dims != dims:
                raise DimensionMismatch(f"{name} dims {v.dims}, metric dims {dims}")
        # U's flat diagonal; the identity passes r through
        u = None if metric.kind == "identity" else metric.diag
        views = block_views(dims)

        def bind_backward(gamma):
            kernels = operator.bind(gamma, metric.diag_blocks())
            c = float(-gamma)
            if len(kernels) == 1:
                kernel = kernels[0]
                if u is None:
                    return lambda w, r: kernel(w + c * r)
                return lambda w, r: kernel(w + c * (u * r))

            def backward(w, r):
                z = w + c * (r if u is None else u * r)
                parts = [j(v) for j, v in zip(kernels, views(z))]
                return np.concatenate(parts) if parts else z

            return backward

        return cls(oracle, x0, beta, bind_backward)

    def check_gamma(self, gamma):
        """gamma itself, if the backward map is defined at that step."""
        if self.gamma_fixed is not None and gamma != self.gamma_fixed:
            raise ConfigurationError(
                f"this instance defines its backward map only at "
                f"gamma={self.gamma_fixed}, got {gamma}"
            )
        return gamma

    def backward(self, w, gamma, r):
        """The resolvent half-step from the extrapolated point w and the draw
        r, block vectors: `bind_backward(gamma)` on their flat arrays, wrapped."""
        self.check_gamma(gamma)
        dims = self.x0.dims
        for name, v in (("iterate", w), ("draw", r)):
            if v.dims != dims:
                raise DimensionMismatch(f"{name} dims {v.dims} != instance dims {dims}")
        p = self.bind_backward(gamma)(w.flat, r.flat)
        return BlockVector.from_flat(p, dims)

    @property
    def default_gamma(self):
        if self.gamma_fixed is not None:
            return self.gamma_fixed
        return self.beta if math.isfinite(self.beta) else 1.0


class Plan:
    """One run's iteration of the instance prob at the step gamma and the
    relaxation lam, which `run` resolves and checks first, compiled at its
    start: the draw, the exact map, the backward maps at gamma and at the
    residual's step gbar (one map, bound once, when they are equal) and the
    block layout. Every value is a flat float64 array, and `views` gives
    its blocks (None for a single block, the whole array). The bound
    backward maps, and whatever they keep between calls, are this run's
    own; the oracle and the map are the instance's, and hold no run state.
    """

    __slots__ = ("sample", "exact", "backward", "backward_bar", "same_step", "lam",
                 "dims", "views")

    def __init__(self, prob, gamma, lam):
        gbar = prob.default_gamma
        self.sample = prob.oracle.sample
        self.exact = prob.oracle.base.apply_flat
        self.backward = prob.bind_backward(gamma)
        self.same_step = gamma == gbar
        self.backward_bar = self.backward if self.same_step else prob.bind_backward(gbar)
        self.lam = lam
        self.dims = prob.x0.dims
        self.views = None if len(self.dims) == 1 else block_views(self.dims)

    def norm(self, x):
        """||x||, bit for bit as the block vector's `norm()`: `block_dot` of its
        views; a single block's dot is never -0.0, so 0 + dot is the dot."""
        if self.views is None:
            return math.sqrt(np.dot(x, x))
        v = self.views(x)
        return math.sqrt(block_dot(v, v))

    def distance(self, a, b):
        """||a - b||, bit for bit as the block vectors' `(a - b).norm()`."""
        d = a - b
        return math.sqrt(np.dot(d, d)) if self.views is None else self.norm(d)


def fp_residual(plan, x):
    """Noise-free fixed-point residual ||x - J_{gbar U A}(x - gbar U B x)||.

    Vanishes exactly on the solution set for catalogue operators. Returns
    the row's record (x, B x, p, residual), the run's flat arrays, from
    which `step` takes B x for its draw at x, and p for an exact draw at
    gbar, and `run` the norm of a step from x to p: the arrays are never
    written, and the backward maps depend on their arguments alone.
    """
    bx = plan.exact(x)
    p = plan.backward_bar(x, bx)
    return x, bx, p, plan.distance(x, p)


@dataclass
class TraceRow:
    n: int
    fp_residual: float
    step_norm: float
    dist_to_ref: float
    sigma: float
    alpha: float


class RunTrace:
    """Per-iteration diagnostics and the terminal status of one run."""

    CSV_COLUMNS = "n,fp_residual,step_norm,dist_to_ref,sigma_n,alpha_n"

    def __init__(self):
        self.rows = []
        self.status = None
        self.iterations = 0
        self.diverged_at = None
        self.max_step_norm = 0.0
        self.first_step_norm = None
        self.wall_time = None

    def append(self, row):
        if self.rows and row.n <= self.rows[-1].n:
            raise ValueError("trace rows must be strictly increasing in n")
        self.rows.append(row)

    @property
    def final_residual(self):
        return self.rows[-1].fp_residual if self.rows else float("nan")

    @property
    def steps_bounded(self):
        """Monitors sup_n ||x_n - x_{n-1}||: flags runaway step growth."""
        if self.first_step_norm is None or self.first_step_norm == 0.0:
            return True
        return self.max_step_norm <= _STEP_GROWTH_LIMIT * self.first_step_norm

    def to_csv(self, f):
        """Write the trace, schema line first, to the text file f."""
        f.write("#schema=6\n")
        f.write(self.CSV_COLUMNS + "\n")
        for r in self.rows:
            dist = "" if np.isnan(r.dist_to_ref) else f"{r.dist_to_ref:.17g}"
            f.write(
                f"{r.n},{r.fp_residual:.17g},{r.step_norm:.17g},{dist},"
                f"{r.sigma:.17g},{r.alpha:.17g}\n"
            )

    def summary(self):
        return {
            "status": self.status,
            "iterations": self.iterations,
            "final_fp_residual": self.final_residual,
            "max_step_norm": self.max_step_norm,
            "steps_bounded": self.steps_bounded,
            "diverged_at": self.diverged_at,
            "wall_time": self.wall_time,
        }


def step(plan, state, n, alpha, sigma, row=None):
    """One solver iteration on the plan's flat arrays; returns the new
    (x_{n+1}, x_n) pair.

    Draws from the oracle exactly once. alpha and sigma are alpha_n and
    sigma_n, and row the record of the last recorded residual (None: none
    yet). At that row's point with alpha_n = 0 the draw takes its B x_n;
    if that draw is the exact map and the step is gbar, the step's
    backward map is the row's p.
    """
    x, x_prev = state
    at_row = alpha == 0.0 and row is not None and row[0] is x
    w = x if alpha == 0.0 else x + alpha * (x - x_prev)
    exact = row[1] if at_row else None
    r = plan.sample(n, w, exact, sigma)
    if at_row and r is exact and plan.same_step:
        p = row[2]
    else:
        p = plan.backward(w, r)
    # at lam = 1 the relaxed update collapses to p exactly; keep it exact
    lam = plan.lam
    x_next = p if lam == 1.0 else x + lam * (p - x)
    return x_next, x


def run(prob, cfg, reference=None):
    """Iterate until the noise-free fixed-point residual drops below stop_tol.

    Returns (final iterate, RunTrace). The trace records every `record_every`
    iterations; non-finite iterates or norm blow-up terminate with the
    `diverged` status and the offending iteration index. Every gate, the
    step size included, is checked before the first oracle draw. x0, the
    reference and the returned iterate are block vectors; in between the
    run steps on its plan's flat arrays (`Plan`).
    """
    if np.isfinite(prob.beta) and cfg.beta > prob.beta * (1.0 + 1e-12):
        raise ConfigurationError(
            f"config beta={cfg.beta:g} exceeds the instance constant {prob.beta:g}"
        )
    gamma = cfg.step_size(prob)
    failed = [f"{s.CONDITION}: {s.violation()}" for s in (prob.oracle.noise, cfg.inertia)
              if s.violation() is not None]
    if failed:
        raise ConfigurationError(f"schedule validation failed: {'; '.join(failed)}")
    plan = Plan(prob, gamma, cfg.relaxation)
    sigma_of, alpha_of = prob.oracle.noise.sigma, cfg.inertia.alpha
    every, last_n, stop_tol = cfg.record_every, cfg.max_iter, cfg.stop_tol
    if reference is not None and reference.dims != plan.dims:
        raise DimensionMismatch(f"reference dims {reference.dims} != x0 dims {plan.dims}")
    ref = None if reference is None else reference.flat

    def result(x):
        return BlockVector.from_flat(x, plan.dims)

    trace = RunTrace()
    x = x_prev = prob.x0.flat  # x_{-1} = x_0
    sn = plan.distance(x, x_prev)  # ||x_n - x_{n-1}||, then carried over from each step
    # an upper bound on ||x_n||, since ||x_{n+1}|| <= ||x_n|| + ||x_{n+1} - x_n||;
    # below half the divergence limit, which absorbs every rounding of the
    # norms and sums, the norm itself cannot reach the limit and is skipped
    bound = plan.norm(x)
    row = None
    for n in range(last_n + 1):
        sigma, alpha = sigma_of(n), alpha_of(n)
        if n % every == 0 or n == last_n:
            row = fp_residual(plan, x)
            res = row[3]
            dist = plan.distance(x, ref) if ref is not None else float("nan")
            trace.append(TraceRow(n, res, sn, dist, sigma, alpha))
            if res <= stop_tol:
                trace.status = CONVERGED
                trace.iterations = n
                return result(x), trace
        if n == last_n:
            break
        x_next, x_curr = step(plan, (x, x_prev), n, alpha, sigma, row)
        # a step that took the row's p at lambda = 1 returns it from x, and
        # ||p - x|| is ||x - p|| bit for bit (p - x is -(x - p) exactly)
        if row is not None and x_next is row[2] and row[0] is x:
            sn = row[3]
        else:
            sn = plan.distance(x_next, x)
        if trace.first_step_norm is None and sn > 0.0:
            trace.first_step_norm = sn
        trace.max_step_norm = max(trace.max_step_norm, sn)
        x, x_prev = x_next, x_curr
        bound += sn
        if not bound <= 0.5 * _DIVERGE_NORM:
            bound = plan.norm(x)
            # a NaN or infinite entry, or an overflowing sum of squares, makes
            # the norm (and the bound) NaN or inf, which fails the comparison
            if not bound <= _DIVERGE_NORM:
                trace.status = DIVERGED
                trace.iterations = n + 1
                trace.diverged_at = n
                return result(x), trace
    trace.status = MAX_ITER
    trace.iterations = cfg.max_iter
    return result(x), trace
