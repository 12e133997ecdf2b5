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

Cost: a step makes one oracle draw and one backward sweep, and a recorded
row one exact map evaluation and one sweep for its fixed-point residual.
`fp_residual` keeps a record (x, B x, p, ||x - p||) on the instance. A step
at that point whose draw is that map value (alpha_n = 0, and sigma_n = 0 or
a minibatch covering every row) at the residual's step gbar takes p from the
record: one evaluation and one sweep per iteration instead of two. A noisy
step with alpha_n = 0 still reuses the map value (`StochasticOracle.exact`).
At lambda = 1 that step returns the record's p, so `run` takes the trace's
||x_{n+1} - x_n|| from the record: one norm of a difference per iteration.
The divergence test computes ||x_n|| only when ||x_0|| plus the step norms
so far reaches half its limit, and stops at the same iterate as a test of
every norm would. A sweep applies resolvent kernels bound once per step
value (the forward-backward map keeps those of its last two steps, so a
given step and gbar bind once each per run; see `MonotoneBlock.bind`) to
w - gamma U r computed block by block, and wraps one vector; the
extrapolation and the relaxation are one fused pass each
(`BlockVector.axpy_diff`). A zero map, or a pair of them, returns one shared
zero vector.

The step gamma and the relaxation lambda are numbers fixed for a run (a
constant sequence, which the paper admits). `run` resolves gamma, the
default step included, and checks every gate before the first iteration;
nothing inside the loop raises a ConfigurationError. The norms
||x_n - p_n|| of the residual and ||x_{n+1} - x_n|| of the trace are summed
block by block without building the difference vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionMismatch, check_type
from .spaces import BlockVector
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
    part (`sample`, `exact`, `summable_variance` and the `noise` schedule,
    as on `StochasticOracle`), the starting point x0, its cocoercivity
    constant beta, and the backward map `backward_fn(w, gamma, r)` from the
    extrapolated point w and the draw r to the next point. `forward_backward`
    builds that map as the preconditioned resolvent step
    J_{gamma U A}(w - gamma U r), with the resolvent kernels bound for the
    last two steps it was called with; the primal-dual assemblies pass their
    class-I/II block sweeps, which realize the stacked backward map only at
    one step, `gamma_fixed` = 1.
    """

    oracle: object
    x0: object
    beta: float
    backward_fn: object
    gamma_fixed: float = None
    _last_residual: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.beta = float(self.beta)

    @classmethod
    def forward_backward(cls, operator, oracle, metric, x0, beta=None):
        if metric is None:
            raise ConfigurationError("forward-backward instances need a metric U")
        if beta is None:
            beta = oracle.base.beta
        dims, diag = metric.dims, metric.diag_blocks()
        operator.check_dims(dims)
        bound = {}  # gamma -> the resolvent kernels bound at gamma, for the last two

        def backward_fn(w, gamma, r):
            if w.dims != dims or r.dims != dims:
                raise DimensionMismatch(
                    f"point dims {w.dims} and draw dims {r.dims}, metric dims {dims}")
            kernels = bound.get(gamma)
            if kernels is None:
                if len(bound) == 2:
                    del bound[next(iter(bound))]
                kernels = bound[gamma] = operator.bind(gamma, diag)
            c = float(-gamma)
            return BlockVector._wrap(
                [j(x + c * u) for j, x, u in
                 zip(kernels, w.blocks, metric.apply_blocks(r.blocks))], dims)

        return cls(oracle, x0, beta, backward_fn)

    def check_gamma(self, gamma):
        """gamma itself, if the backward map is defined at that step."""
        if self.gamma_fixed is not None and gamma != self.gamma_fixed:
            raise ConfigurationError(
                f"this instance defines its backward map only at "
                f"gamma={self.gamma_fixed}, got {gamma}"
            )
        return gamma

    def backward(self, w, gamma, r):
        """The resolvent half-step: from the extrapolated point w and draw r."""
        return self.backward_fn(w, self.check_gamma(gamma), r)

    @property
    def default_gamma(self):
        if self.gamma_fixed is not None:
            return self.gamma_fixed
        return self.beta if math.isfinite(self.beta) else 1.0


def fp_residual(prob, x):
    """Noise-free fixed-point residual ||x - J_{gbar U A}(x - gbar U B x)||.

    Vanishes exactly on the solution set for catalogue operators. Keeps the
    record (x, B x, p, residual) on prob, from which `step` takes p for a
    draw of that B x at x and gbar, and `run` the norm of a step from x to p.
    Block vectors are immutable and `backward_fn` depends on its arguments
    alone, so the record's p is what a new sweep would return.
    """
    b = prob.oracle.exact(x)
    p = prob.backward(x, prob.default_gamma, b)
    res = x.distance(p)
    prob._last_residual = (x, b, p, res)
    return res


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
        f.write("#schema=2\n")
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


def step(prob, cfg, state, n, gamma, lam):
    """One solver iteration; returns the new (x_{n+1}, x_n) pair.

    Draws from the oracle exactly once. `gamma` and `lam` are the run's step
    and relaxation, `cfg.step_size(prob)` and `cfg.relaxation`, which `run`
    resolves once.
    """
    x, x_prev = state
    alpha = cfg.inertia.alpha(n)
    w = x if alpha == 0.0 else x.axpy_diff(alpha, x, x_prev)
    r = prob.oracle.sample(n, w)
    last = prob._last_residual
    # the draw is the recorded residual's map value at its point and step:
    # the residual's own sweep
    if last is not None and last[0] is w and last[1] is r and gamma == prob.default_gamma:
        p = last[2]
    else:
        p = prob.backward(w, gamma, r)
    # at lam = 1 the relaxed update collapses to p exactly; keep it exact
    x_next = p if lam == 1.0 else x.axpy_diff(lam, p, x)
    return x_next, x


def run(prob, cfg, reference=None):
    """Iterate until the noise-free fixed-point residual drops below stop_tol.

    Returns (final iterate, RunTrace). The trace records every `record_every`
    iterations; non-finite iterates or norm blow-up terminate with the
    `diverged` status and the offending iteration index. Every gate, the
    step size included, is checked before the first oracle draw.
    """
    if np.isfinite(prob.beta) and cfg.beta > prob.beta * (1.0 + 1e-12):
        raise ConfigurationError(
            f"config beta={cfg.beta:g} exceeds the instance constant {prob.beta:g}"
        )
    gamma = cfg.step_size(prob)
    # the summability gates; a minibatch oracle answers the noise gate itself
    noise = None if prob.oracle.summable_variance() else prob.oracle.noise
    failed = [f"{s.CONDITION}: {s.violation()}" for s in (noise, cfg.inertia)
              if s is not None and s.violation() is not None]
    if failed:
        raise ConfigurationError(f"schedule validation failed: {'; '.join(failed)}")
    lam = cfg.relaxation

    trace = RunTrace()
    x = prob.x0
    x_prev = prob.x0  # x_{-1} = x_0
    sn = x.distance(x_prev)  # ||x_n - x_{n-1}||, then carried over from each step
    # an upper bound on ||x_n||, since ||x_{n+1}|| <= ||x_n|| + ||x_{n+1} - x_n||;
    # below half the divergence limit, which absorbs every rounding of the
    # norms and sums, the norm itself cannot reach the limit and is skipped
    bound = x.norm()
    for n in range(cfg.max_iter + 1):
        recorded = (n % cfg.record_every == 0) or n == cfg.max_iter
        if recorded:
            res = fp_residual(prob, x)
            dist = x.distance(reference) if reference is not None else float("nan")
            trace.append(TraceRow(n, res, sn, dist,
                                  prob.oracle.noise.sigma(n), cfg.inertia.alpha(n)))
            if res <= cfg.stop_tol:
                trace.status = CONVERGED
                trace.iterations = n
                return x, trace
        if n == cfg.max_iter:
            break
        x_next, x_curr = step(prob, cfg, (x, x_prev), n, gamma, lam)
        last = prob._last_residual
        # an exact step at lambda = 1 returns the residual's own sweep p from x,
        # and ||p - x|| is ||x - p|| bit for bit (p - x is -(x - p) exactly)
        if last is not None and last[2] is x_next and last[0] is x:
            sn = last[3]
        else:
            sn = x_next.distance(x)
        if trace.first_step_norm is None and sn > 0.0:
            trace.first_step_norm = sn
        trace.max_step_norm = max(trace.max_step_norm, sn)
        x, x_prev = x_next, x_curr
        bound += sn
        if not bound <= 0.5 * _DIVERGE_NORM:
            bound = x.norm()
            # a NaN or infinite entry, or an overflowing sum of squares, makes
            # the norm (and the bound) NaN or inf, which fails the comparison
            if not bound <= _DIVERGE_NORM:
                trace.status = DIVERGED
                trace.iterations = n + 1
                trace.diverged_at = n
                return x, trace
    trace.status = MAX_ITER
    trace.iterations = cfg.max_iter
    return x, trace
