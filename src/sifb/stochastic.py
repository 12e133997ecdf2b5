"""Stochastic forward-step oracles and the schedules that gate them.

The oracles are conditionally unbiased by construction: additive mode adds
independent zero-mean Gaussian noise to the exact map value, minibatch mode
averages a uniformly drawn subset of component gradients. The noise stream at
step n is a deterministic function of (seed, n) alone, so runs replay exactly
and replicas with distinct seeds are independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .spaces import BlockVector

_MASK64 = (1 << 64) - 1


def derive_seeds(master_seed, count):
    """Disjoint 64-bit replica seeds from one master seed.

    Uses the splitmix64 stream (golden-gamma increment, two xor-multiply
    finalizer rounds); documented here so external tooling can reproduce the
    per-replica seeds.
    """
    x = int(master_seed) & _MASK64
    out = []
    for _ in range(int(count)):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append((z ^ (z >> 31)) & _MASK64)
    return out


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-iteration noise magnitude sigma_n for the stochastic oracle."""

    mode: str = "zero"          # "zero" | "poly" | "geom"
    sigma0: float = 0.0
    theta: float = 0.0          # poly: sigma_n = sigma0 (n+1)^-theta
    rho: float = 0.0            # geom: sigma_n = sigma0 rho^n

    def __post_init__(self):
        if self.mode not in ("zero", "poly", "geom"):
            raise ConfigurationError(f"unknown noise mode {self.mode!r}")
        if self.sigma0 < 0:
            raise ConfigurationError(f"sigma0 must be nonnegative, got {self.sigma0}")
        if self.mode == "geom" and self.rho < 0:
            raise ConfigurationError(f"rho must be nonnegative, got {self.rho}")

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def polynomial(cls, sigma0, theta):
        return cls("poly", sigma0=float(sigma0), theta=float(theta))

    @classmethod
    def geometric(cls, sigma0, rho):
        return cls("geom", sigma0=float(sigma0), rho=float(rho))

    def sigma(self, n):
        if self.mode == "zero" or self.sigma0 == 0.0:
            return 0.0
        if self.mode == "poly":
            return self.sigma0 * (n + 1.0) ** (-self.theta)
        return self.sigma0 * self.rho**n

    def summable_variance(self):
        """Whether sum_n sigma_n^2 is finite."""
        if self.mode == "zero" or self.sigma0 == 0.0:
            return True
        if self.mode == "poly":
            return 2.0 * self.theta > 1.0
        return self.rho < 1.0

    def to_config(self):
        out = {"mode": self.mode, "sigma0": self.sigma0}
        if self.mode == "poly":
            out["theta"] = self.theta
        elif self.mode == "geom":
            out["rho"] = self.rho
        return out

    @classmethod
    def from_config(cls, spec):
        if spec is None:
            return cls.zero()
        spec = dict(spec)
        mode = spec.get("mode", "zero")
        if mode == "zero":
            return cls.zero()
        if mode == "poly":
            return cls.polynomial(spec["sigma0"], spec["theta"])
        if mode == "geom":
            return cls.geometric(spec["sigma0"], spec["rho"])
        raise ConfigurationError(f"unknown noise mode {mode!r} in config")


@dataclass(frozen=True)
class InertiaSchedule:
    """Extrapolation coefficients alpha_n; must be summable for convergence."""

    mode: str = "zero"          # "zero" | "poly" | "geom"
    alpha0: float = 0.0
    q: float = 0.0              # poly: alpha_n = alpha0 (n+1)^-q
    rho: float = 0.0            # geom: alpha_n = alpha0 rho^n

    def __post_init__(self):
        if self.mode not in ("zero", "poly", "geom"):
            raise ConfigurationError(f"unknown inertia mode {self.mode!r}")
        if not 0.0 <= self.alpha0 < 1.0:
            raise ConfigurationError(
                f"alpha0 must lie in [0, 1), got {self.alpha0}"
            )
        if self.mode == "geom" and self.rho < 0:
            raise ConfigurationError(f"rho must be nonnegative, got {self.rho}")

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def polynomial(cls, alpha0, q):
        return cls("poly", alpha0=float(alpha0), q=float(q))

    @classmethod
    def geometric(cls, alpha0, rho):
        return cls("geom", alpha0=float(alpha0), rho=float(rho))

    def alpha(self, n):
        if self.mode == "zero" or self.alpha0 == 0.0:
            return 0.0
        if self.mode == "poly":
            return self.alpha0 * (n + 1.0) ** (-self.q)
        return self.alpha0 * self.rho**n

    def max_alpha(self):
        return 0.0 if self.mode == "zero" else self.alpha0

    def summable(self):
        if self.mode == "zero" or self.alpha0 == 0.0:
            return True
        if self.mode == "poly":
            return self.q > 1.0
        return self.rho < 1.0

    def to_config(self):
        out = {"mode": self.mode, "alpha0": self.alpha0}
        if self.mode == "poly":
            out["q"] = self.q
        elif self.mode == "geom":
            out["rho"] = self.rho
        return out

    @classmethod
    def from_config(cls, spec):
        if spec is None:
            return cls.zero()
        spec = dict(spec)
        mode = spec.get("mode", "zero")
        if mode == "zero":
            return cls.zero()
        if mode == "poly":
            return cls.polynomial(spec["alpha0"], spec["q"])
        if mode == "geom":
            return cls.geometric(spec["alpha0"], spec["rho"])
        raise ConfigurationError(f"unknown inertia mode {mode!r} in config")


@dataclass
class ScheduleViolation:
    condition: str
    detail: str


@dataclass
class ScheduleReport:
    ok: bool
    violations: list = field(default_factory=list)


def validate_schedules(noise, inertia, noise_summable=None):
    """Check the summability conditions the convergence guarantee needs.

    Two conditions gate a run: the conditional variance budget
    sum_n sigma_n^2 < inf, and the inertia budget sum_n alpha_n < inf.
    `noise_summable`, when given, answers the first in place of the schedule:
    `run` passes the oracle's own answer (`StochasticOracle.summable_variance`),
    because a minibatch oracle's variance does not follow sigma_n.
    """
    violations = []
    if noise_summable is None:
        noise_summable = noise.summable_variance()
    if not noise_summable:
        if noise.mode == "poly":
            detail = (f"sum sigma_n^2 diverges: theta={noise.theta} gives "
                      f"2*theta={2 * noise.theta} <= 1")
        else:
            detail = f"sum sigma_n^2 diverges: rho={noise.rho} >= 1"
        violations.append(ScheduleViolation("summable_noise_variance", detail))
    if not inertia.summable():
        if inertia.mode == "poly":
            detail = f"sum alpha_n diverges: q={inertia.q} <= 1"
        else:
            detail = f"sum alpha_n diverges: rho={inertia.rho} >= 1"
        violations.append(ScheduleViolation("summable_inertia", detail))
    return ScheduleReport(ok=not violations, violations=violations)


class StochasticOracle:
    """Conditionally unbiased stochastic evaluations of a cocoercive map.

    additive_gaussian mode returns B(w) + sigma_n * g with g standard normal;
    minibatch mode returns an equal-weight average over a uniformly drawn
    batch of component gradients, with batch size ceil(b0 * (n+1)^(2 theta))
    so the per-sample variance decays like the additive schedule. Once the
    batch covers every component the draw is the exact map, so the variance
    sum is finite exactly when the batch grows (theta > 0 under poly noise)
    or the first batch already covers every component; any other minibatch
    oracle is refused.

    The variates at step n come from a child generator spawned from
    (rng_seed, n); the value of sample(n, w) is deterministic in those two
    plus w, whatever the call order.
    """

    def __init__(self, base, noise=None, rng_seed=0, mode="additive_gaussian",
                 batch0=1):
        if noise is None:
            noise = NoiseSchedule.zero()
        if mode not in ("additive_gaussian", "minibatch"):
            raise ConfigurationError(f"unknown oracle mode {mode!r}")
        if mode == "minibatch" and not base.is_finite_sum:
            raise ConfigurationError(
                "minibatch mode needs a finite-sum base map with component gradients"
            )
        if batch0 < 1:
            raise ConfigurationError(f"batch0 must be at least 1, got {batch0}")
        # minibatch size batch0 (n+1)^growth
        growth = 2.0 * noise.theta if noise.mode == "poly" else 0.0
        if mode == "minibatch":
            # a growing batch covers every row after finitely many steps,
            # and from then on the draw is exact
            count = base.components[0]
            if growth <= 0.0 and batch0 < count:
                raise ConfigurationError(
                    f"summable_noise_variance: minibatch size {batch0} from "
                    f"{count} component rows never grows under {noise.mode} "
                    "noise, which leaves sum_n 1/batch_n divergent; use poly "
                    "noise with theta > 0 or batch0 >= the row count"
                )
        self.base = base
        self.noise = noise
        self.rng_seed = int(rng_seed)
        self.mode = mode
        self.batch0 = int(batch0)
        self._growth = growth
        self._last_exact = None

    def _stream(self, n):
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.rng_seed, spawn_key=(int(n),))
        )

    def exact(self, w):
        """The noise-free map value B(w).

        Keeps the last (w, B(w)) and returns that value again for the same w
        object, so the exact draw of a step reuses the map value of the
        residual recorded at the same point just before it. This assumes that
        a `BlockVector` is never mutated (its arrays are read-only), so one
        object always holds one value.
        """
        last = self._last_exact
        if last is not None and last[0] is w:
            return last[1]
        value = self.base.apply(w)
        self._last_exact = (w, value)
        return value

    def summable_variance(self):
        """Whether the conditional variances of the draws sum to a finite value.

        Additive draws follow the noise schedule. A minibatch draw is exact
        once its batch covers every row, which the constructor guarantees
        happens after finitely many steps, whatever sigma0.
        """
        return self.mode == "minibatch" or self.noise.summable_variance()

    def batch_size(self, n):
        if self.mode != "minibatch":
            raise ConfigurationError("batch_size only applies to minibatch mode")
        return int(np.ceil(self.batch0 * (n + 1.0) ** self._growth))

    def sample(self, n, w):
        """One draw of the stochastic forward map at iteration n, point w."""
        if n < 0:
            raise ConfigurationError(f"iteration index must be nonnegative, got {n}")
        if self.mode == "additive_gaussian":
            s = self.noise.sigma(n)
            exact = self.exact(w)
            if s == 0.0:
                return exact
            rng = self._stream(n)
            noise = BlockVector._wrap(
                [s * rng.standard_normal(d) for d in exact.dims]
            )
            return exact + noise
        count, batch_fn = self.base.components
        bsz = self.batch_size(n)
        if bsz >= count:
            # the grown batch covers the sum: the exact map, zero variance
            return self.exact(w)
        rng = self._stream(n)
        return batch_fn(rng.integers(0, count, size=bsz), w)

    def sample_batch(self, n, w, draws):
        """Independent replicas of the step-n draw, for Monte Carlo diagnostics.

        The first element equals sample(n, w); the rest continue the same
        (seed, n) stream.
        """
        if self.mode != "additive_gaussian":
            raise ConfigurationError("sample_batch supports additive mode only")
        s = self.noise.sigma(n)
        exact = self.exact(w)
        rng = self._stream(n)
        out = []
        for _ in range(int(draws)):
            if s == 0.0:
                out.append(exact)
            else:
                out.append(exact + BlockVector._wrap(
                    [s * rng.standard_normal(d) for d in exact.dims]
                ))
        return out
