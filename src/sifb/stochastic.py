"""Stochastic forward-step oracles and the schedules that gate them.

The oracle is conditionally unbiased by construction: it adds independent
zero-mean Gaussian noise to the exact map value. The noise stream at step n is
a deterministic function of (seed, n) alone, so runs replay exactly and
replicas with distinct seeds are independent.

That stream is numpy's: the draws at step n are those of
`np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))`,
bit for bit. Building that generator costs far more than the draw, so each
oracle keeps one PCG64 generator and sets its state to the one numpy would
seed. The state comes from a port of numpy's SeedSequence mixing and PCG64
seeding: the seed's words are mixed once per oracle, and the spawn-key words
of n are mixed vectorised for an aligned block of consecutive steps at a time.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidValue, bind_kind

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence hash constants (4-word pool) and PCG64's 128-bit LCG
# multiplier
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# steps whose seed states are mixed together; divides 2**32, so an aligned
# block never straddles a change in the words of n above the lowest
_SEED_BLOCK = 256


def derive_seeds(master_seed, count):
    """Disjoint 64-bit replica seeds from one master seed in [0, 2**64).

    Uses the splitmix64 stream (golden-gamma increment, two xor-multiply
    finalizer rounds); documented here so external tooling can reproduce the
    per-replica seeds. The stream's state is 64 bits, so a master seed out of
    that range, which would derive the seeds of another, is refused as an
    InvalidValue.
    """
    x = int(master_seed)
    if not 0 <= x <= _MASK64:
        raise InvalidValue(f"master seed must be in [0, 2**64), got {x}")
    out = []
    for _ in range(int(count)):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append((z ^ (z >> 31)) & _MASK64)
    return out


def _uint32_words(value):
    """The 32-bit words of a non-negative int, least significant first; 0 is [0]."""
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


def _hashmix(value, hc, mult=_MULT_A):
    """SeedSequence's hashmix: (mixed value, next hash constant).

    `value` may be an int or a uint32 array, whose products wrap mod 2**32.
    generate_state hashes its output words the same way with `_MULT_B`.
    """
    value = value ^ hc
    hc = (hc * mult) & _MASK32
    value = (value * hc) & _MASK32
    return value ^ (value >> 16), hc


def _mix(x, y):
    """SeedSequence's mix of two pool words (ints or uint32 arrays)."""
    value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _mix_words(pool, words, hc):
    """SeedSequence's mixing of further entropy words into each pool word.

    Updates `pool` in place and returns the next hash constant.
    """
    for word in words:
        for dst in range(_POOL_SIZE):
            value, hc = _hashmix(word, hc)
            pool[dst] = _mix(pool[dst], value)
    return hc


def _seed_pool(seed):
    """SeedSequence's pool and hash constant after the seed's words, before n's.

    numpy pads the seed's words with zeros to the pool size when a spawn key
    follows, mixes the first four into the pool, then any further ones.
    """
    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    hc = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, hc = _hashmix(word, hc)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hc = _hashmix(pool[src], hc)
                pool[dst] = _mix(pool[dst], value)
    return pool, _mix_words(pool, entropy[_POOL_SIZE:], hc)


def _spawn_block(pool, hc, base):
    """PCG64 seed words of the streams of steps base, ..., base + _SEED_BLOCK - 1.

    Mixes the spawn-key words of each step n into the seed's pool, as
    SeedSequence(entropy=seed, spawn_key=(n,)) does: across an aligned block
    only the lowest word of n varies, so that word is a uint32 array and the
    others are shared ints. Then draws SeedSequence's generate_state(4, uint64)
    from each pool. Returns one [s_hi, s_lo, inc_hi, inc_lo] list of ints per
    step, PCG64's 128-bit initial state and stream.
    """
    low = base & _MASK32
    words = [np.arange(low, low + _SEED_BLOCK, dtype=np.uint32)]
    if base >> 32:
        words += _uint32_words(base >> 32)
    pool = [np.full(_SEED_BLOCK, word, dtype=np.uint32) for word in pool]
    _mix_words(pool, words, hc)
    hc = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value, hc = _hashmix(pool[i % _POOL_SIZE], hc, _MULT_B)
        state.append(value.astype(np.uint64))
    # little-endian pairs of 32-bit words make the 64-bit words
    return np.stack([state[2 * k] | (state[2 * k + 1] << 32) for k in range(4)],
                    axis=1).tolist()


def _pcg64_state(words):
    """PCG64's (state, inc) after seeding with the four 64-bit seed words."""
    s_hi, s_lo, inc_hi, inc_lo = words
    inc = ((((inc_hi << 64) | inc_lo) << 1) | 1) & _MASK128
    # pcg_setseq_128_srandom_r: state 0, one step, add the seed, one step
    return ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc


@dataclass(frozen=True)
class Schedule:
    """A nonnegative sequence c_n that one summability gate of the theorem checks.

    Modes: "zero" (c_n = 0), "poly" (c_n = scale (n+1)^-decay) and "geom"
    (c_n = scale rho^n). A subclass declares only what sets its sequence
    apart: the config keys of `scale` and `decay` (KEYS), the reader of a
    config section in each mode (READERS), the bound `scale` stays below
    (CAP), the series whose sum must be finite (SERIES, with its POWER of c_n)
    and the gate's name (CONDITION).
    """

    mode: str = "zero"
    scale: float = 0.0
    decay: float = 0.0
    rho: float = 0.0

    def __post_init__(self):
        if self.mode not in ("zero", "poly", "geom"):
            raise ConfigurationError(f"unknown {type(self).__name__} mode {self.mode!r}")
        if not 0.0 <= self.scale < self.CAP:
            raise ConfigurationError(
                f"{self.KEYS[0]} must lie in [0, {self.CAP:g}), got {self.scale}")
        if self.mode == "geom" and not self.rho >= 0.0:
            raise ConfigurationError(f"rho must be nonnegative, got {self.rho}")

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def polynomial(cls, scale, decay):
        return cls("poly", scale=float(scale), decay=float(decay))

    @classmethod
    def geometric(cls, scale, rho):
        return cls("geom", scale=float(scale), rho=float(rho))

    def value(self, n):
        """c_n."""
        if self.mode == "zero" or self.scale == 0.0:
            return 0.0
        if self.mode == "poly":
            return self.scale * (n + 1.0) ** (-self.decay)
        return self.scale * self.rho**n

    def violation(self):
        """None when sum_n c_n^POWER is finite, otherwise why it diverges."""
        if self.mode == "zero" or self.scale == 0.0:
            return None
        head = f"sum {self.SERIES} diverges"
        if self.mode == "geom":
            return None if self.rho < 1.0 else f"{head}: rho={self.rho} >= 1"
        if self.POWER * self.decay > 1.0:
            return None
        key = self.KEYS[1]
        gives = "" if self.POWER == 1 else f" gives {self.POWER}*{key}={self.POWER * self.decay}"
        return f"{head}: {key}={self.decay}{gives} <= 1"

    def to_config(self):
        out = {"mode": self.mode, self.KEYS[0]: self.scale}
        if self.mode == "poly":
            out[self.KEYS[1]] = self.decay
        elif self.mode == "geom":
            out["rho"] = self.rho
        return out

    @classmethod
    def from_config(cls, spec, where=None):
        """The schedule of the config section spec at path `where` (default: the
        class name); None, or a section without a mode, is the zero one. The
        reader of the section's mode takes exactly the keys that mode reads."""
        where = where or cls.__name__
        return bind_kind(cls.READERS, {} if spec is None else spec, where, key="mode",
                         default="zero", path=where)


class NoiseSchedule(Schedule):
    """Per-iteration noise magnitude sigma_n of the oracle."""

    KEYS = ("sigma0", "theta")
    CAP = math.inf
    SERIES = "sigma_n^2"
    POWER = 2
    CONDITION = "summable_noise_variance"
    sigma0 = property(lambda self: self.scale)
    theta = property(lambda self: self.decay)
    sigma = Schedule.value


class InertiaSchedule(Schedule):
    """Extrapolation coefficients alpha_n, each below 1."""

    KEYS = ("alpha0", "q")
    CAP = 1.0
    SERIES = "alpha_n"
    POWER = 1
    CONDITION = "summable_inertia"
    alpha0 = property(lambda self: self.scale)
    q = property(lambda self: self.decay)
    alpha = Schedule.value


# the readers of a schedule section, one per mode: each signature names the
# keys its mode reads. Zero mode takes its scale key only at 0, which is what
# `to_config` writes. A range refusal names its key under the section's path.


def _at(path, make, *args):
    try:
        return make(*args)
    except ConfigurationError as e:
        raise ConfigurationError(f"{path}.{e}") from None


def _zero(cls, scale, path):
    if scale != 0.0:
        raise ConfigurationError(f"{path}: zero mode takes {cls.KEYS[0]} only at 0, got {scale}")
    return cls.zero()


def _zero_noise(sigma0: float = 0.0, *, path):
    return _zero(NoiseSchedule, sigma0, path)


def _poly_noise(sigma0: float, theta: float, *, path):
    return _at(path, NoiseSchedule.polynomial, sigma0, theta)


def _geom_noise(sigma0: float, rho: float, *, path):
    return _at(path, NoiseSchedule.geometric, sigma0, rho)


def _zero_inertia(alpha0: float = 0.0, *, path):
    return _zero(InertiaSchedule, alpha0, path)


def _poly_inertia(alpha0: float, q: float, *, path):
    return _at(path, InertiaSchedule.polynomial, alpha0, q)


def _geom_inertia(alpha0: float, rho: float, *, path):
    return _at(path, InertiaSchedule.geometric, alpha0, rho)


NoiseSchedule.READERS = {"zero": _zero_noise, "poly": _poly_noise, "geom": _geom_noise}
InertiaSchedule.READERS = {"zero": _zero_inertia, "poly": _poly_inertia, "geom": _geom_inertia}


class StochasticOracle:
    """Conditionally unbiased stochastic evaluations of a cocoercive map.

    A draw at step n is B(w) + sigma_n * g, with g standard normal and
    sigma_n the noise schedule's; at sigma_n = 0 it is B(w) itself.

    The variates at step n are those of numpy's
    `default_rng(SeedSequence(entropy=rng_seed, spawn_key=(n,)))`; the value
    of sample(n, w) is deterministic in (rng_seed, n, w), whatever the call
    order. The oracle reseeds one generator of its own to that stream for
    each draw, under a lock, so concurrent draws from one oracle stay correct.
    """

    def __init__(self, base, noise=None, rng_seed=0):
        if noise is None:
            noise = NoiseSchedule.zero()
        if int(rng_seed) < 0:
            raise ConfigurationError(
                f"rng_seed must be a non-negative integer, got {rng_seed}")
        self.base = base
        self.noise = noise
        self.rng_seed = int(rng_seed)
        self._lock = threading.Lock()
        # built at the first draw, so that a noise-free run never pays for them
        self._pool = None
        self._rng = None
        self._block = (None, None)  # (first step, seed words of its block)

    def _stream(self, n):
        """The oracle's generator, reseeded to the stream of step n.

        Call with the lock held, and draw before releasing it.
        """
        if self._rng is None:
            self._pool = _seed_pool(self.rng_seed)
            self._rng = np.random.Generator(np.random.PCG64(0))
        n = int(n)
        base = n - n % _SEED_BLOCK
        if self._block[0] != base:
            self._block = (base, _spawn_block(*self._pool, base))
        state, inc = _pcg64_state(self._block[1][n - base])
        self._rng.bit_generator.state = {"bit_generator": "PCG64",
                                         "state": {"state": state, "inc": inc},
                                         "has_uint32": 0, "uinteger": 0}
        return self._rng

    def sample(self, n, w, exact=None, sigma=None):
        """One draw of the stochastic forward map at iteration n, point w.

        w is a flat float64 array in the map's block layout, as a compiled
        run steps on, and the draw is one too; `exact` is B(w), when the
        caller holds it, and `sigma` is sigma_n, when the caller has computed
        it. A draw that is the exact map returns that B(w) array itself.
        """
        if n < 0:
            raise ConfigurationError(f"iteration index must be nonnegative, got {n}")
        s = self.noise.sigma(n) if sigma is None else sigma
        if exact is None:
            exact = self.base.apply_flat(w)
        if s == 0.0:
            return exact
        # the blocks' variates in block order are one draw of their total
        # length from the same stream
        with self._lock:
            g = self._stream(n).standard_normal(len(exact))
        return exact + s * g
