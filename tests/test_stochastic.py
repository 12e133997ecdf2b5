import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from sifb import (
    BlockVector,
    CocoerciveMap,
    ConfigurationError,
    InertiaSchedule,
    NoiseSchedule,
    Preconditioner,
    StochasticOracle,
    derive_seeds,
)
from sifb.errors import InvalidValue
from sifb.problems import build_lasso, sifb_instance
from sifb.solver import SolverConfig, run

from audits import sample_batch


# --- schedule summability -----------------------------------------------------


def failing(*schedules):
    """The CONDITION of each schedule whose sum diverges, in order."""
    return [s.CONDITION for s in schedules if s.violation() is not None]


def test_default_experiment_schedules_pass():
    assert failing(NoiseSchedule.polynomial(1.0, 0.75),
                   InertiaSchedule.polynomial(0.5, 1.5)) == []


def test_harmonic_variance_rejected():
    assert failing(NoiseSchedule.polynomial(1.0, 0.5),
                   InertiaSchedule.zero()) == ["summable_noise_variance"]


def test_borderline_inertia_rejected():
    assert failing(NoiseSchedule.zero(),
                   InertiaSchedule.polynomial(0.3, 1.0)) == ["summable_inertia"]


def test_geometric_schedules_pass():
    assert failing(NoiseSchedule.geometric(1.0, 0.9),
                   InertiaSchedule.geometric(0.3, 0.9)) == []


def test_geometric_rho_one_rejected():
    assert failing(NoiseSchedule.geometric(1.0, 1.0), InertiaSchedule.geometric(0.3, 1.0)) == [
        "summable_noise_variance", "summable_inertia"]


def test_zero_schedules_always_pass():
    assert failing(NoiseSchedule.zero(), InertiaSchedule.zero()) == []


def test_partial_sums_bounded_by_analytic_limit():
    # closed forms: sigma0^2 zeta(2 theta) and alpha0 zeta(q)
    noise = NoiseSchedule.polynomial(1.3, 0.75)
    inertia = InertiaSchedule.polynomial(0.5, 1.5)
    var_limit = 1.3**2 * zeta(1.5)
    inertia_limit = 0.5 * zeta(1.5)
    acc_v = acc_a = 0.0
    prev_v = prev_a = -1.0
    for n in range(20000):
        acc_v += noise.sigma(n) ** 2
        acc_a += inertia.alpha(n)
        assert acc_v >= prev_v and acc_a >= prev_a  # monotone
        prev_v, prev_a = acc_v, acc_a
    assert acc_v <= var_limit + 1e-9
    assert acc_a <= inertia_limit + 1e-9


def test_geometric_series_limits():
    # closed forms: sigma0^2 / (1 - rho^2) and alpha0 / (1 - rho); at rho = 0.5
    # 200 terms leave a tail far below double precision
    noise = NoiseSchedule.geometric(2.0, 0.5)
    assert sum(noise.sigma(n) ** 2 for n in range(200)) == pytest.approx(4.0 / (1 - 0.25))
    inertia = InertiaSchedule.geometric(0.4, 0.5)
    assert sum(inertia.alpha(n) for n in range(200)) == pytest.approx(0.8)


def test_alpha0_range_validated():
    with pytest.raises(ConfigurationError):
        InertiaSchedule.polynomial(1.0, 2.0)
    with pytest.raises(ConfigurationError):
        InertiaSchedule.polynomial(-0.1, 2.0)


def test_schedule_config_roundtrip():
    for sched in (NoiseSchedule.polynomial(1.0, 0.75), NoiseSchedule.geometric(0.5, 0.9),
                  NoiseSchedule.zero()):
        assert NoiseSchedule.from_config(sched.to_config()) == sched
    for sched in (InertiaSchedule.polynomial(0.5, 1.5), InertiaSchedule.geometric(0.3, 0.9),
                  InertiaSchedule.zero()):
        assert InertiaSchedule.from_config(sched.to_config()) == sched


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cls=st.sampled_from([NoiseSchedule, InertiaSchedule]),
       mode=st.sampled_from(["zero", "poly", "geom"]),
       scale=st.floats(0.0, 0.999), decay=st.floats(-2.0, 3.0),
       rho=st.floats(0.0, 1.5), n=st.integers(0, 1000))
def test_schedule_roundtrip_closed_form_and_gate(cls, mode, scale, decay, rho, n):
    sched = {"zero": cls.zero(), "poly": cls.polynomial(scale, decay),
             "geom": cls.geometric(scale, rho)}[mode]
    assert cls.from_config(sched.to_config()) == sched
    if cls is NoiseSchedule:
        value, poly_converges = sched.sigma(n), 2.0 * decay > 1.0
    else:
        value, poly_converges = sched.alpha(n), decay > 1.0
    if mode == "zero" or scale == 0.0:
        expected, converges = 0.0, True
    elif mode == "poly":
        expected, converges = scale * (n + 1.0) ** (-decay), poly_converges
    else:
        expected, converges = scale * rho**n, rho < 1.0
    assert value.hex() == expected.hex()
    assert (sched.violation() is None) == converges


# --- the oracle -----------------------------------------------------------------


def lstsq_map():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3))
    return CocoerciveMap.least_squares_gradient(a, rng.standard_normal(5))


def test_zero_noise_is_exact():
    b_map = lstsq_map()
    oracle = StochasticOracle(b_map, NoiseSchedule.zero(), rng_seed=1)
    w = np.array([0.4, -0.2, 1.0])
    assert np.array_equal(oracle.sample(7, w), b_map.apply_flat(w))


def test_sample_reproducible_given_seed_and_n():
    b_map = lstsq_map()
    w = np.array([0.4, -0.2, 1.0])
    o1 = StochasticOracle(b_map, NoiseSchedule.polynomial(1.0, 0.75), rng_seed=42)
    o2 = StochasticOracle(b_map, NoiseSchedule.polynomial(1.0, 0.75), rng_seed=42)
    s1 = o1.sample(3, w)
    s2 = o2.sample(3, w)
    assert s1.tobytes() == s2.tobytes()  # bit-identical
    assert np.linalg.norm(o1.sample(4, w) - s1) > 0  # different n, different draw


def test_sigma_decay_and_empirical_std():
    # theta = 1 gives sigma_3 = 0.25; Monte Carlo std within the 3-sigma band
    noise = NoiseSchedule.polynomial(1.0, 1.0)
    assert noise.sigma(3) == pytest.approx(0.25)
    b_map = CocoerciveMap.zero_map((1,))
    oracle = StochasticOracle(b_map, noise, rng_seed=5)
    draws = sample_batch(oracle, 3, np.zeros(1), 100000)
    vals = np.array([d[0] for d in draws])
    assert 0.247 <= vals.std() <= 0.253


def test_empirical_mean_is_unbiased():
    # independent draws across n at constant sigma; mean within 4 sigma / sqrt(N)
    b_map = lstsq_map()
    w = np.array([0.4, -0.2, 1.0])
    exact = b_map.apply_flat(w)
    noise = NoiseSchedule.polynomial(0.5, 0.0)  # constant sigma
    oracle = StochasticOracle(b_map, noise, rng_seed=9)
    draws = sample_batch(oracle, 0, w, 100000)
    mean = np.mean(draws, axis=0)
    err = np.linalg.norm(mean - exact)
    assert err <= 4 * 0.5 / np.sqrt(100000)


def test_noisy_sample_adds_fresh_noise_to_the_reused_exact_value():
    # the second draw at the same point reuses the exact value, not the noise
    b_map = lstsq_map()
    noise = NoiseSchedule.polynomial(1.0, 0.75)
    w = np.array([0.4, -0.2, 1.0])
    oracle = StochasticOracle(b_map, noise, rng_seed=42)
    s3, s4 = oracle.sample(3, w), oracle.sample(4, w)
    for n, got in ((3, s3), (4, s4)):
        want = StochasticOracle(b_map, noise, rng_seed=42).sample(n, w)
        assert np.array_equal(got, want)
        assert np.linalg.norm(got - b_map.apply_flat(w)) > 0
    assert np.linalg.norm(s3 - s4) > 0


def test_derive_seeds_distinct_and_deterministic():
    seeds = derive_seeds(123, 50)
    assert len(set(seeds)) == 50
    assert seeds == derive_seeds(123, 50)
    assert all(0 <= s < 2**64 for s in seeds)


@pytest.mark.parametrize("master_seed", [2**64, 2**64 + 5, -1])
def test_derive_seeds_refuses_a_master_seed_outside_64_bits(master_seed):
    # masked to 64 bits, 2**64 + 5 would derive the seeds of 5
    with pytest.raises(InvalidValue, match=r"^master seed must be in \[0, 2\*\*64\), got "):
        derive_seeds(master_seed, 3)
    assert derive_seeds(2**64 - 1, 2) == derive_seeds(2**64 - 1, 2)


def test_oracle_streams_bit_identical_across_instances():
    b_map = lstsq_map()
    noise = NoiseSchedule.geometric(1.0, 0.9)
    w = np.array([1.0, 2.0, 3.0])
    o1 = StochasticOracle(b_map, noise, rng_seed=77)
    o2 = StochasticOracle(b_map, noise, rng_seed=77)
    # interrogate in different orders; streams depend only on (seed, n)
    a1 = [o1.sample(n, w) for n in (5, 1, 3)]
    a2 = [o2.sample(n, w) for n in (1, 3, 5)]
    assert np.array_equal(a1[0], a2[2])
    assert np.array_equal(a1[1], a2[0])
    assert np.array_equal(a1[2], a2[1])


# --- the noise stream is numpy's SeedSequence stream, bit for bit --------------

# word boundaries of numpy's seed hashing: seeds of 1 to 5 words, steps at the
# edges of the oracle's 256-step reseed blocks and of the second word of n
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 1]
EDGE_STEPS = [0, 255, 256, 2**32 - 1, 2**32]
CONSTANT_SIGMA = NoiseSchedule.geometric(0.5, 1.0)  # sigma_n = 0.5 at every n


def numpy_stream(seed, n):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))


def additive_oracle(dims, seed):
    return StochasticOracle(
        CocoerciveMap.scaled_identity(dims, 1.0, metric=Preconditioner.identity(dims)),
        CONSTANT_SIGMA, rng_seed=seed)


def numpy_additive_draw(oracle, n, w):
    rng = numpy_stream(oracle.rng_seed, n)
    exact = oracle.base.apply(w)
    return [e + 0.5 * rng.standard_normal(d) for e, d in zip(exact.blocks, exact.dims)]


def assert_same_bytes(got, want):
    """The flat draw got holds the block arrays of want, in block order."""
    assert got.tobytes() == b"".join(b.tobytes() for b in want)


def test_additive_draws_at_edge_seeds_and_steps_match_numpy():
    w = BlockVector([np.linspace(-1.0, 1.0, 4), [2.0], np.arange(3.0)])
    for seed in EDGE_SEEDS:
        oracle = additive_oracle(w.dims, seed)
        # each step is asked twice, the second round in reverse order
        for n in EDGE_STEPS + EDGE_STEPS[::-1]:
            assert_same_bytes(oracle.sample(n, w.flat), numpy_additive_draw(oracle, n, w))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**140)),
       steps=st.lists(st.one_of(st.sampled_from(EDGE_STEPS), st.integers(0, 2**70)),
                      min_size=1, max_size=6),
       dims=st.lists(st.integers(0, 6), min_size=1, max_size=4))
def test_additive_draws_match_numpy(seed, steps, dims):
    oracle = additive_oracle(dims, seed)
    w = BlockVector([np.linspace(0.0, 1.0, d) for d in dims])
    for n in steps:  # in the order drawn, not sorted
        assert_same_bytes(oracle.sample(n, w.flat), numpy_additive_draw(oracle, n, w))


def test_sample_batch_continues_numpys_stream():
    w = BlockVector([[1.0, 2.0], [3.0]])
    oracle = additive_oracle(w.dims, 2**64 - 1)
    draws = sample_batch(oracle, 300, w.flat, 3)
    rng = numpy_stream(2**64 - 1, 300)
    for got in draws:
        assert_same_bytes(got, [e + 0.5 * rng.standard_normal(len(e)) for e in w.blocks])


def test_negative_seed_is_refused_before_any_draw():
    with pytest.raises(ConfigurationError, match="rng_seed.*-1"):
        StochasticOracle(lstsq_map(), NoiseSchedule.polynomial(1.0, 0.75), rng_seed=-1)


def test_concurrent_draws_equal_serial_draws():
    # more threads than cores and a short switch interval, so that threads are
    # preempted between reseeding the oracle's generator and drawing from it
    dims = (7, 3)
    w = BlockVector([np.ones(7), np.arange(3.0)])
    steps = [n for base in (0, 256, 2**32 - 256, 2**32) for n in range(base, base + 256, 5)]
    serial = {n: numpy_additive_draw(additive_oracle(dims, 2**64 + 5), n, w) for n in steps}
    oracle = additive_oracle(dims, 2**64 + 5)
    threads = min(4 * (os.cpu_count() or 1), 16) + 1
    deadline = time.monotonic() + 5.0
    results = [[] for _ in range(threads)]

    def work(k):
        mine = steps[k::threads] + steps[::-1][k::threads]
        for i, n in enumerate(mine):
            if time.monotonic() > deadline:
                return
            if i % 3 == 0:
                results[k].append((n, sample_batch(oracle, n, w.flat, 1)[0]))
            else:
                results[k].append((n, oracle.sample(n, w.flat)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert all(results)
    for got in results:
        for n, draw in got:
            assert_same_bytes(draw, serial[n])


@pytest.mark.parametrize("relaxation", [1.0, 0.7])
def test_run_returns_read_only_iterate(relaxation):
    inst = sifb_instance(build_lasso(12, 10, 0.1, seed=1),
                         noise=NoiseSchedule.polynomial(0.2, 0.75), seed=4)
    cfg = SolverConfig(beta=inst.beta, relaxation=relaxation, max_iter=30,
                       inertia=InertiaSchedule.polynomial(0.3, 1.5))
    x, _ = run(inst, cfg)
    for block in x.blocks:
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0] = 1.0
