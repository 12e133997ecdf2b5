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
from sifb.problems import build_lasso, sifb_instance
from sifb.solver import SolverConfig, run


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
    w = BlockVector([[0.4, -0.2, 1.0]])
    assert (oracle.sample(7, w) - b_map.apply(w)).norm() == 0.0


def test_sample_reproducible_given_seed_and_n():
    b_map = lstsq_map()
    w = BlockVector([[0.4, -0.2, 1.0]])
    o1 = StochasticOracle(b_map, NoiseSchedule.polynomial(1.0, 0.75), rng_seed=42)
    o2 = StochasticOracle(b_map, NoiseSchedule.polynomial(1.0, 0.75), rng_seed=42)
    s1 = o1.sample(3, w)
    s2 = o2.sample(3, w)
    for a, b in zip(s1.blocks, s2.blocks):
        assert np.array_equal(a, b)  # bit-identical
    assert (o1.sample(4, w) - s1).norm() > 0  # different n, different draw


def test_sigma_decay_and_empirical_std():
    # theta = 1 gives sigma_3 = 0.25; Monte Carlo std within the 3-sigma band
    noise = NoiseSchedule.polynomial(1.0, 1.0)
    assert noise.sigma(3) == pytest.approx(0.25)
    b_map = CocoerciveMap.zero_map((1,))
    oracle = StochasticOracle(b_map, noise, rng_seed=5)
    draws = oracle.sample_batch(3, BlockVector([[0.0]]), 100000)
    vals = np.array([d.blocks[0][0] for d in draws])
    assert 0.247 <= vals.std() <= 0.253


def test_empirical_mean_is_unbiased():
    # independent draws across n at constant sigma; mean within 4 sigma / sqrt(N)
    b_map = lstsq_map()
    w = BlockVector([[0.4, -0.2, 1.0]])
    exact = b_map.apply(w)
    noise = NoiseSchedule.polynomial(0.5, 0.0)  # constant sigma
    oracle = StochasticOracle(b_map, noise, rng_seed=9)
    draws = oracle.sample_batch(0, w, 100000)
    mean = np.mean([d.blocks[0] for d in draws], axis=0)
    err = np.linalg.norm(mean - exact.blocks[0])
    assert err <= 4 * 0.5 / np.sqrt(100000)


def test_minibatch_unbiased_and_deterministic():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((40, 4))
    b_map = CocoerciveMap.least_squares_gradient(a, rng.standard_normal(40))
    oracle = StochasticOracle(b_map, NoiseSchedule.polynomial(1.0, 0.75),
                              rng_seed=3, mode="minibatch", batch0=4)
    w = BlockVector([rng.standard_normal(4)])
    s1 = oracle.sample(2, w)
    s2 = oracle.sample(2, w)
    assert (s1 - s2).norm() == 0.0
    # batch grows like (n+1)^{2 theta}
    assert oracle.batch_size(0) == 4
    assert oracle.batch_size(3) == int(np.ceil(4 * 4 ** 1.5))
    # unbiasedness: average many steps at growing n against the exact value
    exact = b_map.apply(w)
    samples = [oracle.sample(n, w) for n in range(400)]
    mean = np.mean([s.blocks[0] for s in samples], axis=0)
    assert np.linalg.norm(mean - exact.blocks[0]) <= 0.5


@pytest.mark.parametrize("noise", [
    NoiseSchedule.zero(),
    NoiseSchedule.geometric(0.5, 0.9),
    NoiseSchedule.polynomial(0.0, 0.0),
], ids=["zero", "geom", "poly_theta_zero"])
def test_minibatch_without_summable_variance_is_refused(noise):
    # a batch that never grows keeps a variance whose sum diverges; with zero
    # or geom noise, or poly noise at theta = 0, the batch stays at 2 of 40 rows
    demo = build_lasso(40, 30, 0.1, seed=0)
    with pytest.raises(ConfigurationError, match="summable_noise_variance"):
        sifb_instance(demo, noise=noise, oracle_mode="minibatch", batch0=2)


def test_minibatch_growing_batch_covers_every_row_and_converges():
    # ceil(2 (n+1)^0.8) reaches all 40 rows at n = 40: any growth gets there,
    # and from then on the draw is the exact map
    demo = build_lasso(40, 30, 0.1, seed=0)
    inst = sifb_instance(demo, noise=NoiseSchedule.polynomial(0.0, 0.4),
                         oracle_mode="minibatch", batch0=2)
    assert inst.oracle.batch_size(39) < 40 <= inst.oracle.batch_size(40)
    w = BlockVector([np.ones(30)])
    assert (inst.oracle.sample(40, w) - inst.oracle.base.apply(w)).norm() == 0.0
    _, trace = run(inst, SolverConfig(beta=inst.beta, max_iter=20000, stop_tol=1e-8))
    assert trace.status == "converged"


def test_minibatch_covering_every_row_is_exact_and_converges():
    demo = build_lasso(40, 30, 0.1, seed=0)
    inst = sifb_instance(demo, oracle_mode="minibatch", batch0=40)
    w = BlockVector([np.ones(30)])
    assert (inst.oracle.sample(5, w) - inst.oracle.base.apply(w)).norm() == 0.0
    _, trace = run(inst, SolverConfig(beta=inst.beta, max_iter=20000, stop_tol=1e-8))
    assert trace.status == "converged"


def test_minibatch_batch_saturates_at_the_row_count_past_the_float_range():
    # batch0 (n+1)^400 leaves the float range at n = 5; a batch that large
    # covers every row, so the draw is the exact map and the run goes on
    inst = sifb_instance(build_lasso(20, 30, 0.1, cond=10.0, seed=1),
                         noise=NoiseSchedule.polynomial(0.1, 200.0),
                         oracle_mode="minibatch", batch0=1)
    assert [inst.oracle.batch_size(n) for n in (0, 1, 5, 10**6)] == [1, 20, 20, 20]
    w = BlockVector([np.ones(30)])
    assert (inst.oracle.sample(5, w) - inst.oracle.base.apply(w)).norm() == 0.0
    _, trace = run(inst, SolverConfig(beta=inst.beta, max_iter=50, stop_tol=1e-12))
    assert trace.iterations == 50


def test_minibatch_run_does_not_gate_on_sigma0():
    # a minibatch draw never reads sigma0: sigma0 = 1 makes the same draws,
    # iterates and residuals as sigma0 = 0, and only the sigma_n column differs
    demo = build_lasso(40, 30, 0.1, seed=0)
    runs = []
    for sigma0 in (0.0, 1.0):
        inst = sifb_instance(demo, noise=NoiseSchedule.polynomial(sigma0, 0.4),
                             oracle_mode="minibatch", batch0=2)
        runs.append(run(inst, SolverConfig(beta=inst.beta, max_iter=20000,
                                           stop_tol=1e-8)))
    (x0, t0), (x1, t1) = runs
    assert t0.status == t1.status == "converged"
    assert np.array_equal(x0.blocks[0], x1.blocks[0])
    assert [r.fp_residual for r in t0.rows] == [r.fp_residual for r in t1.rows]
    assert t1.rows[1].sigma == 2.0 ** -0.4


def test_noisy_sample_adds_fresh_noise_to_the_reused_exact_value():
    # the second draw at the same point reuses the exact value, not the noise
    b_map = lstsq_map()
    noise = NoiseSchedule.polynomial(1.0, 0.75)
    w = BlockVector([[0.4, -0.2, 1.0]])
    oracle = StochasticOracle(b_map, noise, rng_seed=42)
    s3, s4 = oracle.sample(3, w), oracle.sample(4, w)
    for n, got in ((3, s3), (4, s4)):
        want = StochasticOracle(b_map, noise, rng_seed=42).sample(n, w)
        assert np.array_equal(got.blocks[0], want.blocks[0])
        assert (got - b_map.apply(w)).norm() > 0
    assert (s3 - s4).norm() > 0


def test_derive_seeds_distinct_and_deterministic():
    seeds = derive_seeds(123, 50)
    assert len(set(seeds)) == 50
    assert seeds == derive_seeds(123, 50)
    assert all(0 <= s < 2**64 for s in seeds)


def test_oracle_streams_bit_identical_across_instances():
    b_map = lstsq_map()
    noise = NoiseSchedule.geometric(1.0, 0.9)
    w = BlockVector([[1.0, 2.0, 3.0]])
    o1 = StochasticOracle(b_map, noise, rng_seed=77)
    o2 = StochasticOracle(b_map, noise, rng_seed=77)
    # interrogate in different orders; streams depend only on (seed, n)
    a1 = [o1.sample(n, w) for n in (5, 1, 3)]
    a2 = [o2.sample(n, w) for n in (1, 3, 5)]
    assert (a1[0] - a2[2]).norm() == 0.0
    assert (a1[1] - a2[0]).norm() == 0.0
    assert (a1[2] - a2[1]).norm() == 0.0


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
    assert len(got.blocks) == len(want)
    for a, b in zip(got.blocks, want):
        assert a.tobytes() == b.tobytes()


def test_additive_draws_at_edge_seeds_and_steps_match_numpy():
    w = BlockVector([np.linspace(-1.0, 1.0, 4), [2.0], np.arange(3.0)])
    for seed in EDGE_SEEDS:
        oracle = additive_oracle(w.dims, seed)
        # each step is asked twice, the second round in reverse order
        for n in EDGE_STEPS + EDGE_STEPS[::-1]:
            assert_same_bytes(oracle.sample(n, w), numpy_additive_draw(oracle, n, w))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**140)),
       steps=st.lists(st.one_of(st.sampled_from(EDGE_STEPS), st.integers(0, 2**70)),
                      min_size=1, max_size=6),
       dims=st.lists(st.integers(0, 6), min_size=1, max_size=4))
def test_additive_draws_match_numpy(seed, steps, dims):
    oracle = additive_oracle(dims, seed)
    w = BlockVector([np.linspace(0.0, 1.0, d) for d in dims])
    for n in steps:  # in the order drawn, not sorted
        assert_same_bytes(oracle.sample(n, w), numpy_additive_draw(oracle, n, w))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**140)),
       steps=st.lists(st.one_of(st.sampled_from(EDGE_STEPS), st.integers(0, 2**40)),
                      min_size=1, max_size=6))
def test_minibatch_draws_match_numpy(seed, steps):
    # theta = 0.01 keeps the batch at a few of the 50 rows even at n = 2**40,
    # so every step draws row indices
    rng = np.random.default_rng(8)
    b_map = CocoerciveMap.least_squares_gradient(rng.standard_normal((50, 4)),
                                                 rng.standard_normal(50))
    oracle = StochasticOracle(b_map, NoiseSchedule.polynomial(1.0, 0.01),
                              rng_seed=seed, mode="minibatch", batch0=2)
    count, batch_fn = b_map.components
    w = BlockVector([[0.3, -1.0, 2.0, 0.5]])
    for n in steps:
        size = oracle.batch_size(n)
        assert size < count
        idx = numpy_stream(seed, n).integers(0, count, size=size)
        assert_same_bytes(oracle.sample(n, w), [batch_fn(idx, w.concatenated())])


def test_sample_batch_continues_numpys_stream():
    w = BlockVector([[1.0, 2.0], [3.0]])
    oracle = additive_oracle(w.dims, 2**64 - 1)
    draws = oracle.sample_batch(300, w, 3)
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
                results[k].append((n, oracle.sample_batch(n, w, 1)[0]))
            else:
                results[k].append((n, oracle.sample(n, w)))

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
