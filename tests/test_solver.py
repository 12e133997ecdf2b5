import dataclasses
import io
import os
import struct
import sys
import threading

import numpy as np
import pytest

from sifb import (
    BlockVector,
    CocoerciveMap,
    ConfigurationError,
    DimensionMismatch,
    InertiaSchedule,
    MonotoneBlock,
    NoiseSchedule,
    Preconditioner,
    ProblemInstance,
    ProxFunction,
    SolverConfig,
    StochasticOracle,
    derive_seeds,
    fp_residual,
    run,
)
from sifb.primal_dual import assemble_class1, assemble_class2
from sifb.problems import build_lasso, pd_problem, reference_oracle, sifb_instance
from sifb.solver import Plan

from audits import step_blocks


class CountingOracle:
    """Wraps an oracle and counts draws; the solver must draw exactly once per step."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    @property
    def base(self):
        return self.inner.base

    @property
    def noise(self):
        return self.inner.noise

    def sample(self, n, w, *args):
        self.calls += 1
        return self.inner.sample(n, w, *args)


def scalar_instance(lam=1.0, target=2.0, beta_override=None):
    """A = subdiff(lam |.|), B = gradient of 0.5 (x - target)^2, whose exact
    constant (`beta_exact`) is 1."""
    b_map = CocoerciveMap.least_squares_gradient(
        np.array([[1.0]]), np.array([target])
    )
    op = MonotoneBlock.subdiff([ProxFunction.l1(lam)])
    oracle = StochasticOracle(b_map, NoiseSchedule.zero(), rng_seed=0)
    return ProblemInstance.forward_backward(
        op, oracle, Preconditioner.identity((1,)), BlockVector([[0.0]]),
        beta=beta_override,
    )


def test_forward_backward_sweep_is_the_resolvent_step_at_each_gamma():
    # the flat map bound at each step must give the bytes of
    # J_{gamma U A}(w - gamma U r) through the per-call resolvent, on blocks
    # of three lengths, one of them empty
    rng = np.random.default_rng(8)
    dims = (4, 3, 0)
    op = MonotoneBlock([MonotoneBlock.rule_subdiff(ProxFunction.l1(0.3)),
                        MonotoneBlock.rule_conjugate_subdiff(ProxFunction.box(-0.5, 0.2)),
                        MonotoneBlock.rule_zero()])
    metric = Preconditioner.diagonal([rng.uniform(0.5, 2.0, d) for d in dims])
    b_map = CocoerciveMap.scaled_identity(dims, 1.0, metric=metric)
    inst = ProblemInstance.forward_backward(op, StochasticOracle(b_map), metric,
                                            BlockVector.zeros(dims))
    for gamma in (0.5, 0.7, 0.7, 0.5):
        w, r = (BlockVector([rng.standard_normal(d) for d in dims]) for _ in range(2))
        got = inst.backward(w, gamma, r)
        want = op.resolvent(gamma, metric, w.axpy(-gamma, metric.apply(r)))
        assert got.dims == dims
        assert all(g.tobytes() == v.tobytes() for g, v in zip(got.blocks, want.blocks))
    with pytest.raises(DimensionMismatch, match="draw dims"):
        inst.backward(w, 0.5, BlockVector([np.ones(4), np.ones(3)]))


# --- single steps ---------------------------------------------------------------


def test_step_identity_map_reaches_zero_in_one_step():
    b_map = CocoerciveMap.scaled_identity((1,), 1.0, metric=Preconditioner.identity((1,)))
    op = MonotoneBlock.zero(1)
    oracle = StochasticOracle(b_map, NoiseSchedule.zero())
    prob = ProblemInstance.forward_backward(
        op, oracle, Preconditioner.identity((1,)), BlockVector([[1.0]])
    )
    cfg = SolverConfig(beta=1.0, gamma=1.0)
    x1, x0 = step_blocks(prob, cfg, (prob.x0, prob.x0), 0)
    assert x1.blocks[0][0] == 0.0
    assert x0.blocks[0][0] == 1.0


def test_step_extrapolation_arithmetic():
    # alpha = 0.5, x_n = 2, x_{n-1} = 1 -> w_n = 2.5; with A = B = 0 the
    # iterate moves straight to w
    b_map = CocoerciveMap.zero_map((1,))
    op = MonotoneBlock.zero(1)
    oracle = StochasticOracle(b_map, NoiseSchedule.zero())
    prob = ProblemInstance.forward_backward(
        op, oracle, Preconditioner.identity((1,)), BlockVector([[2.0]]), beta=1.0
    )
    cfg = SolverConfig(beta=1.0, gamma=1.0,
                       inertia=InertiaSchedule.polynomial(0.5, 2.0))
    x1, _ = step_blocks(prob, cfg, (BlockVector([[2.0]]), BlockVector([[1.0]])), 0)
    assert x1.blocks[0][0] == pytest.approx(2.5)


def test_step_scalar_lasso_reaches_minimizer_and_stays():
    # 0 in x - 2 + subdiff|x| has the unique solution x = 1
    prob = scalar_instance(beta_override=1.0)
    cfg = SolverConfig(beta=1.0, gamma=1.0)
    state = (prob.x0, prob.x0)
    state = step_blocks(prob, cfg, state, 0)
    assert state[0].blocks[0][0] == pytest.approx(1.0)
    state = step_blocks(prob, cfg, state, 1)
    assert state[0].blocks[0][0] == pytest.approx(1.0)
    assert residual(prob, state[0]) <= 1e-14


def test_step_draws_oracle_exactly_once():
    prob = scalar_instance()
    counter = CountingOracle(prob.oracle)
    prob = dataclasses.replace(prob, oracle=counter)
    cfg = SolverConfig(beta=prob.beta)
    state = (prob.x0, prob.x0)
    for n in range(7):
        state = step_blocks(prob, cfg, state, n)
    assert counter.calls == 7


# --- full runs --------------------------------------------------------------------


def test_run_deterministic_lasso_matches_ista_oracle():
    demo = build_lasso(20, 20, 0.15, cond=100.0, seed=7)
    inst = sifb_instance(demo)
    cfg = SolverConfig(beta=inst.beta, max_iter=100000, stop_tol=1e-10)
    x, trace = run(inst, cfg)
    assert trace.status == "converged"
    ref = reference_oracle(demo, tol=1e-10)
    assert (x - ref).norm() <= 1e-6


def test_run_from_solution_terminates_at_n0():
    prob = scalar_instance(beta_override=1.0)
    prob = dataclasses.replace(prob, x0=BlockVector([[1.0]]))
    cfg = SolverConfig(beta=1.0, gamma=1.0, stop_tol=1e-12)
    x, trace = run(prob, cfg)
    assert trace.status == "converged"
    assert trace.iterations == 0
    assert trace.rows[0].fp_residual <= 1e-12


def residual(prob, x):
    """The fixed-point residual of prob at the block vector x."""
    return fp_residual(Plan(prob, prob.default_gamma, 1.0), x.concatenated())[3]


def test_fp_residual_zero_problem_and_sign():
    b_map = CocoerciveMap.zero_map((2,))
    op = MonotoneBlock.zero(1)
    oracle = StochasticOracle(b_map, NoiseSchedule.zero())
    prob = ProblemInstance.forward_backward(
        op, oracle, Preconditioner.identity((2,)), BlockVector([[0.0, 0.0]]), beta=1.0
    )
    assert residual(prob, BlockVector([[3.0, -4.0]])) == 0.0
    lasso = scalar_instance(beta_override=1.0)
    assert residual(lasso, BlockVector([[5.0]])) > 0.1


# --- reduction to the classical loop -------------------------------------------------


def plain_forward_backward_lasso(a, b, lam, gamma, relax, x0, steps):
    """Independent transcription of the classical relaxed proximal-gradient loop."""
    x = x0.copy()
    for _ in range(steps):
        g = a.T @ (a @ x - b)
        z = x - gamma * g
        p = np.sign(z) * np.maximum(np.abs(z) - gamma * lam, 0.0)
        x = p if relax == 1.0 else x + relax * (p - x)
    return x


def plain_projected_gradient(q, c, lo, hi, gamma, x0, steps):
    x = x0.copy()
    for _ in range(steps):
        z = x - gamma * (q @ x + c)
        x = np.minimum(np.maximum(z, lo), hi)
    return x


def test_reduction_bit_identical_to_classical_loop():
    rng = np.random.default_rng(55)
    cases = []
    for seed in (1, 2, 3):
        demo = build_lasso(12, 9, 0.2, cond=30.0, seed=seed)
        cases.append(("lasso", demo.data["a"], demo.data["b"], 0.2))
    for seed in (4, 5):
        g = rng.standard_normal((6, 6))
        q = g.T @ g
        q /= np.linalg.eigvalsh(q)[-1]
        cases.append(("box", q, rng.standard_normal(6), None))

    for kind, a_or_q, b_or_c, lam in cases:
        if kind == "lasso":
            a, b = a_or_q, b_or_c
            dims = (a.shape[1],)
            bm = CocoerciveMap.least_squares_gradient(a, b)
            op = MonotoneBlock.subdiff([ProxFunction.l1(lam)])
        else:
            q, c = a_or_q, b_or_c
            dims = (q.shape[0],)
            bm = CocoerciveMap.linear(q, c, dims=dims, metric=Preconditioner.identity(dims))
            op = MonotoneBlock.subdiff([ProxFunction.box(-1.0, 1.0)])
        gamma = bm.beta
        oracle = StochasticOracle(bm, NoiseSchedule.zero())
        prob = ProblemInstance.forward_backward(
            op, oracle, Preconditioner.identity(dims), BlockVector.zeros(dims)
        )
        cfg = SolverConfig(beta=bm.beta, gamma=gamma, max_iter=200,
                           stop_tol=0.0, record_every=200)
        x, trace = run(prob, cfg)
        if kind == "lasso":
            want = plain_forward_backward_lasso(a, b, lam, gamma, 1.0,
                                                np.zeros(dims[0]), 200)
        else:
            want = plain_projected_gradient(q, c, -1.0, 1.0, gamma,
                                            np.zeros(dims[0]), 200)
        assert np.array_equal(x.blocks[0], want)  # bit-for-bit


def test_relaxed_reduction_bit_identical():
    demo = build_lasso(10, 8, 0.1, cond=10.0, seed=9)
    a, b = demo.data["a"], demo.data["b"]
    bm = CocoerciveMap.least_squares_gradient(a, b)
    op = MonotoneBlock.subdiff([ProxFunction.l1(0.1)])
    oracle = StochasticOracle(bm, NoiseSchedule.zero())
    prob = ProblemInstance.forward_backward(
        op, oracle, Preconditioner.identity((8,)), BlockVector.zeros((8,))
    )
    cfg = SolverConfig(beta=bm.beta, gamma=bm.beta, relaxation=0.7,
                       max_iter=150, stop_tol=0.0, record_every=150)
    x, _ = run(prob, cfg)
    want = plain_forward_backward_lasso(a, b, 0.1, bm.beta, 0.7, np.zeros(8), 150)
    assert np.array_equal(x.blocks[0], want)


def test_noisy_inertial_rows_match_a_flat_numpy_loop_bit_for_bit():
    # fb-small-stoch's problem, written out on one flat array with its own
    # per-step generator: every row's residual and step norm to the bit
    demo = build_lasso(20, 30, 0.1, cond=100.0, seed=42)
    a, b = demo.data["a"], demo.data["b"]

    def soft(z, t):
        return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)

    for seed in derive_seeds(2024, 2):
        inst = sifb_instance(demo, noise=NoiseSchedule.polynomial(0.25, 0.75), seed=seed)
        cfg = SolverConfig(beta=inst.beta, inertia=InertiaSchedule.polynomial(0.5, 1.5),
                           max_iter=300, stop_tol=0.0)
        _, trace = run(inst, cfg)
        gamma = inst.default_gamma
        x = x_prev = np.zeros(30)
        want = []
        step_norm = 0.0
        for n in range(301):
            d = x - soft(x - gamma * (a.T @ (a @ x - b)), gamma * 0.1)
            want.append((np.sqrt(d @ d).hex(), step_norm.hex()))
            if n == 300:
                break
            w = x + 0.5 * (n + 1.0) ** -1.5 * (x - x_prev)
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
            r = a.T @ (a @ w - b) + 0.25 * (n + 1.0) ** -0.75 * rng.standard_normal(30)
            x_prev, x = x, soft(w - gamma * r, gamma * 0.1)
            step_norm = float(np.sqrt((x - x_prev) @ (x - x_prev)))
        assert [(r.fp_residual.hex(), r.step_norm.hex()) for r in trace.rows] == want


def test_inertial_run_converges_to_same_solution():
    demo = build_lasso(15, 12, 0.1, cond=20.0, seed=11)
    inst = sifb_instance(demo)
    plain_cfg = SolverConfig(beta=inst.beta, max_iter=100000, stop_tol=1e-10)
    x_plain, t0 = run(inst, plain_cfg)
    inertial_cfg = SolverConfig(beta=inst.beta, max_iter=100000, stop_tol=1e-10,
                                inertia=InertiaSchedule.geometric(0.3, 0.9))
    x_inert, t1 = run(inst, inertial_cfg)
    assert t0.status == t1.status == "converged"
    assert (x_plain - x_inert).norm() <= 1e-6


# --- reuse of the recorded residual's evaluation ----------------------------------------


def counted(inst):
    """`inst` with its exact map and the backward maps it binds counted in `calls`."""
    base, bind = inst.oracle.base, inst.bind_backward
    calls = {"map": 0, "sweep": 0}

    def counted_map(x):
        calls["map"] += 1
        return base.apply(x)

    def counted_bind(gamma):
        sweep = bind(gamma)

        def counted_sweep(w, r):
            calls["sweep"] += 1
            return sweep(w, r)

        return counted_sweep

    oracle = StochasticOracle(
        CocoerciveMap.from_callable(base.dims, counted_map, base.beta),
        inst.oracle.noise, rng_seed=inst.oracle.rng_seed)
    return dataclasses.replace(inst, oracle=oracle, bind_backward=counted_bind), calls


LASSO = build_lasso(14, 10, 0.2, cond=30.0, seed=21)


@pytest.mark.parametrize("build", [
    lambda: sifb_instance(LASSO),
    lambda: assemble_class1(pd_problem(LASSO, "split")),
], ids=["forward_backward", "class1"])
def test_exact_iteration_evaluates_map_and_sweep_once(build):
    # every step takes the map value and sweep of the record of the residual
    # at its point: N + 1 of each in N iterations, against 2N + 1 recomputing
    inst = build()
    prob, calls = counted(inst)
    x, trace = run(prob, SolverConfig(beta=inst.beta, max_iter=100000, stop_tol=1e-10))
    assert trace.status == "converged"
    n = trace.iterations
    assert n > 10
    assert calls == {"map": n + 1, "sweep": n + 1}
    # bit for bit the iterate of a loop that recomputes everything
    want = inst.x0
    for _ in range(n):
        want = inst.backward(want, inst.default_gamma, inst.oracle.base.apply(want))
    assert all(np.array_equal(a, b) for a, b in zip(x.blocks, want.blocks))


def test_split_lasso_class1_sweeps_once_per_iteration_on_the_shared_zero():
    # the split lasso's smooth map is a pair of zero maps, so every exact draw
    # is one shared zero array; the residual record still tells the
    # iterations apart by their point, so a step reuses only the sweep of the
    # residual recorded at its own point
    inst = assemble_class1(pd_problem(LASSO, "split"))
    draws = []

    def counted_bind(gamma):
        sweep = inst.bind_backward(gamma)

        def counted_sweep(w, r):
            draws.append(r)
            return sweep(w, r)

        return counted_sweep

    prob = dataclasses.replace(inst, bind_backward=counted_bind)
    _, trace = run(prob, SolverConfig(beta=inst.beta, max_iter=100000, stop_tol=1e-10))
    n = trace.iterations
    assert trace.status == "converged" and n > 10
    assert len(draws) == n + 1
    assert all(r is draws[0] for r in draws) and not draws[0].any()


def test_given_step_binds_its_kernels_once_per_step_value(monkeypatch):
    # at gamma != gbar every recorded row sweeps at gbar between two steps at
    # gamma; the run binds the kernels of both step values at its start
    binds, bind = [], MonotoneBlock.bind

    def counted_bind(self, gamma, diag):
        binds.append(gamma)
        return bind(self, gamma, diag)

    monkeypatch.setattr(MonotoneBlock, "bind", counted_bind)
    inst = sifb_instance(LASSO)
    _, trace = run(inst, SolverConfig(beta=inst.beta, gamma=0.5, max_iter=100000,
                                      stop_tol=1e-10))
    assert trace.status == "converged" and trace.iterations > 10
    assert inst.default_gamma != 0.5
    assert sorted(binds) == [0.5, inst.default_gamma]


def test_every_run_binds_its_own_kernels_once_per_step_value(monkeypatch):
    # the kernels are run state: two runs on one instance bind the step's
    # and gbar's once each, per run, and give the same trace; a block-vector
    # backward call binds its step's once
    binds, bind = [], MonotoneBlock.bind

    def counted_bind(self, gamma, diag):
        binds.append(gamma)
        return bind(self, gamma, diag)

    monkeypatch.setattr(MonotoneBlock, "bind", counted_bind)
    inst = sifb_instance(LASSO, noise=NoiseSchedule.polynomial(0.2, 0.75), seed=4)
    cfg = SolverConfig(beta=inst.beta, gamma=0.5, max_iter=200, stop_tol=0.0,
                       inertia=InertiaSchedule.polynomial(0.3, 1.5))
    first, second = (csv_text(run(inst, cfg)[1]) for _ in range(2))
    assert first == second
    gbar = inst.default_gamma
    assert gbar != 0.5 and binds == [0.5, gbar] * 2
    inst.backward(inst.x0, 0.3, inst.x0)
    assert binds[4:] == [0.3]


def test_noisy_iteration_without_inertia_takes_the_rows_map_value():
    # a noisy draw at the recorded row's point adds its noise to the row's
    # B x_n: N + 1 map evaluations in N iterations, and 2N + 1 sweeps
    inst = sifb_instance(LASSO, noise=NoiseSchedule.polynomial(0.2, 0.75), seed=4)
    prob, calls = counted(inst)
    _, trace = run(prob, SolverConfig(beta=inst.beta, max_iter=40, stop_tol=0.0))
    assert trace.iterations == 40
    assert calls == {"map": 41, "sweep": 81}


def test_inertial_iteration_sweeps_twice_per_recorded_iteration():
    # alpha_n > 0 moves the step off the residual's point: nothing is reused
    inst = sifb_instance(LASSO)
    prob, calls = counted(inst)
    cfg = SolverConfig(beta=inst.beta, max_iter=100000, stop_tol=1e-10,
                       inertia=InertiaSchedule.polynomial(0.5, 2.0))
    _, trace = run(prob, cfg)
    assert trace.status == "converged"
    assert calls["sweep"] == 2 * trace.iterations + 1


STEP_NORM_BUILDS = {
    "forward_backward": lambda noise=None: sifb_instance(LASSO, noise=noise, seed=4),
    "split-class1": lambda noise=None: assemble_class1(pd_problem(LASSO, "split"),
                                                       noise=noise, seed=4),
    "split-class2": lambda noise=None: assemble_class2(pd_problem(LASSO, "split"),
                                                       noise=noise, seed=4),
}


@pytest.fixture
def distances(monkeypatch):
    """The number of norms of differences (`Plan.distance` calls), as a
    one-element list."""
    count, original = [0], Plan.distance

    def counted(self, a, b):
        count[0] += 1
        return original(self, a, b)

    monkeypatch.setattr(Plan, "distance", counted)
    return count


@pytest.mark.parametrize("name", list(STEP_NORM_BUILDS))
def test_exact_step_norm_is_the_residual_of_the_row_before(name, distances):
    # an exact step at lambda = 1 returns the residual's sweep p, so
    # ||x_{n+1} - x_n|| is ||x_n - p_n||: one distance per iteration
    inst = STEP_NORM_BUILDS[name]()
    _, trace = run(inst, SolverConfig(beta=inst.beta, max_iter=100000, stop_tol=1e-10))
    n, rows = trace.iterations, trace.rows
    assert trace.status == "converged" and n > 10 and len(rows) == n + 1
    assert [r.step_norm.hex() for r in rows[1:]] == [r.fp_residual.hex() for r in rows[:-1]]
    assert distances[0] == (n + 1) + 1  # the residuals, and ||x_0 - x_{-1}||
    # every third row: a step that follows no residual computes its norm, to
    # the same bits as the step norms of the run that records every row
    distances[0], m = 0, n - 1  # m iterations, none of them converged
    every, sparse = (run(inst, SolverConfig(beta=inst.beta, max_iter=m, stop_tol=0.0,
                                            record_every=k))[1] for k in (1, 3))
    assert [r.n for r in sparse.rows] == list(range(0, m, 3)) + [m]
    assert all(r.step_norm.hex() == every.rows[r.n].step_norm.hex() for r in sparse.rows)
    reused = len(range(0, m, 3))  # the steps right after a recorded row
    assert distances[0] == (m + 2) + (len(sparse.rows) + (m - reused) + 1)


@pytest.mark.parametrize("name", list(STEP_NORM_BUILDS))
def test_noisy_step_norm_is_computed_at_every_iteration(name, distances):
    inst = STEP_NORM_BUILDS[name](NoiseSchedule.polynomial(0.2, 0.75))
    _, trace = run(inst, SolverConfig(beta=inst.beta, max_iter=40, stop_tol=0.0))
    assert trace.iterations == 40
    assert distances[0] == 41 + 40 + 1  # the residuals, every step, ||x_0 - x_{-1}||
    assert not any(r.step_norm == q.fp_residual for q, r in zip(trace.rows, trace.rows[1:]))


def test_threads_running_one_shared_instance_match_the_serial_run():
    # a shared instance holds no run state: every thread's run on one noisy,
    # inertial forward-backward instance, and on one noisy class-II instance
    # (whose sweeps keep L* q at alpha = 0), gives the serial run's trace and
    # iterate bytes; more threads than cores and a switch interval of 1 us
    # preempt them mid-iteration
    noise = NoiseSchedule.polynomial(0.2, 0.75)
    cases = [(sifb_instance(LASSO, noise=noise, seed=4), InertiaSchedule.polynomial(0.4, 1.5)),
             (assemble_class2(pd_problem(LASSO, "split"), noise=noise, seed=4),
              InertiaSchedule.zero())]
    for inst, inertia in cases:
        cfg = SolverConfig(beta=inst.beta, inertia=inertia, max_iter=300, stop_tol=0.0)

        def run_bytes():
            x, trace = run(inst, cfg)
            return csv_text(trace), x.concatenated().tobytes()

        serial = run_bytes()
        threads = (os.cpu_count() or 1) + 1
        results = [None] * threads

        def work(k):
            results[k] = run_bytes()

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


def test_backward_recomputes_for_other_operands():
    prob, calls = counted(scalar_instance())
    w, r = BlockVector([[3.0]]), BlockVector([[0.5]])
    p = prob.backward(w, 1.0, r)
    # an equal value in another object, or another step, is computed afresh
    assert prob.backward(w, 1.0, BlockVector([[0.5]])).blocks[0][0] == p.blocks[0][0]
    assert calls["sweep"] == 2
    q = prob.backward(w, 0.5, r)
    assert calls["sweep"] == 3
    assert (q.blocks[0][0], p.blocks[0][0]) == (2.25, 1.5)


# --- monotonicity diagnostics ---------------------------------------------------------


def test_distance_to_solution_monotone_without_inertia():
    demo = build_lasso(14, 10, 0.2, cond=50.0, seed=13)
    inst = sifb_instance(demo)
    ref = reference_oracle(demo, tol=1e-12)
    cfg = SolverConfig(beta=inst.beta, max_iter=3000, stop_tol=1e-9)
    _, trace = run(inst, cfg, reference=ref)
    dists = [r.dist_to_ref for r in trace.rows]
    for prev, cur in zip(dists, dists[1:]):
        assert cur <= prev + 1e-12


def test_fp_residual_nonincreasing_deterministic():
    demo = build_lasso(14, 10, 0.2, cond=50.0, seed=17)
    inst = sifb_instance(demo)
    cfg = SolverConfig(beta=inst.beta, max_iter=2000, stop_tol=1e-9)
    _, trace = run(inst, cfg)
    res = [r.fp_residual for r in trace.rows]
    for prev, cur in zip(res[1:], res[2:]):
        assert cur <= prev * (1 + 1e-10) + 1e-15


def test_step_norm_decays_on_converged_runs():
    demo = build_lasso(16, 12, 0.1, cond=30.0, seed=19)
    inst = sifb_instance(demo)
    cfg = SolverConfig(beta=inst.beta, max_iter=100000, stop_tol=1e-10)
    _, trace = run(inst, cfg)
    norms = [r.step_norm for r in trace.rows[1:]]  # row 0 has zero step
    k = max(1, len(norms) // 10)
    assert np.mean(norms[-k:]) < np.mean(norms[:k])
    assert trace.steps_bounded


# --- guard rails ------------------------------------------------------------------------


def test_run_refuses_a_reference_of_other_dims_before_iterating():
    prob = scalar_instance(beta_override=1.0)
    for reference in (BlockVector([[1.0, 2.0]]), BlockVector([[1.0], [2.0]])):
        with pytest.raises(DimensionMismatch, match="^reference dims"):
            run(prob, SolverConfig(beta=1.0, max_iter=3), reference=reference)


def test_forward_backward_refuses_a_map_or_x0_of_other_dims_than_the_metric():
    # refused at construction, not at the first map evaluation inside run
    op = MonotoneBlock.subdiff([ProxFunction.l1(0.1)])
    metric = Preconditioner.identity((3,))
    wide = StochasticOracle(CocoerciveMap.least_squares_gradient(np.eye(4), np.ones(4)))
    with pytest.raises(DimensionMismatch, match=r"^map dims \(4,\), metric dims \(3,\)$"):
        ProblemInstance.forward_backward(op, wide, metric, BlockVector.zeros((3,)))
    fitting = StochasticOracle(CocoerciveMap.least_squares_gradient(np.eye(3), np.ones(3)))
    with pytest.raises(DimensionMismatch, match=r"^x0 dims \(4,\), metric dims \(3,\)$"):
        ProblemInstance.forward_backward(op, fitting, metric, BlockVector.zeros((4,)))


def test_overstated_constant_is_detected_as_divergence():
    # the advertised constant is a lie: the induced step size is unstable
    prob = scalar_instance(beta_override=30.0)
    cfg = SolverConfig(beta=30.0, max_iter=10000, stop_tol=1e-12)
    x, trace = run(prob, cfg)
    assert trace.status == "diverged"
    assert trace.diverged_at is not None
    assert not trace.steps_bounded or not np.isfinite(x.concatenated()).all() or x.norm() > 1e11


@pytest.mark.parametrize("beta", [30.0, 2.2])  # x - 2 grows 29-fold or 1.2-fold a step
def test_divergence_stops_at_the_first_iterate_past_the_limit(beta):
    # the loop skips the norm while ||x_0|| plus the step norms stays below
    # half the limit; it still stops at the first iterate whose norm exceeds it
    prob = scalar_instance(lam=0.0, beta_override=beta)
    cfg = SolverConfig(beta=beta, max_iter=10000, stop_tol=1e-12)
    x, trace = run(prob, cfg)
    state, n = step_blocks(prob, cfg, (prob.x0, prob.x0), 0), 0
    while state[0].norm() <= 1e12 and n < cfg.max_iter:
        n += 1
        state = step_blocks(prob, cfg, state, n)
    assert n > 5 and (trace.status, trace.diverged_at, trace.iterations) == ("diverged", n, n + 1)
    assert x.concatenated().tobytes() == state[0].concatenated().tobytes()


NOISE_FAILS = "summable_noise_variance: sum sigma_n^2 diverges: theta=0.4 gives 2*theta=0.8 <= 1"
INERTIA_FAILS = "summable_inertia: sum alpha_n diverges: q=1.0 <= 1"


@pytest.mark.parametrize("noise,inertia,failed", [
    (NoiseSchedule.polynomial(1.0, 0.4), InertiaSchedule.zero(), NOISE_FAILS),
    (NoiseSchedule.zero(), InertiaSchedule.polynomial(0.3, 1.0), INERTIA_FAILS),
    (NoiseSchedule.polynomial(1.0, 0.4), InertiaSchedule.polynomial(0.3, 1.0),
     f"{NOISE_FAILS}; {INERTIA_FAILS}"),
], ids=["noise", "inertia", "both"])
def test_run_rejects_nonsummable_schedules(noise, inertia, failed):
    prob = scalar_instance()
    bad = StochasticOracle(prob.oracle.base, noise, rng_seed=0)
    prob = dataclasses.replace(prob, oracle=bad)
    cfg = SolverConfig(beta=prob.beta, max_iter=10, inertia=inertia)
    with pytest.raises(ConfigurationError) as e:
        run(prob, cfg)
    assert str(e.value) == f"schedule validation failed: {failed}"


def test_config_validates_ranges():
    with pytest.raises(ConfigurationError, match="gamma"):
        SolverConfig(beta=1.0, gamma=2.5)
    with pytest.raises(ConfigurationError, match="lambda"):
        SolverConfig(beta=1.0, relaxation=1.2)
    with pytest.raises(ConfigurationError, match="alpha0"):
        SolverConfig(beta=1.0, epsilon=0.2,
                     inertia=InertiaSchedule.geometric(0.9, 0.5))
    with pytest.raises(ConfigurationError, match="epsilon"):
        SolverConfig(beta=0.5, epsilon=0.7)


def test_config_refuses_a_step_or_relaxation_that_is_not_a_number():
    # gamma and lambda are numbers fixed for the run; anything else is refused
    # at construction, naming the field
    for name, value in (("gamma", lambda n: 1.0), ("gamma", "0.5"), ("gamma", True),
                        ("gamma", [0.5]), ("relaxation", "1")):
        with pytest.raises(ConfigurationError, match=f"^{name} must be a number"):
            SolverConfig(beta=1.0, **{name: value})


@pytest.mark.parametrize("name,value,kind", [
    ("max_iter", 2.5, "an integer"), ("max_iter", "5", "an integer"),
    ("max_iter", True, "an integer"), ("record_every", 2.5, "an integer"),
    ("record_every", None, "an integer"), ("stop_tol", "1e-8", "a number"),
    ("stop_tol", None, "a number"), ("epsilon", "0.001", "a number"),
    ("epsilon", False, "a number"), ("beta", "1.0", "a number"),
])
def test_config_refuses_counts_and_tolerances_of_the_wrong_type(name, value, kind):
    # refused at construction, before any comparison could raise a TypeError
    # or a float count could reach the loop
    with pytest.raises(ConfigurationError, match=f"^{name} must be {kind}, got "):
        SolverConfig(**{"beta": 1.0, name: value})


def test_config_takes_numpy_numbers():
    cfg = SolverConfig(beta=np.float64(0.5), epsilon=np.float32(1e-3), max_iter=np.int64(5),
                       stop_tol=np.float64(0.0), record_every=np.int32(2))
    assert run(scalar_instance(), cfg)[1].iterations == 5


# --- traces -----------------------------------------------------------------------------


def csv_text(trace):
    f = io.StringIO()
    trace.to_csv(f)
    return f.getvalue()


def test_trace_csv_format_and_determinism():
    demo = build_lasso(10, 8, 0.1, cond=10.0, seed=23)
    inst = sifb_instance(demo, noise=NoiseSchedule.polynomial(0.3, 0.75), seed=99)
    cfg = SolverConfig(beta=inst.beta, max_iter=500, stop_tol=1e-5, record_every=10)
    _, t1 = run(inst, cfg)
    _, t2 = run(inst, cfg)
    c1, c2 = csv_text(t1), csv_text(t2)
    assert c1 == c2  # same seed, same bytes
    lines = c1.strip().split("\n")
    assert lines[0] == "#schema=6"
    assert lines[1] == "n,fp_residual,step_norm,dist_to_ref,sigma_n,alpha_n"
    first = lines[2].split(",")
    assert first[0] == "0"
    assert first[3] == ""  # no reference supplied
    ns = [int(line.split(",")[0]) for line in lines[2:]]
    assert ns == sorted(ns) and len(set(ns)) == len(ns)


def test_trace_rows_strictly_increasing_guard():
    from sifb.solver import RunTrace, TraceRow

    t = RunTrace()
    t.append(TraceRow(0, 1.0, 0.0, float("nan"), 0.0, 0.0))
    with pytest.raises(ValueError):
        t.append(TraceRow(0, 0.5, 0.0, float("nan"), 0.0, 0.0))


@pytest.mark.parametrize("dims", [(5,), (2, 3), (1, 3, 2)])
def test_plan_norms_are_the_block_vectors_bit_for_bit(dims):
    # the run's norms and a vector's are one block-ordered sum: the same bits
    # on signed zeros, squares below the float64 range, overflow and NaN
    metric = Preconditioner.identity(dims)
    prob = ProblemInstance.forward_backward(
        MonotoneBlock.zero(len(dims)), StochasticOracle(CocoerciveMap.zero_map(dims)), metric,
        BlockVector.zeros(dims))
    plan = Plan(prob, prob.default_gamma, 1.0)
    rng = np.random.default_rng(len(dims))
    entries = [-0.0, 1e-300, 1e300, np.nan]
    flats = ([np.full(sum(dims), e) for e in entries]
             + [rng.choice(entries + [1.0, -2.5], sum(dims)) for _ in range(12)])

    def bits(v):
        return struct.pack("<d", v)

    with np.errstate(over="ignore", invalid="ignore"):
        for a in flats:
            x = BlockVector.from_flat(a, dims)
            assert bits(plan.norm(x.flat)) == bits(x.norm())
            for b in flats:
                y = BlockVector.from_flat(b, dims)
                assert bits(plan.distance(x.flat, y.flat)) == bits((x - y).norm())
