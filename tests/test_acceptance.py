"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import dataclasses
import functools
import json
import time

import numpy as np
import pytest

from sifb import (
    BlockLinearOperator,
    BlockVector,
    CocoerciveMap,
    InertiaSchedule,
    MonotoneBlock,
    NoiseSchedule,
    Preconditioner,
    ProblemInstance,
    ProxFunction,
    SolverConfig,
    StochasticOracle,
    assemble_class1,
    assemble_class2,
    beta_for_balance,
    block_concat,
    check_cocoercivity,
    duality_residuals,
    estimate_weighted_norm,
    extract_primal_dual,
    moreau_check,
    optimal_balance,
    run,
    step,
)
from sifb.cli import main as cli_main
from sifb.problems import (
    build_coupled_system,
    build_lasso,
    build_parallel_sum_instance,
    objective,
    pd_problem,
    reference_oracle,
    sifb_instance,
)

from audits import WeightedMetric, inverse, scalar_feasibility_constant
from test_cli import load_json, read_file
from test_primal_dual import (
    ReplayOracle,
    random_structured_problem,
    transcribe_class1,
    transcribe_class2,
)
from test_solver import plain_forward_backward_lasso, plain_projected_gradient


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {num}: {desc}")
                raise
            print(f"\n[PASS] criterion {num}: {desc}")
        return wrapper
    return deco


CATALOGUE = [
    ProxFunction.zero(),
    ProxFunction.l1(0.7),
    ProxFunction.squared_l2(1.3, center=0.4),
    ProxFunction.box(-1.0, 1.0),
    ProxFunction.linf_ball(0.9),
    ProxFunction.affine(np.array([0.3])),
]


@criterion(1, "operator identities (Moreau <= 1e-12, firm nonexpansiveness "
              ">= -1e-10 over 100 pairs/family, < 5 s)")
def test_criterion_1_operator_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    for f in CATALOGUE:
        if f.has_conjugate_rule:
            for _ in range(100):
                assert moreau_check(f, rng.uniform(-5, 5, 6)) <= 1e-12
    dims = (6,)
    for f in CATALOGUE:
        a = MonotoneBlock.subdiff([f])
        u = Preconditioner.diagonal([rng.uniform(0.4, 2.0, 6)])
        inv_metric = WeightedMetric(inverse(u))
        gamma = float(rng.uniform(0.3, 2.0))
        for _ in range(100):
            x = BlockVector([rng.uniform(-4, 4, 6)])
            y = BlockVector([rng.uniform(-4, 4, 6)])
            d = a.resolvent(gamma, u, x) - a.resolvent(gamma, u, y)
            slack = inv_metric.inner(x - y, d) - inv_metric.norm_sq(d)
            assert slack >= -1e-10
    assert time.perf_counter() - t0 < 5.0


@criterion(2, "cocoercivity audits pass at the advertised constants and "
              "reject a 5% inflation")
def test_criterion_2_cocoercivity_audit():
    lasso = build_lasso(20, 30, 0.1, cond=100.0, seed=42)
    coupled = build_coupled_system(3, 5, seed=21)
    psum = build_parallel_sum_instance(12, mu=0.5, lam=0.3, seed=6)
    audited = []
    audited.append(sifb_instance(lasso).oracle.base)   # data-term gradient
    audited.append(sifb_instance(coupled).oracle.base)  # coupled quadratic
    psum_pd = pd_problem(psum)
    audited.append(psum_pd.smooth)                      # nu0 w.r.t. V
    audited.append(psum_pd.dual_smooth)                 # mu0 w.r.t. W
    for b_map in audited:
        ok = check_cocoercivity(b_map, trials=100, seed=5)
        assert ok.passed, (b_map.kind, ok.min_slack)
        bad = check_cocoercivity(b_map, trials=100, seed=5,
                                 beta=1.05 * b_map.beta)
        assert not bad.passed, (b_map.kind, bad.min_slack)


@criterion(3, "constants: grid dominance, exact symmetric balance, scalar "
              "formula to 1e-12")
def test_criterion_3_constants():
    rng = np.random.default_rng(3003)
    grid = np.logspace(-3, 3, 50)
    for _ in range(20):
        nu = float(rng.uniform(0.05, 20.0))
        mu = float(rng.uniform(0.05, 20.0))
        c = float(rng.uniform(0.01, 0.99))
        best = beta_for_balance(nu, mu, c, optimal_balance(nu, mu, c))
        assert all(best >= beta_for_balance(nu, mu, c, float(xi)) - 1e-12 * best
                   for xi in grid)
    for _ in range(20):
        nu = float(rng.uniform(0.05, 20.0))
        c = float(rng.uniform(0.01, 0.99))
        assert optimal_balance(nu, nu, c) == 1.0
        assert beta_for_balance(nu, nu, c, 1.0) == pytest.approx(
            nu * (1.0 - c), rel=1e-12)
    # all-scalar metric case against the closed formula
    l_mat = rng.standard_normal((4, 6))
    l_norm = float(np.linalg.norm(l_mat, 2))
    nu, mu, tau, sigma = 1.4, 2.2, 0.25, 0.2 / l_norm**2
    want = min(nu / tau, (mu / sigma) * (1.0 - tau * sigma * l_norm**2))
    assert scalar_feasibility_constant(nu, mu, tau, sigma, l_norm) == pytest.approx(
        want, rel=1e-12)


@criterion(4, "assembly fidelity: 200 random steps per class match the "
              "straight-line transcriptions to 1e-12")
def test_criterion_4_assembly_fidelity():
    for which, transcribe, assemble, seed in (
        ("class1", transcribe_class1, assemble_class1, 71),
        ("class2", transcribe_class2, assemble_class2, 72),
    ):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            prob, data, pdims, ddims = random_structured_problem(
                rng, zero_primal=(which == "class2"))
            alpha = float(rng.uniform(0.0, 0.9))
            relax = float(rng.uniform(0.1, 1.0))
            x = [rng.standard_normal(d) for d in pdims]
            xp = [rng.standard_normal(d) for d in pdims]
            v = [rng.standard_normal(d) for d in ddims]
            vp = [rng.standard_normal(d) for d in ddims]
            a = [rng.standard_normal(d) for d in pdims]
            b = [rng.standard_normal(d) for d in ddims]
            replay = ReplayOracle(prob.smooth_pair_map(beta=float("inf")),
                                  block_concat(BlockVector(a), BlockVector(b)))
            inst = dataclasses.replace(assemble(prob), oracle=replay)
            inertia = (InertiaSchedule.polynomial(alpha, 2.0) if alpha > 0
                       else InertiaSchedule.zero())
            cfg = SolverConfig(beta=inst.beta, relaxation=relax,
                               inertia=inertia, max_iter=1)
            state = (block_concat(BlockVector(x), BlockVector(v)),
                     block_concat(BlockVector(xp), BlockVector(vp)))
            new_state, _ = step(inst, cfg, state, 0, cfg.step_size(inst), cfg.relaxation)
            got_p, got_d = extract_primal_dual(new_state, prob)
            want_x, want_v = transcribe(data, x, xp, v, vp, a, b, alpha, relax)
            for got, want in zip(got_p.blocks + got_d.blocks, want_x + want_v):
                assert np.max(np.abs(got - want)) <= 1e-12


def _solve(inst, tol):
    cfg = SolverConfig(beta=inst.beta, max_iter=200000, stop_tol=tol)
    t0 = time.perf_counter()
    x, trace = run(inst, cfg)
    elapsed = time.perf_counter() - t0
    assert trace.status == "converged", trace.summary()
    assert elapsed < 10.0
    return x


@criterion(5, "deterministic solves reach the oracle solutions "
              "(1e-6 iterates, 1e-9 objective, < 10 s each)")
def test_criterion_5_deterministic_solves():
    # lasso: plain route plus both assembled classes
    lasso = build_lasso(20, 30, 0.1, cond=100.0, seed=42)
    ref = reference_oracle(lasso, tol=1e-10)
    obj_ref = objective(lasso, ref)
    x = _solve(sifb_instance(lasso), 1e-9)
    assert (x - ref).norm() <= 1e-6
    assert objective(lasso, x) <= obj_ref + 1e-9
    cp = pd_problem(lasso, "cp")
    p, _ = extract_primal_dual(_solve(assemble_class1(cp), 1e-9), cp)
    assert (p - ref).norm() <= 1e-6
    assert objective(lasso, p) <= obj_ref + 1e-9
    split = pd_problem(lasso, "split")
    p2, _ = extract_primal_dual(_solve(assemble_class2(split), 1e-9), split)
    assert (p2 - ref).norm() <= 1e-6
    assert objective(lasso, p2) <= obj_ref + 1e-9

    # coupled box-constrained system: plain route plus class I
    coupled = build_coupled_system(3, 5, seed=21)
    refc = reference_oracle(coupled, tol=1e-12)
    objc = objective(coupled, refc)
    xc = _solve(sifb_instance(coupled), 1e-9)
    assert (xc - refc).norm() <= 1e-6
    assert objective(coupled, xc) <= objc + 1e-9
    cprob = pd_problem(coupled)
    pc, _ = extract_primal_dual(_solve(assemble_class1(cprob), 1e-9), cprob)
    assert (pc - refc).norm() <= 1e-6

    # parallel-sum instance: plain route plus both classes
    psum = build_parallel_sum_instance(12, mu=0.5, lam=0.3, seed=6)
    refp = reference_oracle(psum, tol=1e-12)
    objp = objective(psum, refp)
    xp = _solve(sifb_instance(psum), 1e-9)
    assert (xp - refp).norm() <= 1e-6
    pprob = pd_problem(psum)
    for assemble in (assemble_class1, assemble_class2):
        pp, _ = extract_primal_dual(_solve(assemble(pprob), 1e-9), pprob)
        assert (pp - refp).norm() <= 1e-6
        assert objective(psum, pp) <= objp + 1e-9


@criterion(6, "20-seed stochastic sweep converges within 5e4 iterations; the "
              "non-summable control is rejected with exit code 1")
def test_criterion_6_stochastic_sweep(tmp_path):
    cfg = {
        "problem": {"demo": {"name": "lasso",
                             "params": {"n": 20, "p": 30, "lam": 0.1,
                                        "cond": 100.0, "seed": 42}}},
        "algorithm": "sifb",
        "solver": {"max_iter": 50000, "stop_tol": 1e-4, "record_every": 25},
        "noise": {"mode": "poly", "sigma0": 0.25, "theta": 0.75},
        "inertia": {"mode": "poly", "alpha0": 0.5, "q": 1.5},
        "seeds": {"count": 20, "master_seed": 2024},
        "reference": False,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    assert cli_main(["sweep", str(path), "--out", out]) == 0
    rows = read_file(out, "sweep_summary.csv").strip().split("\n")[1:]
    assert len(rows) == 20
    for row in rows:
        _, _, status, iters, res = row.split(",")
        assert status == "converged"
        assert int(iters) <= 50000
        assert float(res) <= 1e-4
    agg = load_json(out, "sweep_summary.json")
    assert agg["fraction_converged"] == 1.0

    control = dict(cfg, noise={"mode": "poly", "sigma0": 0.25, "theta": 0.4})
    cpath = tmp_path / "control.json"
    cpath.write_text(json.dumps(control))
    assert cli_main(["validate", str(cpath)]) == 1


@criterion(7, "zero-inertia runs are bit-identical to an independent "
              "classical loop; geometric inertia reaches the same solution")
def test_criterion_7_inertial_reduction():
    rng = np.random.default_rng(77)
    # five instances: three data-fit problems, two box-constrained quadratics
    for seed in (1, 2, 3):
        demo = build_lasso(12, 9, 0.2, cond=30.0, seed=seed)
        a, b = demo.data["a"], demo.data["b"]
        bm = CocoerciveMap.least_squares_gradient(a, b)
        op = MonotoneBlock.subdiff([ProxFunction.l1(0.2)])
        oracle = StochasticOracle(bm, NoiseSchedule.zero())
        prob_inst = ProblemInstance.forward_backward(
            op, oracle, Preconditioner.identity((9,)), BlockVector.zeros((9,)))
        cfg = SolverConfig(beta=bm.beta, gamma=bm.beta, max_iter=300,
                           stop_tol=0.0, record_every=300)
        x, _ = run(prob_inst, cfg)
        want = plain_forward_backward_lasso(a, b, 0.2, bm.beta, 1.0,
                                            np.zeros(9), 300)
        assert np.array_equal(x.blocks[0], want)
    for seed in (4, 5):
        g = rng.standard_normal((6, 6))
        q = g.T @ g
        q /= np.linalg.eigvalsh(q)[-1]
        c = rng.standard_normal(6)
        bm = CocoerciveMap.linear(q, c, dims=(6,), metric=Preconditioner.identity((6,)))
        op = MonotoneBlock.subdiff([ProxFunction.box(-1.0, 1.0)])
        oracle = StochasticOracle(bm, NoiseSchedule.zero())
        prob_inst = ProblemInstance.forward_backward(
            op, oracle, Preconditioner.identity((6,)), BlockVector.zeros((6,)))
        cfg = SolverConfig(beta=bm.beta, gamma=bm.beta, max_iter=300,
                           stop_tol=0.0, record_every=300)
        x, _ = run(prob_inst, cfg)
        want = plain_projected_gradient(q, c, -1.0, 1.0, bm.beta,
                                        np.zeros(6), 300)
        assert np.array_equal(x.blocks[0], want)

    demo = build_lasso(20, 30, 0.1, cond=100.0, seed=42)
    inst = sifb_instance(demo)
    x0, t0 = run(inst, SolverConfig(beta=inst.beta, max_iter=100000,
                                    stop_tol=1e-9))
    x1, t1 = run(inst, SolverConfig(beta=inst.beta, max_iter=100000,
                                    stop_tol=1e-9,
                                    inertia=InertiaSchedule.geometric(0.3, 0.9)))
    assert t0.status == t1.status == "converged"
    assert (x0 - x1).norm() <= 1e-6


@criterion(8, "weighted coupling norms match dense eigensolves on 25 "
              "small instances to 1e-8 relative")
def test_criterion_8_norm_estimation():
    rng = np.random.default_rng(88)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        pdims = [int(rng.integers(1, 9)) for _ in range(m)]
        ddims = [int(rng.integers(1, 9)) for _ in range(s)]
        entries = [[rng.standard_normal((ddims[k], pdims[i]))
                    if rng.random() > 0.2 else None for i in range(m)]
                   for k in range(s)]
        op = BlockLinearOperator(entries, pdims, ddims)
        vd = [rng.uniform(0.3, 2.5, d) for d in pdims]
        wd = [rng.uniform(0.3, 2.5, d) for d in ddims]
        got = estimate_weighted_norm(op, Preconditioner.diagonal(vd),
                                     Preconditioner.diagonal(wd))
        rows = []
        for k in range(s):
            cells = [np.sqrt(wd[k])[:, None]
                     * (entries[k][i] if entries[k][i] is not None
                        else np.zeros((ddims[k], pdims[i])))
                     * np.sqrt(vd[i])[None, :] for i in range(m)]
            rows.append(np.hstack(cells))
        dense = np.vstack(rows)
        want = float(np.sqrt(np.linalg.eigvalsh(dense.T @ dense)[-1]))
        assert got == pytest.approx(want, rel=1e-8)


@criterion(9, "converged class-I lasso dual is sup-norm feasible to 1e-8 and "
              "the optimality residuals are below 1e-6")
def test_criterion_9_duality_check():
    demo = build_lasso(20, 30, 0.1, cond=100.0, seed=42)
    prob = pd_problem(demo, "split")
    inst = assemble_class1(prob)
    xy, trace = run(inst, SolverConfig(beta=inst.beta, max_iter=200000,
                                       stop_tol=1e-9))
    assert trace.status == "converged"
    primal, dual = extract_primal_dual(xy, prob)
    lam = demo.params["lam"]
    assert np.abs(dual.blocks[1]).max() <= lam + 1e-8
    rep = duality_residuals(primal, dual, prob)
    assert not rep.unchecked
    assert rep.max_residual <= 1e-6
