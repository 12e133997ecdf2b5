import numpy as np
import pytest

from sifb import (
    CocoerciveMap,
    ConfigurationError,
    OracleError,
    Preconditioner,
    SolverConfig,
    assemble_class1,
    assemble_class2,
    check_cocoercivity,
    compute_constants,
    extract_primal_dual,
    oracles,
    run,
)
from sifb.oracles import ista_lasso, least_squares
from sifb.problems import (
    build_coupled_system,
    build_demo,
    build_lasso,
    build_parallel_sum_instance,
    certified_reference,
    objective,
    pd_problem,
    reference_oracle,
    sifb_instance,
)
from sifb.spaces import one_blas_thread

from audits import loose_stop_prox_gradient


def solve(inst, tol=1e-10, max_iter=100000):
    cfg = SolverConfig(beta=inst.beta, max_iter=max_iter, stop_tol=tol)
    x, trace = run(inst, cfg)
    assert trace.status == "converged", trace.summary()
    return x


# --- lasso -------------------------------------------------------------------


def test_scalar_lasso_shrinkage():
    demo = build_lasso(1, 1, 0.5, seed=0)
    demo.data["a"] = np.array([[1.0]])
    demo.data["b"] = np.array([2.0])
    ref = reference_oracle(demo, tol=1e-12)
    assert ref.blocks[0][0] == pytest.approx(1.5, abs=1e-10)


def test_scalar_lasso_dead_zone():
    demo = build_lasso(1, 1, 1.0, seed=0)
    demo.data["a"] = np.array([[1.0]])
    demo.data["b"] = np.array([0.3])
    ref = reference_oracle(demo, tol=1e-12)
    assert ref.blocks[0][0] == pytest.approx(0.0, abs=1e-12)


def test_demo_given_a_new_data_matrix_solves_its_own_spectrum():
    # the form fills the demo's lambda_max; a new A, as the tests above set,
    # gets its own, and the reference is the oracle's on the new data
    demo = build_lasso(12, 10, 0.2, cond=20.0, seed=3)
    pd_problem(demo, "split")
    demo.data["a"] = 2.0 * demo.data["a"]
    want, _ = ista_lasso(demo.data["a"], demo.data["b"], 0.2, tol=1e-10)
    assert reference_oracle(demo).concatenated().tobytes() == want.tobytes()


def test_a_cached_spectrum_makes_no_blas_thread_call(monkeypatch):
    # the first read solves at one BLAS thread; a cached read sets nothing
    demo = build_lasso(12, 10, 0.2, cond=20.0, seed=3)
    calls = []
    monkeypatch.setattr(one_blas_thread, "calls",
                        (lambda: calls.append("get") or 2, calls.append))
    top = demo.gram_top()
    assert calls == ["get", 1, 2]
    assert demo.gram_top() == top
    assert calls == ["get", 1, 2]


@pytest.mark.parametrize("shape", [(30, 20), (20, 30)], ids=["tall", "wide"])
def test_lasso_forward_backward_map_reads_the_demos_spectrum(count_eigvalsh, shape):
    # the sifb route's beta is, bit for bit, that of a map that solves its own
    # spectrum, and reads the eigensolve the demo's forms and reference share
    demo = build_lasso(*shape, 0.1, cond=100.0, seed=5)
    own = CocoerciveMap.least_squares_gradient(demo.data["a"], demo.data["b"])
    pd_problem(demo, "split")
    del count_eigvalsh[:]
    inst = sifb_instance(demo)
    assert count_eigvalsh == []
    assert (inst.beta, inst.oracle.base.beta_exact) == (own.beta, own.beta_exact)


def test_lasso_forward_backward_map_of_a_new_data_matrix_reads_its_spectrum():
    demo = build_lasso(12, 10, 0.2, cond=20.0, seed=3)
    first = sifb_instance(demo).beta
    demo.data["a"] = 2.0 * demo.data["a"]
    want = CocoerciveMap.least_squares_gradient(demo.data["a"], demo.data["b"]).beta
    assert sifb_instance(demo).beta == want
    assert want == pytest.approx(first / 4.0, rel=1e-12)


@pytest.mark.parametrize("metric", [
    Preconditioner.scalar([0.5], (10,)),
    Preconditioner.diagonal([np.linspace(0.5, 2.0, 10)]),
], ids=["scalar", "diagonal"])
def test_lasso_split_in_a_weighted_metric_solves_its_own_spectrum(count_eigvalsh, metric):
    demo = build_lasso(12, 10, 0.2, cond=20.0, seed=3)
    a = demo.data["a"]
    demo.gram_top()
    del count_eigvalsh[:]
    grad = demo.split(metric)[1]
    assert count_eigvalsh == [(10, 10)]
    g = a * np.sqrt(metric.diag_blocks()[0])
    assert grad.beta_exact == pytest.approx(1.0 / np.linalg.eigvalsh(g.T @ g)[-1], rel=1e-12)
    assert grad.beta_exact != pytest.approx(1.0 / demo.gram_top(), rel=1e-3)


def test_lasso_data_reproducible_and_conditioned():
    d1 = build_lasso(20, 30, 0.1, cond=100.0, seed=5)
    d2 = build_lasso(20, 30, 0.1, cond=100.0, seed=5)
    assert np.array_equal(d1.data["a"], d2.data["a"])
    assert np.array_equal(d1.data["b"], d2.data["b"])
    svals = np.linalg.svd(d1.data["a"], compute_uv=False)
    assert (svals[0] / svals[-1]) ** 2 == pytest.approx(100.0, rel=1e-8)


def test_lasso_all_forms_agree_with_oracle():
    demo = build_lasso(20, 30, 0.1, cond=100.0, seed=7)
    ref = reference_oracle(demo, tol=1e-10)
    obj_ref = objective(demo, ref)

    x_sifb = solve(sifb_instance(demo))
    assert (x_sifb - ref).norm() <= 1e-6
    assert objective(demo, x_sifb) <= obj_ref + 1e-9

    solutions = [x_sifb]
    for form in ("smooth", "cp", "split"):
        prob = pd_problem(demo, form)
        xy = solve(assemble_class1(prob))
        p, _ = extract_primal_dual(xy, prob)
        assert (p - ref).norm() <= 1e-6, form
        assert objective(demo, p) <= obj_ref + 1e-9
        solutions.append(p)
    split = pd_problem(demo, "split")
    xy2 = solve(assemble_class2(split))
    p2, _ = extract_primal_dual(xy2, split)
    assert (p2 - ref).norm() <= 1e-6
    solutions.append(p2)
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            assert (solutions[i] - solutions[j]).norm() <= 1e-6


def test_lasso_split_dual_block_is_ball_feasible():
    demo = build_lasso(12, 16, 0.3, cond=30.0, seed=9)
    prob = pd_problem(demo, "split")
    xy = solve(assemble_class1(prob))
    _, dual = extract_primal_dual(xy, prob)
    # second dual block carries the l1 dual variable
    assert np.abs(dual.blocks[1]).max() <= 0.3 + 1e-8


# --- coupled box-constrained quadratic ------------------------------------------


def test_coupled_interior_solution():
    demo = build_coupled_system(2, 3, seed=1)
    demo.data["q"] = np.eye(6)
    demo.data["c"] = np.zeros(6)
    ref = reference_oracle(demo, tol=1e-12)
    assert ref.norm() == pytest.approx(0.0, abs=1e-10)


def test_coupled_clamped_solution():
    demo = build_coupled_system(2, 3, seed=1)
    demo.data["q"] = np.eye(6)
    demo.data["c"] = 3.0 * np.ones(6)
    ref = reference_oracle(demo, tol=1e-12)
    assert np.allclose(ref.concatenated(), 1.0, atol=1e-10)


def test_coupled_sifb_and_class1_match_oracle():
    demo = build_coupled_system(3, 5, seed=21)
    ref = reference_oracle(demo, tol=1e-12)
    x = solve(sifb_instance(demo))
    assert (x - ref).norm() <= 1e-8
    prob = pd_problem(demo)
    xy = solve(assemble_class1(prob))
    p, _ = extract_primal_dual(xy, prob)
    assert (p - ref).norm() <= 1e-8


# --- parallel-sum (smoothed composite) instance ------------------------------------


def test_parallel_sum_small_mu_approaches_lasso():
    demo = build_parallel_sum_instance(10, mu=1e-6, lam=0.4, seed=3)
    x_mu = reference_oracle(demo, tol=1e-12)
    x_l1, _ = ista_lasso(demo.data["a"], demo.data["b"], 0.4, tol=1e-12)
    assert np.linalg.norm(x_mu.blocks[0] - x_l1) <= 1e-3


def test_lasso_lam_zero_reference_is_least_squares():
    demo = build_lasso(9, 6, 0.0, cond=5.0, seed=2)
    ref = reference_oracle(demo)
    want, _ = least_squares(demo.data["a"], demo.data["b"])
    assert ref.blocks[0].tobytes() == want.tobytes()


def test_parallel_sum_lam_zero_is_least_squares():
    demo = build_parallel_sum_instance(8, mu=0.5, lam=0.0, seed=4)
    ref = reference_oracle(demo)
    want, _ = least_squares(demo.data["a"], demo.data["b"])
    assert np.linalg.norm(ref.blocks[0] - want) <= 1e-8


def test_parallel_sum_all_routes_match_oracle():
    demo = build_parallel_sum_instance(12, mu=0.5, lam=0.3, seed=6)
    ref = reference_oracle(demo, tol=1e-12)
    obj_ref = objective(demo, ref)
    prob = pd_problem(demo)
    for assemble in (assemble_class1, assemble_class2):
        xy = solve(assemble(prob))
        p, _ = extract_primal_dual(xy, prob)
        assert (p - ref).norm() <= 1e-6
        assert objective(demo, p) <= obj_ref + 1e-8
    x = solve(sifb_instance(demo))
    assert (x - ref).norm() <= 1e-6


# --- advertised constants pass their audits ------------------------------------------


def test_demo_constants_pass_cocoercivity_audit():
    lasso = build_lasso(10, 14, 0.2, seed=11)
    coupled = build_coupled_system(3, 4, seed=12)
    psum = build_parallel_sum_instance(9, mu=0.4, lam=0.2, seed=13)
    for demo in (lasso, coupled, psum):
        inst = sifb_instance(demo)
        rep = check_cocoercivity(inst.oracle.base, trials=100, seed=1)
        assert rep.passed, demo.name
    # structured problems certify nu0 / mu0 blockwise
    prob = pd_problem(psum)
    assert check_cocoercivity(prob.smooth, metric=prob.V, trials=100, seed=2).passed
    assert check_cocoercivity(prob.dual_smooth, metric=prob.W, trials=100,
                              seed=3).passed
    rep = compute_constants(prob)
    assert rep.feasible_class1 and rep.feasible_class2
    smooth_form = pd_problem(lasso, "smooth")
    assert check_cocoercivity(smooth_form.smooth, metric=smooth_form.V,
                              trials=100, seed=4).passed
    assert compute_constants(smooth_form).feasible_class1


def test_instances_and_runs_need_no_eigenvectors(monkeypatch):
    # beta comes from eigenvalues alone; only an audit reads the probe
    # direction, which needs eigh
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for demo in (build_lasso(12, 8, 0.2, seed=15), build_lasso(8, 12, 0.2, seed=16),
                 build_coupled_system(2, 3, seed=17)):
        solve(sifb_instance(demo), tol=1e-8)
    psum = build_parallel_sum_instance(6, mu=0.5, lam=0.1, seed=18)
    solve(assemble_class1(pd_problem(psum)), tol=1e-8)


def test_oracle_objective_dominates_solver_outputs():
    demo = build_lasso(20, 30, 0.1, cond=100.0, seed=14)
    ref = reference_oracle(demo, tol=1e-10)
    x = solve(sifb_instance(demo), tol=1e-8)
    assert objective(demo, ref) <= objective(demo, x) + 1e-9


# --- certified references ------------------------------------------------------------


def _with_data(demo, **data):
    demo.data.update(data)
    return demo


# the demos whose references the tests, tools/trace_identity.py and the
# benchmark's pd-split-cli workload read
CERTIFIED_DEMOS = {
    "lasso-scalar-shrinkage": lambda: _with_data(build_lasso(1, 1, 0.5, seed=0),
                                                 a=np.array([[1.0]]), b=np.array([2.0])),
    "lasso-scalar-dead-zone": lambda: _with_data(build_lasso(1, 1, 1.0, seed=0),
                                                 a=np.array([[1.0]]), b=np.array([0.3])),
    "lasso-wide-20x30-seed-42": lambda: build_lasso(20, 30, 0.1, cond=100.0, seed=42),
    "lasso-wide-20x30-seed-7": lambda: build_lasso(20, 30, 0.1, cond=100.0, seed=7),
    "lasso-wide-20x30-seed-14": lambda: build_lasso(20, 30, 0.1, cond=100.0, seed=14),
    "lasso-wide-20x30-tool": lambda: build_lasso(20, 30, 0.2, cond=20.0, seed=3),
    "lasso-wide-200x300-seed-42": lambda: build_lasso(200, 300, 0.1, cond=100.0, seed=42),
    "lasso-square-20x20": lambda: build_lasso(20, 20, 0.15, cond=100.0, seed=7),
    "lasso-tall-12x10-tool": lambda: build_lasso(12, 10, 0.2, cond=20.0, seed=3),
    "lasso-tall-80x70-tool": lambda: build_lasso(80, 70, 0.2, cond=20.0, seed=3),
    "lasso-tall-14x10": lambda: build_lasso(14, 10, 0.2, cond=50.0, seed=13),
    "lasso-tall-8x6": lambda: build_lasso(8, 6, 0.2, cond=20.0, seed=4),
    "lasso-lam-zero": lambda: build_lasso(9, 6, 0.0, cond=5.0, seed=2),
    "coupled_box_qp-2x3-tool": lambda: build_coupled_system(2, 3, seed=1),
    "coupled_box_qp-3x5": lambda: build_coupled_system(3, 5, seed=21),
    "coupled_box_qp-clamped": lambda: _with_data(build_coupled_system(2, 3, seed=1),
                                                 q=np.eye(6), c=3.0 * np.ones(6)),
    "parallel_sum-6-tool": lambda: build_parallel_sum_instance(6, mu=0.5, lam=0.1, seed=2),
    "parallel_sum-12": lambda: build_parallel_sum_instance(12, mu=0.5, lam=0.3, seed=6),
    "parallel_sum-small-mu": lambda: build_parallel_sum_instance(10, mu=1e-6, lam=0.4,
                                                                 seed=3),
    "parallel_sum-lam-zero": lambda: build_parallel_sum_instance(8, mu=0.5, lam=0.0, seed=4),
}


@pytest.mark.parametrize("name", list(CERTIFIED_DEMOS))
def test_demo_references_are_certified(name):
    demo = CERTIFIED_DEMOS[name]()
    ref, certificate = certified_reference(demo, tol=1e-10)
    assert certificate <= 1e-12
    plain = reference_oracle(demo, tol=1e-10)
    assert ref.concatenated().tobytes() == plain.concatenated().tobytes()


def _loose_stop_reference(monkeypatch, demo):
    """demo's certified reference from the loose-stop test oracle."""
    with monkeypatch.context() as m:
        m.setattr(oracles, "_prox_gradient", loose_stop_prox_gradient)
        return certified_reference(demo)


@pytest.mark.parametrize("name", list(CERTIFIED_DEMOS))
def test_accelerated_references_keep_the_loose_stop_oracles_bytes(monkeypatch, name):
    # the piece the accelerated loop polishes on once it repeats is the one the
    # plain loop polishes on at its loose stop, so the point and its
    # certificate keep their bits (the demos include lasso 20x30 and 200x300
    # at seed 42, the tests' and the pd-split-cli benchmark's)
    want, want_certificate = _loose_stop_reference(monkeypatch, CERTIFIED_DEMOS[name]())
    ref, certificate = certified_reference(CERTIFIED_DEMOS[name]())
    assert ref.concatenated().tobytes() == want.concatenated().tobytes()
    assert certificate == want_certificate


@pytest.mark.parametrize("make", [
    lambda: build_parallel_sum_instance(34, mu=0.5, lam=0.2, seed=4),
    lambda: build_lasso(200, 300, 0.1, cond=100.0, seed=13),
], ids=["parallel_sum-34-seed-4", "lasso-wide-200x300-seed-13"])
def test_a_piece_that_settles_after_the_loose_stop_is_polished(monkeypatch, make):
    # the plain loop's polish at its loose stop is refused here, and it returns
    # an iterate at a step of tol; the accelerated loop polishes on the settled
    # piece, a point no farther from optimal
    want, want_certificate = _loose_stop_reference(monkeypatch, make())
    ref, certificate = certified_reference(make())
    assert certificate <= 1e-12 < want_certificate <= 1e-10
    assert (ref - want).norm() <= 1e-8


def _lasso_certificate(a, b, lam, x):
    """||x - S(x - t A'(A x - b))||, S soft thresholding by t lam, t = 1 / ||A||^2."""
    t = 1.0 / np.linalg.eigvalsh(a.T @ a)[-1]
    z = x - t * (a.T @ (a @ x - b))
    return np.linalg.norm(x - np.sign(z) * np.maximum(np.abs(z) - t * lam, 0.0))


def test_lasso_certificate_is_the_fixed_point_residual(monkeypatch):
    demo = build_lasso(20, 30, 0.1, cond=100.0, seed=42)
    a, b = demo.data["a"], demo.data["b"]
    pieces = []
    polish = oracles._polish

    def recording_polish(h, v, t, d, e):
        pieces.append((d, e))
        return polish(h, v, t, d, e)

    monkeypatch.setattr(oracles, "_polish", recording_polish)
    x, certificate = ista_lasso(a, b, 0.1, tol=1e-10)
    assert certificate == pytest.approx(_lasso_certificate(a, b, 0.1, x), abs=1e-15)
    # the last polish is on the support and with the signs of the returned point
    d, e = pieces[-1]
    assert np.array_equal(np.sign(x), -np.sign(e))
    assert np.array_equal(x != 0, d == 1)


def test_wrong_polish_is_refused_and_the_loop_goes_on_to_tol(monkeypatch):
    demo = build_lasso(20, 30, 0.1, cond=100.0, seed=42)
    a, b = demo.data["a"], demo.data["b"]
    ref, _ = ista_lasso(a, b, 0.1, tol=1e-10)
    wrong_points = []
    polish = oracles._polish

    def wrong_polish_on_the_settled_piece(h, v, t, d, e):
        # the polish on ref's support drops the first entry of that support
        if np.array_equal(d == 1, ref != 0):
            k = np.flatnonzero(d)[0]
            d, e = d.copy(), e.copy()
            d[k] = e[k] = 0.0
            wrong_points.append(polish(h, v, t, d, e))
            return wrong_points[-1]
        return polish(h, v, t, d, e)

    monkeypatch.setattr(oracles, "_polish", wrong_polish_on_the_settled_piece)
    x, certificate = ista_lasso(a, b, 0.1, tol=1e-10)
    # refused, and not tried again: the loop goes on to a step of tol
    (wrong,) = wrong_points
    assert not np.array_equal(wrong != 0, ref != 0)
    assert _lasso_certificate(a, b, 0.1, wrong) > 1e-10
    assert 0 < certificate <= 1e-10
    assert certificate == pytest.approx(_lasso_certificate(a, b, 0.1, x), rel=1e-6)
    assert np.linalg.norm(x - ref) <= 1e-8

    monkeypatch.setattr(oracles, "_MAX_ITER", 50)
    with pytest.raises(OracleError, match="ista_lasso did not reach tol=1e-10 in 50"):
        ista_lasso(a, b, 0.1, tol=1e-10)


def test_build_demo_dispatch():
    demo = build_demo("lasso", {"n": 4, "p": 3, "lam": 0.1, "seed": 0})
    assert demo.name == "lasso"
    with pytest.raises(ConfigurationError, match="unknown demo"):
        build_demo("nope", {})
