import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sifb import (
    BlockVector,
    CocoerciveMap,
    ConfigurationError,
    DimensionMismatch,
    MonotoneBlock,
    Preconditioner,
    ProxFunction,
    check_cocoercivity,
    moreau_check,
    prox_conjugate,
    prox_weighted,
)
from sifb.operators import BETA_DEFLATION, conjugate_subdiff_distance, subdiff_distance
from sifb.spaces import BlockLinearOperator, estimate_weighted_norm

from audits import WeightedMetric, inverse

CATALOGUE = [
    ProxFunction.zero(),
    ProxFunction.l1(0.7),
    ProxFunction.squared_l2(1.3, center=0.4),
    ProxFunction.box(-1.0, 1.0),
    ProxFunction.linf_ball(0.9),
    ProxFunction.affine(np.array([0.3])),
]


def scalar_value(f, p):
    """Vectorized restatement of the catalogue definitions, for the oracle."""
    q = f.params
    if f.family == "zero":
        return np.zeros_like(p)
    if f.family == "l1":
        return q["lam"] * np.abs(p)
    if f.family == "sq_l2":
        return 0.5 * q["lam"] * (p - float(q["center"])) ** 2
    if f.family == "box":
        return np.where((p >= float(q["lo"])) & (p <= float(q["hi"])), 0.0, np.inf)
    if f.family == "linf_ball":
        return np.where(np.abs(p) <= q["radius"], 0.0, np.inf)
    if f.family == "affine":
        return float(q["c"]) * p
    raise AssertionError(f.family)


def grid_prox_1d(f, z, step, lo=-8.0, hi=8.0):
    """Independent 1-D oracle: two-stage grid search for
    argmin f(p) + (1/(2*step)) (z - p)^2."""

    def obj(p):
        return scalar_value(f, p) + (z - p) ** 2 / (2.0 * step)

    coarse = np.linspace(lo, hi, 160001)  # 1e-4 resolution
    center = coarse[int(np.argmin(obj(coarse)))]
    fine = np.linspace(center - 2e-4, center + 2e-4, 40001)  # 1e-8 resolution
    return float(fine[np.argmin(obj(fine))])


# --- prox catalogue -----------------------------------------------------------


def test_soft_threshold_values():
    f = ProxFunction.l1(1.0)
    assert f.prox(np.array([3.0]), 1.0)[0] == pytest.approx(2.0)
    assert f.prox(np.array([0.5]), 1.0)[0] == 0.0
    assert f.prox(np.array([-3.0]), 2.0)[0] == pytest.approx(-1.0)


def test_box_projection_values():
    f = ProxFunction.box(-1.0, 1.0)
    got = f.prox(np.array([2.0, -0.5]))
    assert got.tolist() == [1.0, -0.5]


def test_sq_l2_prox_is_scaled_shrinkage():
    f = ProxFunction.squared_l2(1.0, 0.0)
    assert f.prox(np.array([4.0]), 1.0)[0] == pytest.approx(2.0)


def test_prox_weighted_identity_for_zero():
    x = BlockVector([[1.0, -2.0], [0.5]])
    got = prox_weighted(ProxFunction.zero(), Preconditioner.identity(x.dims), x)
    assert (got - x).norm() == 0.0


def test_prox_weighted_box_projection():
    x = BlockVector([[2.0, -0.5]])
    got = prox_weighted(ProxFunction.box(-1.0, 1.0), Preconditioner.identity((2,)), x)
    assert got.blocks[0].tolist() == [1.0, -0.5]


def test_prox_weighted_l1_effective_threshold():
    # metric weight 2 means threshold lam / w = 0.5
    x = BlockVector([[3.0]])
    metric = Preconditioner.diagonal([[2.0]])
    got = prox_weighted(ProxFunction.l1(1.0), metric, x)
    assert got.blocks[0][0] == pytest.approx(2.5, abs=1e-12)
    want = grid_prox_1d(ProxFunction.l1(1.0), 3.0, step=0.5)
    assert got.blocks[0][0] == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("f", [f for f in CATALOGUE if f.family != "affine"])
def test_prox_weighted_matches_grid_oracle(f):
    rng = np.random.default_rng(5)
    for _ in range(3):
        z = float(rng.uniform(-3, 3))
        w = float(rng.uniform(0.4, 2.5))
        got = prox_weighted(f, Preconditioner.diagonal([[w]]), BlockVector([[z]]))
        want = grid_prox_1d(f, z, step=1.0 / w)
        assert got.blocks[0][0] == pytest.approx(want, abs=1e-6)


# --- Moreau identities ----------------------------------------------------------


def test_moreau_l1_hand_cases():
    f = ProxFunction.l1(1.0)
    assert moreau_check(f, np.array([0.3])) == pytest.approx(0.0, abs=1e-15)
    assert moreau_check(f, np.array([3.0])) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("f", [f for f in CATALOGUE if f.has_conjugate_rule])
def test_moreau_identity_random(f):
    rng = np.random.default_rng(6)
    for _ in range(25):
        x = rng.uniform(-4, 4, size=1)
        assert moreau_check(f, x) <= 1e-12


def test_moreau_rejects_family_without_rule():
    with pytest.raises(ConfigurationError):
        moreau_check(ProxFunction.box(-1, 1), np.array([0.0]))


# --- conjugate proxes -------------------------------------------------------------


def test_prox_conjugate_l1_inside_ball():
    got = prox_conjugate(ProxFunction.l1(1.0), Preconditioner.identity((1,)),
                         BlockVector([[0.3]]))
    assert got.blocks[0][0] == pytest.approx(0.3)


def test_prox_conjugate_l1_clamps():
    got = prox_conjugate(ProxFunction.l1(1.0), Preconditioner.identity((1,)),
                         BlockVector([[5.0]]))
    assert got.blocks[0][0] == pytest.approx(1.0)


@pytest.mark.parametrize("g", [ProxFunction.squared_l2(1.0, 0.0),
                               ProxFunction.squared_l2(2.3, 0.7),
                               ProxFunction.l1(0.8)])
def test_prox_conjugate_two_paths_agree(g):
    # closed-form conjugate rule vs generalized Moreau decomposition
    rng = np.random.default_rng(7)
    dims = (6,)
    for _ in range(10):
        sigma = float(rng.uniform(0.3, 3.0))
        metric = Preconditioner.scalar([sigma], dims)
        x = BlockVector([rng.uniform(-4, 4, 6)])
        closed = prox_conjugate(g, metric, x)
        w = metric.diag_blocks()[0]
        decomp = BlockVector([x.blocks[0] - w * g.prox(x.blocks[0] / w, 1.0 / w)])
        assert (closed - decomp).norm() <= 1e-10


def test_prox_conjugate_decomposition_fallback_for_box():
    # the box indicator has no closed conjugate rule; its conjugate is the
    # support function, whose prox in the inverse metric is a soft threshold
    g = ProxFunction.box(-1.0, 1.0)
    rng = np.random.default_rng(71)
    for _ in range(10):
        w = float(rng.uniform(0.3, 3.0))
        x = rng.uniform(-4, 4, 5)
        got = prox_conjugate(g, Preconditioner.scalar([w], (5,)),
                             BlockVector([x]))
        want = np.sign(x) * np.maximum(np.abs(x) - w, 0.0)
        assert np.max(np.abs(got.blocks[0] - want)) <= 1e-12
    # same fallback drives the resolvent of the conjugate subdifferential
    a = MonotoneBlock.conjugate_subdiff([g])
    z = BlockVector([np.array([2.5, -0.2])])
    p = a.resolvent(1.0, Preconditioner.scalar([0.5], (2,)), z)
    assert np.allclose(p.blocks[0], [2.0, 0.0], atol=1e-12)


# --- resolvents ---------------------------------------------------------------------


def test_resolvent_zero_operator_is_identity():
    z = BlockVector([[3.0, -1.0]])
    got = MonotoneBlock.zero(1).resolvent(1.7,
                                          Preconditioner.diagonal([[0.5, 2.0]]), z)
    assert (got - z).norm() == 0.0


def test_resolvent_quadratic_subdiff():
    a = MonotoneBlock.subdiff([ProxFunction.squared_l2(1.0, 0.0)])
    got = a.resolvent(1.0, Preconditioner.identity((1,)), BlockVector([[4.0]]))
    assert got.blocks[0][0] == pytest.approx(2.0)


def test_resolvent_l1_soft_threshold():
    a = MonotoneBlock.subdiff([ProxFunction.l1(1.0)])
    got = a.resolvent(1.0, Preconditioner.identity((1,)), BlockVector([[3.0]]))
    assert got.blocks[0][0] == pytest.approx(2.0)


def test_resolvent_weighted_l1_vs_grid_oracle():
    # J_{gamma U A} solves min |p| + (1/(2 gamma)) ||z - p||^2 in the
    # inverse-U metric; 1-D grid search is the oracle
    f = ProxFunction.l1(1.0)
    a = MonotoneBlock.subdiff([f])
    gamma, u, z = 2.0, 0.5, 3.0
    got = a.resolvent(gamma, Preconditioner.diagonal([[u]]), BlockVector([[z]]))

    def obj(p):
        return np.abs(p) + (1.0 / u) * (z - p) ** 2 / (2.0 * gamma)

    coarse = np.linspace(-8, 8, 160001)
    c = coarse[np.argmin(obj(coarse))]
    fine = np.linspace(c - 2e-4, c + 2e-4, 40001)
    want = float(fine[np.argmin(obj(fine))])
    assert got.blocks[0][0] == pytest.approx(want, abs=1e-6)
    # optimality condition U^{-1}(z - p)/gamma in subdiff(|.|) at p
    p = got.blocks[0][0]
    residual = (z - p) / (u * gamma)
    assert subdiff_distance(f, np.array([p]), np.array([residual])) <= 1e-12


def test_resolvent_linear_block():
    m = np.array([[2.0]])
    a = MonotoneBlock.linear([m])
    got = a.resolvent(1.0, Preconditioner.identity((1,)), BlockVector([[3.0]]))
    assert got.blocks[0][0] == pytest.approx(1.0)  # (I + M)^{-1} z


def test_resolvent_characterization_subdiff_families():
    rng = np.random.default_rng(8)
    # the radius-0 ball is the indicator of {0}: every residual is admissible
    for f in [ProxFunction.l1(0.6), ProxFunction.squared_l2(2.0, 0.1),
              ProxFunction.box(-0.5, 1.5), ProxFunction.linf_ball(0.7),
              ProxFunction.linf_ball(0.0)]:
        a = MonotoneBlock.subdiff([f])
        for _ in range(20):
            gamma = float(rng.uniform(0.2, 3.0))
            u = rng.uniform(0.3, 2.0, 4)
            z = rng.uniform(-4, 4, 4)
            p = a.resolvent(gamma, Preconditioner.diagonal([u]),
                            BlockVector([z])).blocks[0]
            residual = (z - p) / (gamma * u)
            assert subdiff_distance(f, p, residual) <= 1e-10


def test_resolvent_firm_nonexpansiveness_in_inverse_metric():
    # slack quantified over 100 random pairs per catalogue family
    rng = np.random.default_rng(9)
    dims = (5,)
    for f in CATALOGUE:
        a = MonotoneBlock.subdiff([f])
        u = Preconditioner.diagonal([rng.uniform(0.4, 2.2, 5)])
        metric = WeightedMetric(inverse(u))
        gamma = float(rng.uniform(0.3, 2.0))
        for _ in range(100):
            x = BlockVector([rng.uniform(-3, 3, 5)])
            y = BlockVector([rng.uniform(-3, 3, 5)])
            jx = a.resolvent(gamma, u, x)
            jy = a.resolvent(gamma, u, y)
            d = jx - jy
            slack = metric.inner(x - y, d) - metric.norm_sq(d)
            assert slack >= -1e-10


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def catalogue_resolvent_cases(draw):
    """(f, gamma, u, x, y): a catalogue function on a block of dim 0 to 4, a
    step, the diagonal of a metric U, and two points. The draws include l1
    with lam = 0, a radius-0 ball, boxes with lo == hi and empty blocks."""
    d = draw(st.integers(0, 4))

    def vector(lo, hi):
        return draw(st.lists(_floats(lo, hi), min_size=d, max_size=d).map(np.array))

    family = draw(st.sampled_from(["zero", "l1", "sq_l2", "box", "linf_ball", "affine"]))
    if family == "l1":
        f = ProxFunction.l1(draw(st.just(0.0) | _floats(0.0, 2.0)))
    elif family == "sq_l2":
        f = ProxFunction.squared_l2(draw(_floats(0.1, 2.0)), vector(-3.0, 3.0))
    elif family == "box":
        lo = vector(-3.0, 3.0)
        width = vector(0.0, 3.0) * draw(st.sampled_from([0.0, 1.0]))  # 0: lo == hi
        f = ProxFunction.box(lo, lo + width)
    elif family == "linf_ball":
        f = ProxFunction.linf_ball(draw(st.just(0.0) | _floats(0.0, 2.0)))
    elif family == "affine":
        f = ProxFunction.affine(vector(-3.0, 3.0))
    else:
        f = ProxFunction.zero()
    return (f, draw(_floats(0.1, 2.0)), vector(0.1, 2.0), vector(-10.0, 10.0),
            vector(-10.0, 10.0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=catalogue_resolvent_cases())
def test_catalogue_resolvents_moreau_identity_and_firm_nonexpansiveness(case):
    # with D = gamma U diagonal: x = J_{D df}(x) + D J_{D^-1 df*}(D^-1 x), and
    # both resolvents are firmly nonexpansive in the metric of their own D^-1
    f, gamma, u, x, y = case
    metric, inverse_metric, d = (Preconditioner.diagonal([u]),
                                 Preconditioner.diagonal([1.0 / u]), gamma * u)
    prox, conj = MonotoneBlock.subdiff([f]), MonotoneBlock.conjugate_subdiff([f])
    p = prox.resolvent(gamma, metric, BlockVector([x])).blocks[0]
    q = conj.resolvent(1.0 / gamma, inverse_metric, BlockVector([x / d])).blocks[0]
    assert np.all(np.abs(p + d * q - x) <= 1e-9 * (1.0 + np.abs(x)))
    for rule, step, m, w in ((prox, gamma, metric, d),
                             (conj, 1.0 / gamma, inverse_metric, 1.0 / d)):
        jx, jy = (rule.resolvent(step, m, BlockVector([v])).blocks[0] for v in (x, y))
        dj, dx = jx - jy, x - y
        scale = 1.0 + float(np.sum(dx * dx / w))
        assert float(np.sum(dj * dx / w) - np.sum(dj * dj / w)) >= -1e-9 * scale


def test_resolvent_rejects_nonpositive_step():
    a = MonotoneBlock.zero(1)
    with pytest.raises(ConfigurationError):
        a.resolvent(0.0, Preconditioner.identity((1,)), BlockVector([[1.0]]))


# --- cocoercive maps -----------------------------------------------------------------


def test_identity_map_equality_case():
    ident = CocoerciveMap.scaled_identity((2,), 1.0, metric=Preconditioner.identity((2,)))
    rep = check_cocoercivity(ident, trials=50, seed=0)
    assert rep.passed
    assert rep.min_slack == pytest.approx(0.0, abs=1e-10)


def test_least_squares_beta_pass_and_fail_1d():
    # gradient of 0.5 (2x - b)^2: curvature 4, so 0.25 passes and 0.26 fails
    b_map = CocoerciveMap.least_squares_gradient(np.array([[2.0]]), np.array([0.0]))
    assert b_map.beta_exact == pytest.approx(0.25, rel=1e-10)
    assert check_cocoercivity(b_map, trials=20, seed=1, beta=0.25).passed
    assert not check_cocoercivity(b_map, trials=20, seed=1, beta=0.26).passed


def test_zero_map_any_beta_passes():
    z = CocoerciveMap.zero_map((3,))
    assert check_cocoercivity(z, trials=10, seed=2, beta=1e9).passed


def test_least_squares_beta_both_directions_multidim():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((12, 8))
    b_map = CocoerciveMap.least_squares_gradient(a, rng.standard_normal(12))
    assert check_cocoercivity(b_map, trials=100, seed=3).passed
    inflated = 1.05 * b_map.beta
    assert not check_cocoercivity(b_map, trials=100, seed=3, beta=inflated).passed
    # the probe along the top eigenvector refutes a constant 1e-9 too large
    assert not check_cocoercivity(b_map, trials=100, seed=3,
                                  beta=b_map.beta_exact * (1 + 1e-9)).passed


def _lstsq_case(shape, weighted, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape)
    metric = (Preconditioner.diagonal([rng.uniform(0.5, 2.0, shape[1])]) if weighted
              else Preconditioner.identity((shape[1],)))
    return a, rng.standard_normal(shape[0]), metric


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("shape", [(12, 8), (8, 12), (1, 1)])
def test_least_squares_beta_matches_dense_and_power_iteration(shape, weighted):
    a, b, metric = _lstsq_case(shape, weighted, seed=20)
    b_map = CocoerciveMap.least_squares_gradient(a, b, metric=metric)
    sw = np.sqrt(metric.diag_blocks()[0])
    dense = np.linalg.eigvalsh(sw[:, None] * (a.T @ a) * sw[None, :])[-1]
    assert b_map.beta_exact == pytest.approx(1.0 / dense, rel=1e-12)
    op = BlockLinearOperator([[a]], (shape[1],), (shape[0],))
    nrm = estimate_weighted_norm(op, metric, Preconditioner.identity((shape[0],)))
    assert b_map.beta_exact == pytest.approx(1.0 / nrm**2, rel=1e-10)
    assert b_map.beta == b_map.beta_exact / BETA_DEFLATION


def test_least_squares_beta_bit_identical_between_builds():
    a, b, metric = _lstsq_case((30, 45), True, seed=21)
    first = CocoerciveMap.least_squares_gradient(a, b, metric=metric)
    second = CocoerciveMap.least_squares_gradient(a, b, metric=metric)
    assert first.beta == second.beta
    assert first.beta_exact == second.beta_exact


def test_least_squares_wide_weighted_probe_stays_sharp():
    # rows < cols: the probe comes from the row-space Gram matrix
    a, b, metric = _lstsq_case((8, 14), True, seed=22)
    b_map = CocoerciveMap.least_squares_gradient(a, b, metric=metric)
    assert check_cocoercivity(b_map, trials=100, seed=3).passed
    inflated = 1.05 * b_map.beta
    assert not check_cocoercivity(b_map, trials=100, seed=3, beta=inflated).passed
    assert not check_cocoercivity(b_map, trials=100, seed=3,
                                  beta=b_map.beta_exact * (1 + 1e-9)).passed


def _top_direction(mat):
    """The top eigenvector of a symmetric matrix, from a full eigh."""
    return np.linalg.eigh(mat)[1][:, -1]


@pytest.mark.parametrize("shape", [(12, 8), (8, 14)], ids=["tall", "wide"])
def test_least_squares_probe_is_computed_on_first_read(shape):
    a, b, metric = _lstsq_case(shape, True, seed=23)
    b_map = CocoerciveMap.least_squares_gradient(a, b, metric=metric)
    sw = np.sqrt(metric.diag_blocks()[0])
    g = a * sw
    top = g.T @ _top_direction(g @ g.T) if shape[0] < shape[1] else _top_direction(g.T @ g)
    want = sw * (top / np.linalg.norm(top))
    got = b_map.extremal
    assert got.blocks[0].tobytes() == want.tobytes()
    assert b_map.extremal is got  # computed once


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (3, 0), (0, 3)])
def test_least_squares_zero_matrix_has_infinite_beta(shape):
    b_map = CocoerciveMap.least_squares_gradient(np.zeros(shape), np.ones(shape[0]))
    assert b_map.beta == float("inf") and b_map.beta_exact == float("inf")
    assert check_cocoercivity(b_map, trials=10, seed=0).passed


@pytest.mark.parametrize("shape", [(12, 8), (8, 12)], ids=["tall", "wide"])
def test_least_squares_given_top_solves_no_spectrum(monkeypatch, shape):
    # in the identity metric a given lambda_max is the constant, and the
    # probe is still computed on first read
    a, b, metric = _lstsq_case(shape, False, seed=24)
    own = CocoerciveMap.least_squares_gradient(a, b)
    top = float(np.linalg.eigvalsh(a @ a.T if shape[0] < shape[1] else a.T @ a)[-1])
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", None)
        b_map = CocoerciveMap.least_squares_gradient(a, b, metric=metric, top=top)
    assert (b_map.beta, b_map.beta_exact) == (own.beta, own.beta_exact)
    assert b_map.extremal.blocks[0].tobytes() == own.extremal.blocks[0].tobytes()


@pytest.mark.parametrize("metric", [Preconditioner.scalar([2.0], (3,)),
                                    Preconditioner.diagonal([np.ones(3)])],
                         ids=["scalar", "diagonal"])
def test_least_squares_refuses_top_in_a_weighted_metric(metric):
    # top is lambda_max of A'A; a weighted metric needs that of its own Gram matrix
    with pytest.raises(ValueError, match=r"^top is lambda_max of A\^T A"):
        CocoerciveMap.least_squares_gradient(np.ones((4, 3)), np.ones(4), metric=metric,
                                             top=12.0)


def test_least_squares_rejects_metric_of_other_dims():
    with pytest.raises(DimensionMismatch):
        CocoerciveMap.least_squares_gradient(np.ones((3, 2)), np.ones(3),
                                             metric=Preconditioner.identity((3,)))


def test_cocoercive_implies_lipschitz_bound():
    # ||Bx - By|| <= (beta chi)^{-1} ||x - y|| with chi the metric lower bound
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 4))
    metric = Preconditioner.diagonal([rng.uniform(0.5, 2.0, 4)])
    b_map = CocoerciveMap.least_squares_gradient(a, rng.standard_normal(6), metric=metric)
    bound = 1.0 / (b_map.beta_exact * metric.diag_blocks()[0].min())
    for _ in range(50):
        x = BlockVector([rng.standard_normal(4)])
        y = BlockVector([rng.standard_normal(4)])
        lhs = (b_map.apply(x) - b_map.apply(y)).norm()
        assert lhs <= bound * (x - y).norm() * (1 + 1e-9)


def test_linear_map_against_quadratic():
    q = np.array([[2.0, 0.5], [0.5, 1.0]])
    b_map = CocoerciveMap.linear(q, None, (2,), Preconditioner.identity((2,)))
    lam_max = np.linalg.eigvalsh(q)[-1]
    assert b_map.beta_exact == pytest.approx(1.0 / lam_max, rel=1e-12)
    assert check_cocoercivity(b_map, trials=50, seed=4, beta=b_map.beta_exact).passed
    assert check_cocoercivity(b_map, trials=50, seed=4).passed
    assert not check_cocoercivity(b_map, trials=50, seed=4,
                                  beta=b_map.beta_exact * (1 + 1e-9)).passed


def test_linear_map_probe_is_computed_on_first_read():
    rng = np.random.default_rng(24)
    m = rng.standard_normal((5, 5))
    q = m @ m.T
    dims = (2, 3)
    metric = Preconditioner.diagonal([rng.uniform(0.5, 2.0, d) for d in dims])
    b_map = CocoerciveMap.linear(q, None, dims, metric)
    sw = np.sqrt(np.concatenate(metric.diag_blocks()))
    want = sw * _top_direction(sw[:, None] * q * sw[None, :])
    assert b_map.extremal.concatenated().tobytes() == want.tobytes()


def test_minibatch_requires_finite_sum():
    from sifb import StochasticOracle

    z = CocoerciveMap.zero_map((2,))
    with pytest.raises(ConfigurationError):
        StochasticOracle(z, mode="minibatch")


# --- graph distances ------------------------------------------------------------------


def test_subdiff_distance_l1():
    f = ProxFunction.l1(1.0)
    assert subdiff_distance(f, np.array([2.0]), np.array([1.0])) == 0.0
    assert subdiff_distance(f, np.array([0.0]), np.array([0.5])) == 0.0
    assert subdiff_distance(f, np.array([0.0]), np.array([1.5])) == pytest.approx(0.5)
    assert subdiff_distance(f, np.array([-1.0]), np.array([1.0])) == pytest.approx(2.0)


def test_conjugate_subdiff_distance_l1():
    g = ProxFunction.l1(1.0)
    # v strictly inside the ball: only u = 0 admissible
    assert conjugate_subdiff_distance(g, np.array([0.2]), np.array([0.7])) == pytest.approx(0.7)
    # v on the boundary: nonnegative u admissible
    assert conjugate_subdiff_distance(g, np.array([1.0]), np.array([0.7])) == 0.0
    # infeasible v is penalized
    assert conjugate_subdiff_distance(g, np.array([1.5]), np.array([0.0])) >= 0.5


def test_conjugate_subdiff_distance_quadratic():
    g = ProxFunction.squared_l2(2.0, 0.0)
    v = np.array([1.0])
    assert conjugate_subdiff_distance(g, v, v / 2.0) == pytest.approx(0.0, abs=1e-15)


# The formulas below are the graph distances as they were written before each
# family's distances became entries of its catalogue record, and the
# duality residual's per-rule-kind branches; the tables must give the same
# bytes, and now check the rule kinds that were listed as unchecked.

ACTIVE_TOL = 1e-9


def formula_subdiff_distance(f, x, u):
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    p = f.params
    if f.family == "zero":
        return float(np.linalg.norm(u))
    if f.family == "l1":
        lam = p["lam"]
        on = np.abs(x) > ACTIVE_TOL
        d = np.where(on, np.abs(u - lam * np.sign(x)), np.maximum(np.abs(u) - lam, 0.0))
        return float(np.linalg.norm(d))
    if f.family == "sq_l2":
        return float(np.linalg.norm(u - p["lam"] * (x - p["center"])))
    if f.family == "affine":
        return float(np.linalg.norm(u - np.broadcast_to(p["c"], u.shape)))
    if f.family == "box":
        lo = np.broadcast_to(p["lo"], x.shape)
        hi = np.broadcast_to(p["hi"], x.shape)
        viol = np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)
        at_lo = np.abs(x - lo) <= ACTIVE_TOL
        at_hi = np.abs(x - hi) <= ACTIVE_TOL
        d = np.abs(u)
        d = np.where(at_lo & ~at_hi, np.maximum(u, 0.0), d)
        d = np.where(at_hi & ~at_lo, np.maximum(-u, 0.0), d)
        d = np.where(at_lo & at_hi, 0.0, d)
        return float(np.linalg.norm(d) + np.linalg.norm(viol))
    if f.family == "linf_ball":
        return formula_subdiff_distance(ProxFunction.box(-p["radius"], p["radius"]), x, u)
    raise AssertionError(f.family)


def formula_conjugate_subdiff_distance(g, v, u):
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    p = g.params
    if g.family == "l1":
        return formula_subdiff_distance(ProxFunction.box(-p["lam"], p["lam"]), v, u)
    if g.family == "linf_ball":
        return formula_subdiff_distance(ProxFunction.l1(p["radius"]), v, u)
    if g.family == "sq_l2":
        return float(np.linalg.norm(u - (v / p["lam"] + np.broadcast_to(p["center"], v.shape))))
    if g.family == "zero":
        return float(np.linalg.norm(v))
    if g.family == "affine":
        return float(np.linalg.norm(v - np.broadcast_to(p["c"], v.shape)))
    return None


def formula_rule_distance(rule, x, u):
    if rule.kind == "zero":
        return float(np.linalg.norm(u))
    if rule.kind == "subdiff":
        return formula_subdiff_distance(rule.fn, x, u)
    if rule.kind == "conjugate_subdiff":
        return formula_conjugate_subdiff_distance(rule.fn, x, u)
    if rule.kind == "linear":
        return float(np.linalg.norm(u - rule.matrix @ x))
    raise AssertionError(rule.kind)


def distance_pairs(n, rng):
    """(x, u) pairs: random points; points on each family's active set of
    `kernel_families` (x = +-lam, +-radius, lo, hi, within the active
    tolerance of them, and lo == hi); infeasible points; candidates u of
    either sign, on the thresholds and zero."""
    ramp = np.linspace(-1.0, 1.0, n)
    xs = [2.0 * rng.standard_normal(n), kernel_point(n, rng), ramp, ramp - 0.5,
          ramp + 1.0, ramp - 1.5]
    for value in (0.0, 5e-10, 1.5e-9, 0.7, 0.9, 1.0, 0.6, 0.25, 0.6 + 5e-10, 0.25 - 2e-9, 3.0):
        xs += [np.full(n, value), np.full(n, -value)]
    us = [rng.standard_normal(n), 3.0 * rng.standard_normal(n), np.full(n, 0.7),
          np.full(n, -0.9), np.zeros(n)]
    return [(x, u) for x in xs for u in us]


def same_distance(got, want):
    return (got is None and want is None) or (
        isinstance(got, float) and isinstance(want, float) and got.hex() == want.hex())


@pytest.mark.parametrize("n", [9, 0], ids=["block", "empty"])
def test_subdiff_distances_match_the_formulas_bytes(n):
    rng = np.random.default_rng(19)
    families = kernel_families(n)
    assert {f.family for f in families} == {"zero", "l1", "sq_l2", "box", "linf_ball", "affine"}
    for x, u in distance_pairs(n, rng):
        for f in families:
            assert same_distance(subdiff_distance(f, x, u),
                                 formula_subdiff_distance(f, x, u)), (f, x, u)
            assert same_distance(conjugate_subdiff_distance(f, x, u),
                                 formula_conjugate_subdiff_distance(f, x, u)), (f, x, u)
    box = ProxFunction.box(-1.0, 0.6)
    assert conjugate_subdiff_distance(box, np.zeros(n), np.zeros(n)) is None


@pytest.mark.parametrize("n", [9, 0], ids=["block", "empty"])
def test_block_distances_match_the_rule_formulas_bytes(n):
    rng = np.random.default_rng(20)
    rules = kernel_rules(n, rng)
    op = MonotoneBlock(rules)
    for x, u in distance_pairs(n, rng)[::7]:
        got = op.distances([x] * len(rules), [u] * len(rules))
        for rule, d in zip(rules, got):
            assert same_distance(d, formula_rule_distance(rule, x, u)), rule
    unchecked = [r for r, d in zip(rules, got) if d is None]
    assert unchecked and all(r.kind == "conjugate_subdiff" and r.fn.family == "box"
                             for r in unchecked)


def test_check_dims_refuses_a_block_count_a_parameter_or_a_matrix_of_other_shape():
    rules = [MonotoneBlock.rule_subdiff(ProxFunction.box([-1.0, -2.0], 1.0)),
             MonotoneBlock.rule_conjugate_subdiff(ProxFunction.squared_l2(1.0, [0.5])),
             MonotoneBlock.rule_subdiff(ProxFunction.affine(0.3)),
             MonotoneBlock.rule_zero(), *MonotoneBlock.linear([np.eye(2)]).rules]
    op = MonotoneBlock(rules)
    op.check_dims((2, 3, 4, 5, 2))  # (d,), (1,) and () parameters broadcast
    with pytest.raises(DimensionMismatch, match="primal operator has 5 blocks, metric has 4"):
        op.check_dims((2, 3, 4, 5), "primal")
    with pytest.raises(DimensionMismatch, match=r"^dual\[0\]: lo has shape \(2,\), block dim 3$"):
        op.check_dims((3, 3, 4, 5, 2), "dual")
    with pytest.raises(DimensionMismatch, match=r"^block\[4\]: matrix has shape \(2, 2\), "
                                                r"block dim 3$"):
        op.check_dims((2, 3, 4, 5, 3))
    center = MonotoneBlock.subdiff([ProxFunction.squared_l2(1.0, np.zeros((1, 2)))])
    with pytest.raises(DimensionMismatch, match=r"center has shape \(1, 2\), block dim 2"):
        center.check_dims((2,))


# --- bound resolvent kernels ----------------------------------------------------------
# The formulas below are the per-call prox and resolvent arithmetic as it was
# written before the kernels bound their step constants; each kernel must
# give the same bytes.


def formula_prox(f, x, step):
    p = f.params
    if f.family == "zero":
        return x.copy()
    if f.family == "l1":
        return np.sign(x) * np.maximum(np.abs(x) - step * p["lam"], 0.0)
    if f.family == "sq_l2":
        t = step * p["lam"]
        return (x + t * p["center"]) / (1.0 + t)
    if f.family == "box":
        return np.clip(x, p["lo"], p["hi"])
    if f.family == "linf_ball":
        return np.clip(x, -p["radius"], p["radius"])
    if f.family == "affine":
        return x - step * p["c"]
    raise AssertionError(f.family)


def formula_prox_conj(g, x, step):
    p = g.params
    if g.family == "zero":
        return np.zeros_like(x)
    if g.family == "l1":
        return np.clip(x, -p["lam"], p["lam"])
    if g.family == "linf_ball":
        return np.sign(x) * np.maximum(np.abs(x) - step * p["radius"], 0.0)
    if g.family == "sq_l2":
        return (x - step * p["center"]) / (1.0 + step / p["lam"])
    if g.family == "affine":
        return np.broadcast_to(p["c"], x.shape).astype(np.float64).copy()
    raise AssertionError(g.family)


def formula_resolvent(rule, step, z):
    if rule.kind == "zero":
        return z.copy()
    if rule.kind == "subdiff":
        return formula_prox(rule.fn, z, step)
    if rule.kind == "conjugate_subdiff":
        g = rule.fn
        if g.has_conjugate_rule:
            return formula_prox_conj(g, z, step)
        return z - step * formula_prox(g, z / step, 1.0 / step)
    if rule.kind == "linear":
        return np.linalg.solve(np.eye(z.shape[0]) + step[:, None] * rule.matrix, z)
    raise AssertionError(rule.kind)


def kernel_families(n):
    """Every catalogue family for a block of length n, edge cases included."""
    fs = [ProxFunction.zero(), ProxFunction.l1(0.7), ProxFunction.l1(0.0),
          ProxFunction.squared_l2(1.3, center=0.4), ProxFunction.squared_l2(0.5),
          ProxFunction.box(-1.0, 0.6), ProxFunction.box(0.25, 0.25),
          ProxFunction.linf_ball(0.9), ProxFunction.linf_ball(0.0),
          ProxFunction.affine(0.3)]
    if n:
        ramp = np.linspace(-1.0, 1.0, n)
        fs += [ProxFunction.squared_l2(2.0, center=ramp), ProxFunction.box(ramp - 0.5, ramp),
               ProxFunction.affine(ramp)]
    return fs


def kernel_rules(n, rng):
    rules = [MonotoneBlock.rule_zero()]
    for f in kernel_families(n):
        rules += [MonotoneBlock.rule_subdiff(f), MonotoneBlock.rule_conjugate_subdiff(f)]
    m = rng.standard_normal((n, n))
    rules += MonotoneBlock.linear([m @ m.T + (m - m.T)]).rules
    return rules


def kernel_point(n, rng):
    """Random entries, then signed zeros and values on the thresholds."""
    edges = np.array([0.0, -0.0, 0.25, -0.7, 0.9, 1.0])
    return np.concatenate([2.0 * rng.standard_normal(n - edges.size), edges]) if n else np.zeros(0)


@pytest.mark.parametrize("n", [9, 0], ids=["block", "empty"])
def test_bound_resolvent_kernels_match_the_formulas_bytes(n):
    rng = np.random.default_rng(17)
    z = kernel_point(n, rng)
    rules = kernel_rules(n, rng)
    kinds = {r.kind for r in rules} | {r.fn.family for r in rules if r.fn is not None}
    assert kinds == {"zero", "subdiff", "conjugate_subdiff", "linear", "l1", "sq_l2",
                     "box", "linf_ball", "affine"}
    for u in (np.full(n, 0.8), rng.uniform(0.2, 3.0, n)):  # scalar and diagonal metric
        for gamma in (1.0, 0.37):
            kernels = MonotoneBlock(rules).bind(gamma, [u] * len(rules))
            for rule, kernel in zip(rules, kernels):
                want = formula_resolvent(rule, gamma * u, z)
                got = kernel(z)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), rule


@pytest.mark.parametrize("n", [9, 0], ids=["block", "empty"])
def test_prox_kernels_match_the_formulas_bytes(n):
    rng = np.random.default_rng(18)
    z = kernel_point(n, rng)
    for f in kernel_families(n):
        for step in (1.0, 0.37, rng.uniform(0.2, 3.0, n)):  # scalar and diagonal step
            assert f.prox(z, step).tobytes() == formula_prox(f, z, step).tobytes(), f
            if f.has_conjugate_rule:
                want = formula_prox_conj(f, z, step)
                assert f.prox_conj(z, step).tobytes() == want.tobytes(), f
        w = rng.uniform(0.2, 3.0, n)
        metric, x = Preconditioner.diagonal([w]), BlockVector([z])
        assert (prox_weighted(f, metric, x).blocks[0].tobytes()
                == formula_prox(f, z, 1.0 / w).tobytes()), f
        conj = (formula_prox_conj(f, z, w) if f.has_conjugate_rule
                else z - w * formula_prox(f, z / w, 1.0 / w))
        assert prox_conjugate(f, metric, x).blocks[0].tobytes() == conj.tobytes(), f


def test_bound_kernels_refuse_a_bad_step_or_block_count():
    op = MonotoneBlock.subdiff([ProxFunction.l1(1.0)])
    with pytest.raises(ConfigurationError, match="positive"):
        op.bind(0.0, [np.ones(2)])
    with pytest.raises(DimensionMismatch, match="operator has 1 blocks, metric has 2"):
        op.bind(1.0, [np.ones(2), np.ones(2)])


# --- structural zero maps -------------------------------------------------------------


def test_zero_maps_return_one_shared_read_only_zero():
    rng = np.random.default_rng(5)
    zero = CocoerciveMap.zero_map((3, 2))
    pair = CocoerciveMap.paired(CocoerciveMap.zero_map((3,)), CocoerciveMap.zero_map((2, 4)),
                                beta=float("inf"))
    for b_map, dims in ((zero, (3, 2)), (pair, (3, 2, 4))):
        x, y = (BlockVector([rng.standard_normal(d) for d in dims]) for _ in range(2))
        first = b_map.apply_flat(x.concatenated())
        assert b_map.apply_flat(y.concatenated()) is first
        assert first.shape == (sum(dims),) and not first.flags.writeable and not first.any()
        value = b_map.apply(x)
        assert value.dims == dims and not any(b.any() for b in value.blocks)
        with pytest.raises(DimensionMismatch):
            b_map.apply(BlockVector([np.ones(d + 1) for d in dims]))
