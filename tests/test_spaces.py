import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sifb import (
    BlockLinearOperator,
    BlockVector,
    DimensionMismatch,
    NormEstimationError,
    Preconditioner,
    block_concat,
    block_split,
    estimate_weighted_norm,
)

from audits import WeightedMetric, dense, inverse


def rand_bv(rng, dims):
    return BlockVector([rng.standard_normal(d) for d in dims])


# --- inner products ---------------------------------------------------------


def test_inner_orthogonal_vectors():
    x = BlockVector([[1.0, 0.0]])
    y = BlockVector([[0.0, 1.0]])
    assert x.dot(y) == 0.0


def test_inner_weighted_by_hand():
    x = BlockVector([[1.0, 2.0]])
    y = BlockVector([[1.0, 2.0]])
    metric = WeightedMetric(Preconditioner.diagonal([[2.0, 3.0]]))
    # 2*1 + 3*4
    assert metric.inner(x, y) == pytest.approx(14.0, abs=1e-14)


def test_inner_matches_elementwise_bruteforce():
    rng = np.random.default_rng(11)
    dims = (4, 7, 1)
    x = rand_bv(rng, dims)
    y = rand_bv(rng, dims)
    w = [rng.uniform(0.5, 2.0, d) for d in dims]
    got = WeightedMetric(Preconditioner.diagonal(w)).inner(x, y)
    want = sum(
        float(np.sum(wj * xj * yj)) for wj, xj, yj in zip(w, x.blocks, y.blocks)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_inner_symmetry():
    rng = np.random.default_rng(12)
    dims = (5, 3)
    x, y = rand_bv(rng, dims), rand_bv(rng, dims)
    m = WeightedMetric(Preconditioner.diagonal([rng.uniform(0.5, 2, d) for d in dims]))
    assert m.inner(x, y) == pytest.approx(m.inner(y, x), rel=1e-12)


def test_inner_dim_mismatch_names_block():
    x = BlockVector([[1.0, 2.0], [3.0]])
    y = BlockVector([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DimensionMismatch, match="block 1"):
        x.dot(y)
    with pytest.raises(DimensionMismatch, match="block 1"):
        WeightedMetric(Preconditioner.identity(y.dims)).inner(x, y)


# --- block vector arithmetic ------------------------------------------------


def test_arithmetic_and_immutability():
    x = BlockVector([[1.0, 2.0], [3.0]])
    y = BlockVector([[4.0, 5.0], [6.0]])
    s = x + y
    assert s.blocks[0].tolist() == [5.0, 7.0]
    assert (2.0 * x).blocks[1].tolist() == [6.0]
    assert x.axpy(-1.0, y).blocks[0].tolist() == [-3.0, -3.0]
    with pytest.raises(ValueError):
        x.blocks[0][0] = 99.0  # read-only storage


def test_zero_dim_blocks_are_absorbing():
    x = BlockVector([[1.0], []])
    y = BlockVector([[2.0], []])
    assert (x + y).dims == (1, 0)
    assert x.dot(y) == 2.0
    assert x.norm() == 1.0


def test_norm_dot_and_distance_sum_blocks_in_order():
    # bit for bit the per-block sums of the original formulas
    rng = np.random.default_rng(15)
    for dims in [(), (0,), (3, 0, 5), (30,), (1, 1, 1, 1)]:
        x, y = rand_bv(rng, dims), rand_bv(rng, dims)
        assert x.norm() == float(np.sqrt(sum(np.dot(a, a) for a in x.blocks)))
        assert x.dot(y) == float(sum(np.dot(a, b) for a, b in zip(x.blocks, y.blocks)))
        assert (x - x).norm() == 0.0
    x = BlockVector([[np.nan, 1.0], [np.inf]])
    with np.errstate(invalid="ignore"):
        assert np.isnan((x - x).norm())


def test_dimension_mismatch_messages():
    x = BlockVector([[1.0, 2.0], [3.0]])
    with pytest.raises(DimensionMismatch, match="block 1: length 1 vs 2"):
        x - BlockVector([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DimensionMismatch, match="block count mismatch: 2 vs 1"):
        x + BlockVector([[1.0, 2.0]])


def test_a_vector_shares_no_memory_with_its_input():
    # every vector owns copies: of its constructor's arrays and of the
    # operands of the operation that made it
    rng = np.random.default_rng(16)
    arrays = [rng.standard_normal(3), rng.standard_normal(2)]
    x = BlockVector(arrays)
    y, d = rand_bv(rng, (3, 2)), rand_bv(rng, (4,))
    flat = rng.standard_normal(5)
    metric = Preconditioner.diagonal([rng.uniform(0.5, 2.0, n) for n in (3, 2)])
    op = BlockLinearOperator([[1.0, None], [None, rng.standard_normal((4, 2))]],
                             (3, 2), (3, 4))
    stacked = block_concat(x, d)
    made = [(x, arrays), (x + y, x.blocks + y.blocks), (x - y, x.blocks + y.blocks),
            (2.0 * x, x.blocks), (-x, x.blocks), (x.axpy(2.0, y), x.blocks + y.blocks),
            (stacked, x.blocks + d.blocks),
            *((part, stacked.blocks) for part in block_split(stacked, 2)),
            (BlockVector.from_flat(flat, (3, 2)), [flat]),
            (metric.apply(x), x.blocks), (op.apply(x), x.blocks),
            (op.adjoint_apply(op.apply(x)), op.apply(x).blocks)]
    for out, inputs in made:
        assert not any(np.shares_memory(a, b) for a in out.blocks for b in inputs), out


def test_a_vector_is_one_read_only_flat_array_and_its_blocks_view_it():
    rng = np.random.default_rng(17)
    dims = (3, 0, 2)
    x, y = rand_bv(rng, dims), rand_bv(rng, dims)
    metric = Preconditioner.diagonal([rng.uniform(0.5, 2.0, n) for n in dims])
    stacked = block_concat(x, y)
    made = [x, x + y, x - y, 2.0 * x, -x, x.axpy(2.0, y), BlockVector.zeros(dims),
            BlockVector.from_flat(rng.standard_normal((5, 1)), dims), stacked,
            *block_split(stacked, 3), metric.apply(x), metric.apply_inverse(x),
            metric.apply_sqrt(x), BlockVector([rng.standard_normal(4)])]
    for v in made:
        assert v.concatenated() is v.flat
        assert v.flat.dtype == np.float64 and v.flat.shape == (sum(v.dims),)
        assert not v.flat.flags.writeable
        assert tuple(map(len, v.blocks)) == v.dims
        assert all(not b.flags.writeable for b in v.blocks)
        assert all(np.shares_memory(b, v.flat) for b in v.blocks if b.size)
        assert np.concatenate(v.blocks).tobytes() == v.flat.tobytes()
    # a metric's diagonal is one read-only flat array, its blocks views of it
    assert not metric.diag.flags.writeable
    assert all(np.shares_memory(d, metric.diag) for d in metric.diag_blocks() if d.size)
    assert np.concatenate(metric.diag_blocks()).tobytes() == metric.diag.tobytes()


def test_concat_split_roundtrip():
    rng = np.random.default_rng(13)
    p = rand_bv(rng, (3, 2))
    d = rand_bv(rng, (4,))
    s = block_concat(p, d)
    assert s.dims == (3, 2, 4)
    p2, d2 = block_split(s, 2)
    for a, b in zip(p.blocks + d.blocks, p2.blocks + d2.blocks):
        assert np.array_equal(a, b)


def test_concat_empty_dual_is_identity():
    p = BlockVector([[1.0, 2.0]])
    d = BlockVector([])
    s = block_concat(p, d)
    assert s.dims == p.dims
    assert np.array_equal(s.blocks[0], p.blocks[0])


def test_from_flat_roundtrip():
    rng = np.random.default_rng(14)
    x = rand_bv(rng, (2, 0, 5))
    again = BlockVector.from_flat(x.concatenated(), x.dims)
    for a, b in zip(x.blocks, again.blocks):
        assert np.array_equal(a, b)


# --- preconditioners ---------------------------------------------------------


@pytest.fixture
def diag_precond():
    rng = np.random.default_rng(21)
    dims = (6, 3)
    return Preconditioner.diagonal([rng.uniform(0.3, 4.0, d) for d in dims]), dims


def test_preconditioner_self_adjoint(diag_precond):
    p, dims = diag_precond
    rng = np.random.default_rng(22)
    for _ in range(20):
        x, y = rand_bv(rng, dims), rand_bv(rng, dims)
        lhs = p.apply(x).dot(y)
        rhs = x.dot(p.apply(y))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_preconditioner_sqrt_squares_to_apply(diag_precond):
    p, dims = diag_precond
    rng = np.random.default_rng(23)
    x = rand_bv(rng, dims)
    twice = p.apply_sqrt(p.apply_sqrt(x))
    direct = p.apply(x)
    assert (twice - direct).norm() <= 1e-12 * max(direct.norm(), 1.0)


def test_preconditioner_inverse_roundtrip(diag_precond):
    p, dims = diag_precond
    rng = np.random.default_rng(24)
    x = rand_bv(rng, dims)
    back = p.apply(p.apply_inverse(x))
    assert (back - x).norm() <= 1e-12 * x.norm()
    inv = inverse(p)
    back2 = inv.apply(p.apply(x))
    assert (back2 - x).norm() <= 1e-12 * x.norm()


def lower_bound(p):
    """The strong-positivity constant of p: its smallest diagonal entry."""
    return float(np.concatenate(p.diag_blocks()).min())


def test_strong_positivity_bound(diag_precond):
    p, dims = diag_precond
    rng = np.random.default_rng(25)
    assert lower_bound(p) > 0
    for _ in range(50):
        x = rand_bv(rng, dims)
        assert x.dot(p.apply(x)) >= lower_bound(p) * x.norm() ** 2 - 1e-12


def test_weighted_metric_norm_bound(diag_precond):
    p, dims = diag_precond
    m = WeightedMetric(p)
    rng = np.random.default_rng(26)
    for _ in range(20):
        x = rand_bv(rng, dims)
        assert m.norm_sq(x) >= lower_bound(p) * x.norm() ** 2 - 1e-12


def test_preconditioner_rejects_nonpositive_entries():
    with pytest.raises(ValueError, match="positive"):
        Preconditioner.diagonal([np.array([1.0, 0.0])])
    with pytest.raises(ValueError, match="positive"):
        Preconditioner.scalar([-1.0], (2,))


# --- block linear operators ---------------------------------------------------


def test_operator_shape_validation():
    with pytest.raises(DimensionMismatch):
        BlockLinearOperator([[np.ones((2, 3))]], (4,), (2,))


def test_adjoint_consistency_random_pairs():
    rng = np.random.default_rng(31)
    dims_in = (3, 5)
    dims_out = (2, 4, 1)
    entries = [
        [rng.standard_normal((dims_out[k], dims_in[i])) if rng.random() > 0.25 else None
         for i in range(2)]
        for k in range(3)
    ]
    op = BlockLinearOperator(entries, dims_in, dims_out)
    for _ in range(100):
        x = rand_bv(rng, dims_in)
        v = rand_bv(rng, dims_out)
        lhs = op.apply(x).dot(v)
        rhs = x.dot(op.adjoint_apply(v))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


# --- weighted norm estimation --------------------------------------------------


def test_norm_diagonal_operator():
    op = BlockLinearOperator([[np.diag([2.0, 1.0])]], (2,), (2,))
    ident = Preconditioner.identity((2,))
    got = estimate_weighted_norm(op, ident, ident)
    assert got == pytest.approx(2.0, rel=1e-10)


def test_norm_scalar_metrics_1x1():
    op = BlockLinearOperator([[np.array([[1.0]])]], (1,), (1,))
    tau, sig = 0.3, 1.7
    got = estimate_weighted_norm(
        op, Preconditioner.scalar([tau], (1,)), Preconditioner.scalar([sig], (1,))
    )
    assert got == pytest.approx(np.sqrt(tau * sig), rel=1e-12)


def test_norm_matches_dense_eigensolve():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((5, 4))
    v = rng.uniform(0.5, 2.0, 4)
    w = rng.uniform(0.5, 2.0, 5)
    op = BlockLinearOperator([[a]], (4,), (5,))
    got = estimate_weighted_norm(
        op,
        Preconditioner.diagonal([v]),
        Preconditioner.diagonal([w]),
    )
    dense = np.sqrt(w)[:, None] * a * np.sqrt(v)[None, :]
    gram = dense.T @ dense
    want = np.sqrt(np.linalg.eigvalsh(gram)[-1])
    assert got == pytest.approx(want, rel=1e-8)


def test_norm_zero_operator():
    op = BlockLinearOperator.zero((3,), (2,))
    ident3 = Preconditioner.identity((3,))
    ident2 = Preconditioner.identity((2,))
    assert estimate_weighted_norm(op, ident3, ident2) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_norm_non_finite_coupling_raises(bad):
    a = np.array([[1.0, 0.0], [0.0, 0.5], [0.2, 0.1]])
    a[1, 0] = bad
    op = BlockLinearOperator([[a]], (2,), (3,))
    with pytest.raises(NormEstimationError):
        estimate_weighted_norm(op, Preconditioner.identity((2,)),
                               Preconditioner.identity((3,)))


def test_norm_deterministic():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((6, 6))
    op = BlockLinearOperator([[a]], (6,), (6,))
    ident = Preconditioner.identity((6,))
    assert estimate_weighted_norm(op, ident, ident) == estimate_weighted_norm(
        op, ident, ident
    )


def _metric(kind, dims, rng):
    if kind == "identity":
        return Preconditioner.identity(dims)
    if kind == "scalar":
        return Preconditioner.scalar(rng.uniform(0.3, 2.5, len(dims)), dims)
    return Preconditioner.diagonal([rng.uniform(0.3, 2.5, d) for d in dims])


# (primal block dims, dual block dims, structurally zero cells (k, i))
NORM_LAYOUTS = {
    "tall": ((4, 3), (5, 6), ()),
    "wide": ((6, 5), (3, 4), ()),
    "1x1": ((1,), (1,), ()),
    "none_cells": ((3, 4, 2), (5, 3), ((0, 1), (1, 0), (1, 2))),
    "wide_none_cells": ((7, 5), (2, 3), ((1, 0),)),
    "zero_length_block": ((3, 0, 4), (0, 5), ()),
    # blocks of more than 64 rows
    "tall_chunked": ((70, 2), (150, 3), ((1, 0),)),
    "wide_chunked": ((140, 5), (30,), ()),
}


@pytest.mark.parametrize("kind", ["identity", "scalar", "diagonal"])
@pytest.mark.parametrize("layout", sorted(NORM_LAYOUTS))
def test_norm_matches_dense_svd(layout, kind):
    dims_in, dims_out, zeros = NORM_LAYOUTS[layout]
    rng = np.random.default_rng(sorted(NORM_LAYOUTS).index(layout))
    entries = [[None if (k, i) in zeros else rng.standard_normal((dk, di))
                for i, di in enumerate(dims_in)] for k, dk in enumerate(dims_out)]
    op = BlockLinearOperator(entries, dims_in, dims_out)
    V, W = _metric(kind, dims_in, rng), _metric(kind, dims_out, rng)
    sv = np.sqrt(np.concatenate(V.diag_blocks()))
    sw = np.sqrt(np.concatenate(W.diag_blocks()))
    want = np.linalg.norm(sw[:, None] * dense(op) * sv[None, :], 2)
    got = estimate_weighted_norm(op, V, W)
    assert got == pytest.approx(want, rel=1e-12)
    assert estimate_weighted_norm(op, V, W) == got


def test_dense_places_blocks_and_zero_fills_none_cells():
    a, b = np.arange(6.0).reshape(2, 3), np.arange(4.0).reshape(2, 2)
    op = BlockLinearOperator([[a, None], [None, b]], (3, 2), (2, 2))
    want = np.zeros((4, 5))
    want[:2, :3] = a
    want[2:, 3:] = b
    assert np.array_equal(dense(op), want)
    x = BlockVector([[1.0, -2.0, 0.5], [3.0, 1.0]])
    assert np.allclose(dense(op) @ x.concatenated(), op.apply(x).concatenated())
    assert dense(BlockLinearOperator.zero((3,), ())).shape == (0, 3)


# --- scalar cells (s times the identity) ---------------------------------------


def _with_dense_identities(op):
    """The same operator with each scalar cell s stored as the matrix s I."""
    return BlockLinearOperator(
        [[c if c is None or c.ndim else float(c) * np.eye(op.dims_in[i])
          for i, c in enumerate(row)] for row in op.entries],
        op.dims_in, op.dims_out)


@st.composite
def block_operators(draw):
    """(operator, x, v, V, W): dense, None and scalar cells, empty blocks included."""
    dims_in = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    dims_out = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = []
    for dk in dims_out:
        row = []
        for di in dims_in:
            kinds = ["none", "dense"] + (["scalar"] if dk == di else [])
            kind = draw(st.sampled_from(kinds))
            row.append(None if kind == "none"
                       else draw(st.sampled_from([1.0, -1.0, 0.0, 0.3, 2.5])) if kind == "scalar"
                       else rng.standard_normal((dk, di)))
        entries.append(row)
    op = BlockLinearOperator(entries, dims_in, dims_out)
    return (op, rand_bv(rng, dims_in), rand_bv(rng, dims_out),
            _metric(draw(st.sampled_from(["identity", "scalar", "diagonal"])), dims_in, rng),
            _metric("diagonal", dims_out, rng))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=block_operators())
def test_block_operator_adjoint_dense_and_scalar_cells(case):
    op, x, v, V, W = case
    lx, ltv = op.apply(x), op.adjoint_apply(v)
    assert lx.dims == op.dims_out and ltv.dims == op.dims_in
    # the adjoint identity <Lx, v> = <x, L*v>
    scale = float(np.abs(dense(op)) @ np.abs(x.concatenated()) @ np.abs(v.concatenated()))
    assert abs(lx.dot(v) - x.dot(ltv)) <= 1e-12 * scale
    # dense() agrees with apply and adjoint_apply
    d = dense(op)
    assert np.allclose(d @ x.concatenated(), lx.concatenated(), rtol=1e-12, atol=1e-12)
    assert np.allclose(d.T @ v.concatenated(), ltv.concatenated(), rtol=1e-12, atol=1e-12)
    # a scalar cell s gives the bits of the matrix s I, in products and in the norm
    ref = _with_dense_identities(op)
    assert np.array_equal(dense(ref), d)
    for got, want in ((lx, ref.apply(x)), (ltv, ref.adjoint_apply(v))):
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got.blocks, want.blocks))
    assert estimate_weighted_norm(op, V, W) == estimate_weighted_norm(ref, V, W)


# (primal dims, dual dims, cell kinds) with blocks of more than 64 rows,
# in tall form (more dual than primal coordinates); the wide form is the
# transpose. "s" is a scalar cell, "d" a dense one.
CHUNKED_SCALAR_LAYOUTS = [
    # a scalar cell beside a dense cell in one block row, on either side of
    # it, and a dense cell beside None
    ((130, 70), (130, 70, 90), [["s", "d"], ["d", "s"], [None, "d"]]),
    # two scalar cells in one block row, and a scalar cell beside None
    ((100, 100), (100, 150, 100), [["s", "s"], ["d", None], [None, "s"]]),
]


@pytest.mark.parametrize("tall", [True, False], ids=["tall", "wide"])
def test_scalar_cell_norm_bit_identical_across_gram_chunks(tall):
    # the split lasso layout [[A], [s I]] with blocks of more than 64 rows
    rng = np.random.default_rng(7)
    n, p = (150, 140) if tall else (30, 150)
    a = rng.standard_normal((n, p))
    for s in (1.0, 0.5):
        op = BlockLinearOperator([[a], [s]], (p,), (n, p))
        V = Preconditioner.scalar([0.3], (p,))
        W = Preconditioner.diagonal([rng.uniform(0.2, 0.9, n), rng.uniform(0.2, 0.9, p)])
        assert (estimate_weighted_norm(op, V, W)
                == estimate_weighted_norm(_with_dense_identities(op), V, W))
    for dims_in, dims_out, kinds in CHUNKED_SCALAR_LAYOUTS:
        cells = [[None if kind is None else float(rng.uniform(-2.0, 2.0)) if kind == "s"
                  else rng.standard_normal((dk, di)) for di, kind in zip(dims_in, row)]
                 for dk, row in zip(dims_out, kinds)]
        if not tall:
            cells = [[c if c is None or np.ndim(c) == 0 else c.T for c in col]
                     for col in zip(*cells)]
            dims_in, dims_out = dims_out, dims_in
        op = BlockLinearOperator(cells, dims_in, dims_out)
        assert (sum(dims_in) <= sum(dims_out)) == tall
        V = Preconditioner.diagonal([rng.uniform(0.2, 0.9, d) for d in dims_in])
        W = Preconditioner.diagonal([rng.uniform(0.2, 0.9, d) for d in dims_out])
        assert (estimate_weighted_norm(op, V, W)
                == estimate_weighted_norm(_with_dense_identities(op), V, W))


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (0, 2), (1, 0)], ids=str)
def test_scalar_cell_needs_a_square_block(shape):
    with pytest.raises(DimensionMismatch, match="square"):
        BlockLinearOperator([[1.0]], (shape[1],), (shape[0],))


def test_scalar_cell_is_stored_as_a_read_only_0d_array():
    op = BlockLinearOperator([[2, None]], (3, 1), (3,))
    cell = op.entries[0][0]
    assert cell.shape == () and cell.dtype == np.float64 and float(cell) == 2.0
    assert not cell.flags.writeable and (cell.nbytes, cell.size) == (8, 1)
    with pytest.raises(DimensionMismatch):
        op.apply(BlockVector([[1.0, 2.0]]))


def _zeros_plus_products(op, xs, adjoint):
    """L x or L* v as zeros(d) followed by one `+=` per cell product: the
    accumulation the block products are bit-equal to."""
    rows = ([[c if c is None else c.T for c in col] for col in zip(*op.entries)]
            if adjoint else op.entries)
    out = []
    for d, row in zip(op.dims_in if adjoint else op.dims_out, rows):
        acc = np.zeros(d)
        for cell, x in zip(row, xs):
            if cell is not None:
                acc += cell @ x if cell.ndim else cell * x
        out.append(acc)
    return out


def test_block_products_match_zeros_plus_products_bytes_with_signed_zeros():
    # -0.0 entries in x and v, an all-zero dense cell (a row of products that
    # are all zeros), scalar cells 1 and s, a None cell, and a block row and
    # column with no cell at all
    rng = np.random.default_rng(11)
    dims_in, dims_out = (4, 3, 2), (4, 3, 2, 3)
    op = BlockLinearOperator(
        [[1.0, None, None],
         [np.zeros((3, 4)), -0.5, None],
         [rng.standard_normal((2, 4)), None, None],
         [None, np.zeros((3, 3)), None]],
        dims_in, dims_out)

    def signed(dims):
        blocks = [rng.standard_normal(d) for d in dims]
        for b in blocks:
            b[::2] = -0.0
        return blocks

    for _ in range(5):
        xs, vs = signed(dims_in), signed(dims_out)
        for got, want in ((op.apply_blocks(xs), _zeros_plus_products(op, xs, False)),
                          (op.adjoint_apply_blocks(vs), _zeros_plus_products(op, vs, True))):
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            assert all(g.flags.writeable and not any(g is b for b in xs + vs) for g in got)
    # the -0.0 entries of x pass the identity cell as +0.0, as 0 + x gives them
    assert not np.signbit(op.apply_blocks(xs)[0]).any()
