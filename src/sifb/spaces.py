"""Block product-space vectors and the diagonal linear-algebra substrate.

One block layout: a vector, or a metric's diagonal, is one read-only flat
float64 array, its blocks views of it (`block_views`), and `block_dot` is the
block-ordered inner product behind the vectors' norms and the run's.
`BlockVector` values are immutable: a vector owns a read-only copy of the
arrays it is built from and an operator read-only matrices, so one object
always holds one value, shares no memory with its caller, and is safe to share
across concurrent replica runs. The products on bare block arrays may write
into arrays that their caller owns: `BlockLinearOperator.apply_blocks` and
`adjoint_apply_blocks` fill the output blocks they are given, and a
preconditioner's `apply` returns its input when every entry of its diagonal
is 1.0 (its `factor` is None).
Weighted norms of block couplings come from one dense eigensolve of a Gram
matrix, so they are exact to rounding and deterministic.

`one_blas_thread` runs the set-up that defines a problem's numbers (its data,
spectra, coupling norm and reference) with numpy's bundled OpenBLAS at one
thread. A threaded BLAS splits its sums by thread, so without it those numbers
would depend on the thread count in their last bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import threading
from operator import itemgetter

import numpy as np

from .errors import DimensionMismatch, InvalidValue, NormEstimationError


def _freeze(a):
    a.setflags(write=False)
    return a


def _openblas_thread_calls():
    """numpy's bundled OpenBLAS (get, set) thread-count functions, found
    through the handle of numpy's extension module, which links it; None
    where numpy links another BLAS or exports neither."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


class _OneBlasThread(contextlib.ContextDecorator):
    """Context manager and decorator: its body runs with the BLAS at one
    thread, and the count read on the outermost entry is restored when the
    last body leaves. Entries nest and may overlap across threads; the count
    is process-wide, so BLAS calls in other threads meanwhile run at one
    thread too. Without the thread calls (`calls` None) it does nothing."""

    def __init__(self, calls):
        self.calls = calls
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None

    def __enter__(self):
        if self.calls is not None:
            get, set_ = self.calls
            with self._lock:
                if not self._depth:
                    self._saved = get()
                    set_(1)
                self._depth += 1

    def __exit__(self, *exc):
        if self.calls is not None:
            with self._lock:
                self._depth -= 1
                if not self._depth:
                    self.calls[1](self._saved)


one_blas_thread = _OneBlasThread(_openblas_thread_calls())


def _offsets(dims):
    """Start of each block in the stacked vector, then the total length."""
    return np.concatenate(([0], np.cumsum(dims, dtype=np.int64)))


def block_views(dims):
    """A function from a flat array in the layout of the block lengths dims
    to the tuple of its block views."""
    if len(dims) < 2:
        return lambda x: (x,) * len(dims)
    off = _offsets(dims).tolist()
    return itemgetter(*map(slice, off[:-1], off[1:]))


def block_dot(xs, ys):
    """The dots of the paired block arrays of xs and ys, added in block order
    from 0 as sum() would."""
    acc = 0
    for a, b in zip(xs, ys):
        acc += np.dot(a, b)
    return acc


class BlockVector:
    """Element of a product of Euclidean spaces: one read-only flat float64
    array `flat`, the blocks of lengths `dims` stacked in order, and `blocks`,
    its views. The constructor copies its arrays into `flat` with one
    concatenate, `from_flat` copies its array, arithmetic makes one array.
    """

    __slots__ = ("flat", "dims", "blocks")

    def __init__(self, blocks):
        arrays = [np.asarray(b, dtype=np.float64).reshape(-1) for b in blocks]
        self._hold(np.concatenate(arrays) if arrays else np.zeros(0), tuple(map(len, arrays)))

    def _hold(self, flat, dims):
        """Take the fresh flat array flat, in the layout of dims, without a copy."""
        self.flat, self.dims, self.blocks = _freeze(flat), dims, block_views(dims)(flat)
        return self

    @classmethod
    def _of(cls, flat, dims):
        return cls.__new__(cls)._hold(flat, dims)

    @classmethod
    def zeros(cls, dims):
        return cls.from_flat(np.zeros(sum(dims)), dims)

    @property
    def nblocks(self):
        return len(self.dims)

    def _check_same(self, other):
        if self.dims != other.dims:
            if len(self.dims) != len(other.dims):
                raise DimensionMismatch(
                    f"block count mismatch: {len(self.dims)} vs {len(other.dims)}"
                )
            i = next(i for i, (a, b) in enumerate(zip(self.dims, other.dims)) if a != b)
            raise DimensionMismatch(
                f"block {i}: length {self.dims[i]} vs {other.dims[i]}"
            )

    def __add__(self, other):
        self._check_same(other)
        return BlockVector._of(self.flat + other.flat, self.dims)

    def __sub__(self, other):
        self._check_same(other)
        return BlockVector._of(self.flat - other.flat, self.dims)

    def __rmul__(self, c):
        return BlockVector._of(float(c) * self.flat, self.dims)

    # __neg__, axpy, Preconditioner.apply_inverse and Preconditioner.apply_sqrt
    # have no caller in the package: they stay only as patch points that
    # perfbench/tracer.py wraps by name, until ROADMAP item 4 replaces its list.
    def __neg__(self):
        return BlockVector._of(-self.flat, self.dims)

    def axpy(self, c, other):
        """self + c * other, in one pass."""
        self._check_same(other)
        return BlockVector._of(self.flat + float(c) * other.flat, self.dims)

    def dot(self, other):
        self._check_same(other)
        return float(block_dot(self.blocks, other.blocks))

    def norm(self):
        return math.sqrt(block_dot(self.blocks, self.blocks))

    def concatenated(self):
        """All blocks stacked into one flat array: `flat` itself, read-only,
        not a copy."""
        return self.flat

    @classmethod
    def from_flat(cls, flat, dims):
        """The vector of a copy of the flat array flat, in the layout of dims."""
        flat, dims = np.array(flat, dtype=np.float64).reshape(-1), tuple(map(int, dims))
        if flat.shape[0] != sum(dims):
            raise DimensionMismatch(f"flat length {flat.shape[0]} != sum of dims {sum(dims)}")
        return cls._of(flat, dims)


def block_concat(primal, dual):
    """Stack two block vectors; `block_split` is its exact inverse."""
    return BlockVector._of(np.concatenate((primal.flat, dual.flat)), primal.dims + dual.dims)


def block_split(x, n_first):
    """Split a stacked vector back into its first `n_first` blocks and the rest."""
    if not 0 <= n_first <= x.nblocks:
        raise DimensionMismatch(
            f"cannot split {x.nblocks} blocks at position {n_first}"
        )
    k = sum(x.dims[:n_first])
    return (BlockVector.from_flat(x.flat[:k], x.dims[:n_first]),
            BlockVector.from_flat(x.flat[k:], x.dims[n_first:]))


class Preconditioner:
    """Self-adjoint strongly positive operator on a block space.

    Restricted to diagonal forms, which keep apply, apply_inverse and
    apply_sqrt exact and O(n): one read-only flat diagonal `diag`, checked
    here, whose views are `diag_blocks()`. `factor` is the diagonal that
    multiplies a flat array, or None when every entry is 1.0, since 1.0 * x
    is x bit for bit; the products then return their input.
    """

    __slots__ = ("dims", "diag", "factor", "_diag")

    def __init__(self, dims, diag_blocks):
        self.dims = tuple(int(d) for d in dims)
        v = BlockVector(diag_blocks)
        if v.dims != self.dims:
            raise DimensionMismatch(f"weight lengths {v.dims} != block dims {self.dims}")
        diag = v.flat
        low, top = (diag.min(), diag.max()) if diag.size else (1.0, 1.0)
        if not low > 0:
            raise InvalidValue(f"preconditioner entries must be positive; min = {low}")
        if not top < np.inf:
            raise InvalidValue("preconditioner entries must be finite; max = inf")
        self.diag, self._diag = diag, v.blocks
        self.factor = None if low == top == 1.0 else diag

    @classmethod
    def identity(cls, dims):
        return cls(dims, [np.ones(int(d)) for d in dims])

    @classmethod
    def scalar(cls, factors, dims):
        """One positive factor per block."""
        factors = [float(c) for c in factors]
        if len(factors) != len(dims):
            raise DimensionMismatch(
                f"{len(factors)} scalar factors for {len(dims)} blocks"
            )
        return cls(dims, [c * np.ones(int(d)) for c, d in zip(factors, dims)])

    @classmethod
    def diagonal(cls, weights):
        weights = [np.asarray(w, dtype=np.float64).reshape(-1) for w in weights]
        return cls([w.shape[0] for w in weights], weights)

    def diag_blocks(self):
        return self._diag

    def _check(self, x):
        if x.dims != self.dims:
            raise DimensionMismatch(
                f"vector dims {x.dims} incompatible with preconditioner dims {self.dims}"
            )

    def apply(self, x):
        self._check(x)
        if self.factor is None:
            return x
        return BlockVector._of(self.factor * x.flat, self.dims)

    def apply_inverse(self, x):
        self._check(x)
        if self.factor is None:
            return x
        return BlockVector._of(x.flat / self.factor, self.dims)

    def apply_sqrt(self, x):
        self._check(x)
        if self.factor is None:
            return x
        return BlockVector._of(np.sqrt(self.factor) * x.flat, self.dims)


def _terms(cells, transpose):
    """The products of one output block, compiled: (input index, cell) per
    cell that is not None, in order, a dense cell as its matrix (its transpose
    when transpose), a number s as the float s, and s = 1 as None."""
    out = []
    for i, cell in enumerate(cells):
        if cell is None:
            continue
        if cell.ndim:
            out.append((i, cell.T if transpose else cell))
        else:
            out.append((i, None if cell == 1.0 else float(cell)))
    return tuple(out)


def _products(terms, xs, acc):
    """The sum of the products of the compiled terms with the arrays xs,
    written into acc, which is returned; with no term, zeros.

    A number s times x equals the dense product with s I bit for bit for
    finite x, and x itself stands for s = 1. The first product is written
    plus +0.0: v + 0.0 equals 0 + v bit for bit, a -0.0 entry turning into
    +0.0 in both, so the sum matches zeros(d) followed by `+=` without the
    zero fill. Later products are added in place.
    """
    if not terms:
        acc.fill(0.0)
    for n, (i, m) in enumerate(terms):
        x = xs[i]
        prod = x if m is None else m * x if type(m) is float else m @ x
        if n:
            acc += prod
        else:
            np.add(prod, 0.0, out=acc)
    return acc


def _apply(block_terms, dims, xs, out):
    """The products of each output block's terms with xs, written into the
    block arrays out (fresh ones of lengths dims when None), which are returned."""
    if out is None:
        out = [np.empty(d) for d in dims]
    for terms, acc in zip(block_terms, out):
        _products(terms, xs, acc)
    return out


class BlockLinearOperator:
    """Block matrix L mapping a primal block space into a dual one.

    entries[k][i] maps primal block i into dual block k. A cell is a dense
    matrix, None (a structural zero, skipped) or a number s, which means
    s times the identity and is allowed on square blocks only. A number is
    stored as a read-only 0-d float64 array and is never expanded: products
    add s x, and `estimate_weighted_norm` adds its diagonal to the Gram
    matrix.

    `apply_blocks` and `adjoint_apply_blocks` work on bare block arrays and
    check nothing, each product compiled once, here, to the terms of its
    output blocks (`_terms`); `apply` and `adjoint_apply` check the vector's
    dims and wrap their result.
    """

    __slots__ = ("entries", "dims_in", "dims_out", "_rows", "_cols")

    def __init__(self, entries, dims_in, dims_out):
        self.dims_in = tuple(int(d) for d in dims_in)
        self.dims_out = tuple(int(d) for d in dims_out)
        if len(entries) != len(self.dims_out):
            raise DimensionMismatch(
                f"{len(entries)} block rows for {len(self.dims_out)} dual blocks"
            )
        rows = []
        for k, row in enumerate(entries):
            if len(row) != len(self.dims_in):
                raise DimensionMismatch(
                    f"row {k}: {len(row)} block columns for {len(self.dims_in)} primal blocks"
                )
            cells = []
            for i, cell in enumerate(row):
                if cell is None:
                    cells.append(None)
                    continue
                m = np.asarray(cell, dtype=np.float64)
                shape = (self.dims_out[k], self.dims_in[i])
                if m.ndim == 0:
                    if shape[0] != shape[1]:
                        raise DimensionMismatch(
                            f"entry ({k},{i}): a scalar cell needs a square block, "
                            f"got {shape}"
                        )
                elif m.shape != shape:
                    raise DimensionMismatch(
                        f"entry ({k},{i}): shape {m.shape}, expected {shape}"
                    )
                cells.append(_freeze(m.copy()))
            rows.append(tuple(cells))
        self.entries = tuple(rows)
        self._rows = tuple(_terms(row, False) for row in rows)
        self._cols = tuple(_terms([row[i] for row in rows], True)
                           for i in range(len(self.dims_in)))

    @classmethod
    def zero(cls, dims_in, dims_out):
        return cls([[None] * len(dims_in) for _ in dims_out], dims_in, dims_out)

    def apply_blocks(self, xs, out=None):
        """L x from the primal block arrays xs, written into the dual block
        arrays out (fresh ones when None), which are returned."""
        return _apply(self._rows, self.dims_out, xs, out)

    def adjoint_apply_blocks(self, vs, out=None):
        """L* v from the dual block arrays vs, written into the primal block
        arrays out (fresh ones when None), which are returned."""
        return _apply(self._cols, self.dims_in, vs, out)

    def apply(self, x):
        if x.dims != self.dims_in:
            raise DimensionMismatch(
                f"vector dims {x.dims} incompatible with operator input dims {self.dims_in}"
            )
        return BlockVector(self.apply_blocks(x.blocks))

    def adjoint_apply(self, v):
        if v.dims != self.dims_out:
            raise DimensionMismatch(
                f"vector dims {v.dims} incompatible with operator output dims {self.dims_out}"
            )
        return BlockVector(self.adjoint_apply_blocks(v.blocks))

    def is_zero(self):
        return all(cell is None for row in self.entries for cell in row)


def _weighted(cell, sw, sv):
    """sw * cell * sv, for the square roots sw and sv of the metric diagonals
    on the cell's rows and columns. A scalar cell s gives the 1-D array
    (sw * s) * sv of its diagonal: the values the dense s I would hold there,
    computed in the same order.
    """
    if not cell.ndim:
        return (sw * cell) * sv
    return sw[:, None] * cell * sv


def _weighted_blocks(L, V, W, tall):
    """The block rows of G = sqrt(W) L sqrt(V) when G is tall (Gram G^T G),
    otherwise its block columns, transposed (Gram G G^T), one at a time.

    Each is a list over the blocks of the Gram side, and the sum of
    ga.T @ gb over them is block (a, b) of the Gram matrix. None cells stay
    None; a scalar cell is the 1-D array of its diagonal (`_weighted`).
    """
    sv, sw = (block_views(m.dims)(np.sqrt(m.diag)) for m in (V, W))
    if tall:
        for k, row in enumerate(L.entries):
            yield [None if c is None else _weighted(c, sw[k], sv[i]) for i, c in enumerate(row)]
    else:
        for i in range(len(L.dims_in)):
            yield [None if row[i] is None else _weighted(row[i], sw[k], sv[i]).T
                   for k, row in enumerate(L.entries)]


def _add_gram_product(block, ga, gb):
    """block += ga.T @ gb, a 1-D ga or gb being the diagonal of a scalar cell.

    The dense s I has one nonzero per row, so each entry of its product is
    one float product plus exact zeros: a row scaling against a dense block,
    and a diagonal against another scalar cell's. Those products are added
    directly, which gives the gemm's bits.
    """
    if ga.ndim == gb.ndim == 2:
        block += ga.T @ gb
    elif gb.ndim == 2:
        block += ga[:, None] * gb
    elif ga.ndim == 2:
        block += (ga * gb[:, None]).T
    else:
        j = np.arange(len(ga))
        block[j, j] += ga * gb


@one_blas_thread
def estimate_weighted_norm(L, V, W):
    """Operator norm of sqrt(W) L sqrt(V), from one dense eigensolve.

    Accumulates the smaller Gram matrix of G = sqrt(W) L sqrt(V) block by
    block (G^T G when G has no more columns than rows, G G^T otherwise) and
    returns the square root of its largest eigenvalue, adding one weighted
    block row (or column) of G at a time. A scalar cell adds its products to
    the Gram matrix as a diagonal or a row or column scaling, at the point of
    the accumulation where its dense s I would be added.
    Raises NormEstimationError when that matrix is not finite or the
    eigensolve fails. Runs at one BLAS thread (`one_blas_thread`).
    """
    if L.dims_in != V.dims:
        raise DimensionMismatch(f"V dims {V.dims} != operator input dims {L.dims_in}")
    if L.dims_out != W.dims:
        raise DimensionMismatch(f"W dims {W.dims} != operator output dims {L.dims_out}")
    if sum(L.dims_in) == 0 or sum(L.dims_out) == 0 or L.is_zero():
        return 0.0
    tall = sum(L.dims_in) <= sum(L.dims_out)
    off = _offsets(L.dims_in if tall else L.dims_out)
    gram = np.zeros((off[-1], off[-1]))
    # an overflow shows as a non-finite entry, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for g in _weighted_blocks(L, V, W, tall):
            # upper block triangle only; eigvalsh below reads that triangle
            for a, ga in enumerate(g):
                if ga is None:
                    continue
                for b in range(a, len(g)):
                    if g[b] is not None:
                        _add_gram_product(gram[off[a]:off[a + 1], off[b]:off[b + 1]],
                                          ga, g[b])
    if not np.isfinite(gram).all():
        raise NormEstimationError(
            "weighted coupling norm: the Gram matrix of sqrt(W) L sqrt(V) "
            "has non-finite entries"
        )
    try:
        lam = np.linalg.eigvalsh(gram, UPLO="U")[-1]
    except np.linalg.LinAlgError as e:
        raise NormEstimationError(f"weighted coupling norm: eigensolve failed: {e}") from e
    return float(np.sqrt(max(lam, 0.0)))
