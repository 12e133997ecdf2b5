"""Block product-space vectors and the diagonal linear-algebra substrate.

One block layout: a vector, or a metric's diagonal, is one read-only flat
float64 array, its blocks views of it (`block_views`), and `block_dot` is the
block-ordered inner product behind the vectors' norms and the run's.
`BlockVector` values are immutable: a vector owns a read-only copy of the
arrays it is built from and an operator read-only matrices, so one object
always holds one value, shares no memory with its caller, and is safe to share
across concurrent replica runs. The helpers on bare block arrays may reuse
arrays that their caller owns: `apply_blocks` with overwrite writes into its
argument, the identity's `apply_blocks` and `apply` return their input, and
`_add_product` accumulates in place.
Weighted norms of block couplings come from one dense eigensolve of a Gram
matrix, so they are exact to rounding and deterministic.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from .errors import DimensionMismatch, InvalidValue, NormEstimationError


def _freeze(a):
    a.setflags(write=False)
    return a


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

    def __repr__(self):
        return f"BlockVector(dims={self.dims})"


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

    Restricted to scalar-per-block and diagonal forms, which keep apply,
    apply_inverse and apply_sqrt exact and O(n): one read-only flat diagonal
    `diag`, checked here, whose views are `diag_blocks()`.
    """

    __slots__ = ("kind", "dims", "diag", "_diag")

    def __init__(self, kind, dims, diag_blocks):
        self.kind = kind
        self.dims = tuple(int(d) for d in dims)
        v = BlockVector(diag_blocks)
        if v.dims != self.dims:
            raise DimensionMismatch(f"weight lengths {v.dims} != block dims {self.dims}")
        diag = v.flat
        if diag.size and not diag.min() > 0:
            raise InvalidValue(f"preconditioner entries must be positive; min = {diag.min()}")
        if diag.size and not diag.max() < np.inf:
            raise InvalidValue("preconditioner entries must be finite; max = inf")
        self.diag, self._diag = diag, v.blocks

    @classmethod
    def identity(cls, dims):
        return cls("identity", dims, [np.ones(int(d)) for d in dims])

    @classmethod
    def scalar(cls, factors, dims):
        """One positive factor per block."""
        factors = [float(c) for c in factors]
        if len(factors) != len(dims):
            raise DimensionMismatch(
                f"{len(factors)} scalar factors for {len(dims)} blocks"
            )
        return cls("scalar", dims, [c * np.ones(int(d)) for c, d in zip(factors, dims)])

    @classmethod
    def diagonal(cls, weights):
        weights = [np.asarray(w, dtype=np.float64).reshape(-1) for w in weights]
        return cls("diagonal", [w.shape[0] for w in weights], weights)

    def diag_blocks(self):
        return self._diag

    def _check(self, x):
        if x.dims != self.dims:
            raise DimensionMismatch(
                f"vector dims {x.dims} incompatible with preconditioner dims {self.dims}"
            )

    def apply_blocks(self, blocks, overwrite=False):
        """The action on bare block arrays, unchecked; identity passes them through.

        With overwrite, the products are written into `blocks`, fresh arrays
        that the caller owns, with the operands in the same order.
        """
        if self.kind == "identity":
            return blocks
        if overwrite:
            return [np.multiply(w, b, out=b) for w, b in zip(self._diag, blocks)]
        return [w * b for w, b in zip(self._diag, blocks)]

    def apply(self, x):
        self._check(x)
        if self.kind == "identity":
            return x
        return BlockVector._of(self.diag * x.flat, self.dims)

    def apply_inverse(self, x):
        self._check(x)
        if self.kind == "identity":
            return x
        return BlockVector._of(x.flat / self.diag, self.dims)

    def apply_sqrt(self, x):
        self._check(x)
        if self.kind == "identity":
            return x
        return BlockVector._of(np.sqrt(self.diag) * x.flat, self.dims)

    def __repr__(self):
        return f"Preconditioner(kind={self.kind!r}, dims={self.dims})"


def _add_product(acc, cell, x):
    """acc + cell @ x, where a 0-d cell s stands for s times the identity and
    acc None for the zero accumulator; returns the accumulator.

    For finite x, s * x (and x itself when s = 1) equals the dense product
    with s I bit for bit. The first product becomes the accumulator, fresh,
    plus +0.0 once: v + 0.0 equals 0 + v bit for bit, a -0.0 entry turning
    into +0.0 in both, so the sum matches zeros(d) followed by `+=` without
    the zero fill. Later products are added in place.
    """
    if acc is None:
        if not cell.ndim and cell == 1.0:
            return x + 0.0
        acc = cell @ x if cell.ndim else cell * x
        acc += 0.0
    elif cell.ndim:
        acc += cell @ x
    elif cell == 1.0:
        acc += x
    else:
        acc += cell * x
    return acc


class BlockLinearOperator:
    """Block matrix L mapping a primal block space into a dual one.

    entries[k][i] maps primal block i into dual block k. A cell is a dense
    matrix, None (a structural zero, skipped) or a number s, which means
    s times the identity and is allowed on square blocks only. A number is
    stored as a read-only 0-d float64 array and is never expanded: products
    add s x, and `estimate_weighted_norm` adds its diagonal to the Gram
    matrix.

    `apply_blocks` and `adjoint_apply_blocks` work on bare block arrays and
    check nothing; `apply` and `adjoint_apply` check the vector's dims and
    wrap their result.
    """

    __slots__ = ("entries", "dims_in", "dims_out")

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

    @classmethod
    def zero(cls, dims_in, dims_out):
        return cls([[None] * len(dims_in) for _ in dims_out], dims_in, dims_out)

    def apply_blocks(self, xs):
        """L x from the primal block arrays xs, as a list of fresh dual block arrays."""
        out = []
        for d, row in zip(self.dims_out, self.entries):
            acc = None
            for cell, x in zip(row, xs):
                if cell is not None:
                    acc = _add_product(acc, cell, x)
            out.append(np.zeros(d) if acc is None else acc)
        return out

    def adjoint_apply_blocks(self, vs):
        """L* v from the dual block arrays vs, as a list of fresh primal block arrays."""
        out = [None] * len(self.dims_in)
        for row, v in zip(self.entries, vs):
            for i, cell in enumerate(row):
                if cell is not None:
                    out[i] = _add_product(out[i], cell.T, v)
        return [np.zeros(d) if acc is None else acc for d, acc in zip(self.dims_in, out)]

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

    def __repr__(self):
        return f"BlockLinearOperator({self.dims_in} -> {self.dims_out})"


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


def estimate_weighted_norm(L, V, W):
    """Operator norm of sqrt(W) L sqrt(V), from one dense eigensolve.

    Accumulates the smaller Gram matrix of G = sqrt(W) L sqrt(V) block by
    block (G^T G when G has no more columns than rows, G G^T otherwise) and
    returns the square root of its largest eigenvalue, adding one weighted
    block row (or column) of G at a time. A scalar cell adds its products to
    the Gram matrix as a diagonal or a row or column scaling, at the point of
    the accumulation where its dense s I would be added.
    Raises NormEstimationError when that matrix is not finite or the
    eigensolve fails.
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
