"""Block product-space vectors and the diagonal linear-algebra substrate.

`BlockVector` values are immutable: a vector owns read-only numpy arrays and
an operator read-only matrices, so one object always holds one value and all
of it is safe to share across concurrent replica runs. The helpers on bare
block arrays may reuse arrays that their caller owns: `apply_blocks` with
overwrite writes into its argument, the identity's `apply_blocks` and `apply`
return their input, and `_add_product` accumulates in place.
Weighted norms of block couplings come from one dense eigensolve of a Gram
matrix, so they are exact to rounding and deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DimensionMismatch, NormEstimationError


def _freeze(a):
    a.setflags(write=False)
    return a


def _offsets(dims):
    """Start of each block in the stacked vector, then the total length."""
    return np.concatenate(([0], np.cumsum(dims, dtype=np.int64)))


class BlockVector:
    """Element of a product of Euclidean spaces, one dense 1-D array per block.

    `dims` (the block lengths) is fixed at construction. The arrays are
    read-only and never mutated, so one object always holds one value.
    """

    __slots__ = ("blocks", "dims")

    def __init__(self, blocks):
        self.blocks = tuple(
            _freeze(np.asarray(b, dtype=np.float64).reshape(-1).copy()) for b in blocks
        )
        self.dims = tuple(b.shape[0] for b in self.blocks)

    @classmethod
    def _wrap(cls, arrays, dims=None):
        # Internal fast path: takes ownership of freshly computed (or already
        # immutable) float64 arrays without copying. `dims`, when given, must
        # be their lengths (an operand's dims, for elementwise results).
        for a in arrays:
            a.setflags(write=False)
        v = object.__new__(cls)
        v.blocks = tuple(arrays)
        v.dims = tuple(map(len, arrays)) if dims is None else dims
        return v

    @classmethod
    def zeros(cls, dims):
        return cls._wrap([np.zeros(int(d)) for d in dims])

    @property
    def nblocks(self):
        return len(self.blocks)

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
        return BlockVector._wrap([a + b for a, b in zip(self.blocks, other.blocks)],
                                 self.dims)

    def __sub__(self, other):
        self._check_same(other)
        return BlockVector._wrap([a - b for a, b in zip(self.blocks, other.blocks)],
                                 self.dims)

    def __rmul__(self, c):
        c = float(c)
        return BlockVector._wrap([c * a for a in self.blocks], self.dims)

    # __neg__, axpy, Preconditioner.apply_inverse and Preconditioner.apply_sqrt
    # have no caller in the package: they stay only as patch points that
    # perfbench/tracer.py wraps by name, until ROADMAP item 9 replaces its list.
    def __neg__(self):
        return BlockVector._wrap([-a for a in self.blocks], self.dims)

    def axpy(self, c, other):
        """self + c * other, in one pass."""
        self._check_same(other)
        c = float(c)
        return BlockVector._wrap(
            [a + c * b for a, b in zip(self.blocks, other.blocks)], self.dims
        )

    def axpy_diff(self, c, a, b):
        """self + c * (a - b), in one pass, bit for bit as self.axpy(c, a - b)."""
        self._check_same(a)
        a._check_same(b)
        c = float(c)
        return BlockVector._wrap(
            [x + c * (y - z) for x, y, z in zip(self.blocks, a.blocks, b.blocks)], self.dims
        )

    # dot, norm and distance add the per-block products in block order,
    # starting from 0, as sum() would

    def dot(self, other):
        self._check_same(other)
        acc = 0
        for a, b in zip(self.blocks, other.blocks):
            acc += np.dot(a, b)
        return float(acc)

    def norm(self):
        acc = 0
        for a in self.blocks:
            acc += np.dot(a, a)
        return math.sqrt(acc)

    def distance(self, other):
        """(self - other).norm(), bit for bit, without building the difference."""
        self._check_same(other)
        acc = 0
        for a, b in zip(self.blocks, other.blocks):
            d = a - b
            acc += np.dot(d, d)
        return math.sqrt(acc)

    def concatenated(self):
        """All blocks stacked into one flat array (a copy)."""
        if not self.blocks:
            return np.zeros(0)
        return np.concatenate(self.blocks)

    @classmethod
    def from_flat(cls, flat, dims):
        flat = np.asarray(flat, dtype=np.float64).reshape(-1)
        if flat.shape[0] != sum(dims):
            raise DimensionMismatch(
                f"flat length {flat.shape[0]} != sum of dims {sum(dims)}"
            )
        out, pos = [], 0
        for d in dims:
            out.append(flat[pos : pos + d].copy())
            pos += d
        return cls._wrap(out)

    def __repr__(self):
        return f"BlockVector(dims={self.dims})"


def block_concat(primal, dual):
    """Stack two block vectors; `block_split` is its exact inverse."""
    return BlockVector._wrap(list(primal.blocks) + list(dual.blocks),
                             primal.dims + dual.dims)


def block_split(x, n_first):
    """Split a stacked vector back into its first `n_first` blocks and the rest."""
    if not 0 <= n_first <= x.nblocks:
        raise DimensionMismatch(
            f"cannot split {x.nblocks} blocks at position {n_first}"
        )
    return (
        BlockVector._wrap(list(x.blocks[:n_first]), x.dims[:n_first]),
        BlockVector._wrap(list(x.blocks[n_first:]), x.dims[n_first:]),
    )


class Preconditioner:
    """Self-adjoint strongly positive operator on a block space.

    Restricted to scalar-per-block and diagonal forms, which keep apply,
    apply_inverse and apply_sqrt exact and O(n).
    """

    __slots__ = ("kind", "dims", "_diag")

    def __init__(self, kind, dims, diag_blocks):
        self.kind = kind
        self.dims = tuple(int(d) for d in dims)
        diag = []
        for d, w in zip(self.dims, diag_blocks):
            a = np.asarray(w, dtype=np.float64).reshape(-1)
            if a.shape[0] != d:
                raise DimensionMismatch(
                    f"diagonal block length {a.shape[0]} != dim {d}"
                )
            diag.append(_freeze(a.copy()))
        self._diag = tuple(diag)
        entries = np.concatenate(self._diag) if self.dims and sum(self.dims) else np.zeros(0)
        if entries.size and not entries.min() > 0:
            raise ConfigurationError(
                f"preconditioner entries must be positive; min = {entries.min()}"
            )

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
        return BlockVector._wrap(self.apply_blocks(x.blocks), x.dims)

    def apply_inverse(self, x):
        self._check(x)
        if self.kind == "identity":
            return x
        return BlockVector._wrap([b / w for w, b in zip(self._diag, x.blocks)], x.dims)

    def apply_sqrt(self, x):
        self._check(x)
        if self.kind == "identity":
            return x
        return BlockVector._wrap(
            [np.sqrt(w) * b for w, b in zip(self._diag, x.blocks)], x.dims
        )

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
        return BlockVector._wrap(self.apply_blocks(x.blocks), self.dims_out)

    def adjoint_apply(self, v):
        if v.dims != self.dims_out:
            raise DimensionMismatch(
                f"vector dims {v.dims} incompatible with operator output dims {self.dims_out}"
            )
        return BlockVector._wrap(self.adjoint_apply_blocks(v.blocks), self.dims_in)

    def is_zero(self):
        return all(cell is None for row in self.entries for cell in row)

    def __repr__(self):
        return f"BlockLinearOperator({self.dims_in} -> {self.dims_out})"


# Rows of G = sqrt(W) L sqrt(V) weighted at a time while its Gram matrix is
# accumulated; bounds the weighted copy to this many rows of one block strip.
_GRAM_CHUNK = 64


def _strip(cell, sw, sv, r, columns):
    """Rows r to r + _GRAM_CHUNK of the weighted cell sw * cell * sv.

    sw and sv are the square roots of the metric diagonals on the cell's rows
    and columns. With `columns` the strip is of the cell's columns instead,
    transposed. A scalar cell s comes back as the 1-D array of the strip's
    nonzero entries (sw * s) * sv, the one of row j in column r + j: the
    values the dense strip of s I would hold there, computed in the same
    order.
    """
    chunk = slice(r, r + _GRAM_CHUNK)
    if not cell.ndim:
        return (sw[chunk] * cell) * sv[chunk]
    if columns:
        return (sw[:, None] * cell[:, chunk] * sv[chunk]).T
    return sw[chunk, None] * cell[chunk] * sv


def _weighted_strips(L, V, W, tall):
    """The rows of G = sqrt(W) L sqrt(V) feeding its smaller Gram matrix.

    Yields (r, strip) for strips of at most _GRAM_CHUNK rows starting at row
    r of a block, each strip a list over the blocks of the Gram side: slices
    of the block rows of G when G is tall (Gram G^T G), otherwise slices of
    its block columns, transposed (Gram G G^T). The sum of ga.T @ gb over the
    strips is block (a, b) of the Gram matrix. None cells stay None; a scalar
    cell is the 1-D array of its strip's diagonal (`_strip`).
    """
    sv = [np.sqrt(d) for d in V.diag_blocks()]
    sw = [np.sqrt(d) for d in W.diag_blocks()]
    if tall:
        for k, row in enumerate(L.entries):
            for r in range(0, L.dims_out[k], _GRAM_CHUNK):
                yield r, [None if c is None else _strip(c, sw[k], sv[i], r, False)
                          for i, c in enumerate(row)]
    else:
        for i in range(len(L.dims_in)):
            for r in range(0, L.dims_in[i], _GRAM_CHUNK):
                yield r, [None if row[i] is None else _strip(row[i], sw[k], sv[i], r, True)
                          for k, row in enumerate(L.entries)]


def _add_gram_product(block, r, ga, gb):
    """block += ga.T @ gb for one strip, a 1-D ga or gb being a diagonal at column r.

    The dense strip of a scalar cell has one nonzero per row, so each entry of
    its product is one float product plus exact zeros: a row scaling against
    a dense strip, and a diagonal against another scalar cell's. Those
    products are added directly, which gives the gemm's bits.
    """
    if ga.ndim == gb.ndim == 2:
        block += ga.T @ gb
    elif gb.ndim == 2:
        block[r:r + len(ga)] += ga[:, None] * gb
    elif ga.ndim == 2:
        block[:, r:r + len(gb)] += (ga * gb[:, None]).T
    else:
        j = np.arange(r, r + len(ga))
        block[j, j] += ga * gb


def estimate_weighted_norm(L, V, W):
    """Operator norm of sqrt(W) L sqrt(V), from one dense eigensolve.

    Accumulates the smaller Gram matrix of G = sqrt(W) L sqrt(V) block by
    block (G^T G when G has no more columns than rows, G G^T otherwise) and
    returns the square root of its largest eigenvalue. A scalar cell adds its
    products to the Gram matrix as a diagonal or a row or column scaling, at
    the point of the accumulation where its dense strips would be added.
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
        for r, strip in _weighted_strips(L, V, W, tall):
            # upper block triangle only; eigvalsh below reads that triangle
            for a, ga in enumerate(strip):
                if ga is None:
                    continue
                for b in range(a, len(strip)):
                    if strip[b] is not None:
                        _add_gram_product(gram[off[a]:off[a + 1], off[b]:off[b + 1]],
                                          r, ga, strip[b])
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
