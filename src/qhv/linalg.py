"""Dense exact linear algebra over a field object (int-coded entries).

`SpanBuilder` is the one Gaussian elimination: ranks, spans and inverses
all go through it.  `row_space` proves every row of a matrix in the span it
finds in one ordered walk, each row through `linear_image`, and decides
whether the rows are that whole span, each vector once.  `linear_image`
is the one bulk product X·M: span membership and Reed-Solomon consistency
both ask whether one column block is a fixed linear image of another.
`gram_blocks` is the one co-occurrence counter: OA strength, mutual
intersections and the W-relative intersections are all blocks of the Gram
matrix of a 0/1 matrix.
"""

from __future__ import annotations

import numpy as np


class SpanBuilder:
    """Incremental RREF over a stream of rows; tracks the span's dimension.
    It starts from the rows of ``rref``, an RREF, if given.  ``basis`` is
    the RREF as a rank x ncols int16 array (field codes fit int16)."""

    def __init__(self, F, ncols: int, rref=()):
        self.F = F
        self.ncols = ncols
        self.basis = np.array(rref, dtype=np.int16).reshape(len(rref), ncols)
        self.pivots = [int(np.flatnonzero(row)[0]) for row in self.basis]
        # set by ``row_space``: whether its rows are every span vector once
        self.whole = False

    def add(self, row) -> bool:
        """Reduce row against the basis; extend it if independent.

        Each basis row is 0 at the other pivots, so the coefficient of basis
        row i is the row's own entry at pivot i, read before reducing.
        """
        F = self.F
        add, mul, neg = F.np_add_table(), F.np_mul_table(), F.np_neg_table()
        row = np.asarray(row)
        for f, b in zip(row[self.pivots].tolist(), self.basis):
            row = add[row, neg[mul[f, b]]]
        nonzero = np.flatnonzero(row)
        if not len(nonzero):
            return False
        piv = int(nonzero[0])
        row = mul[F.inv(int(row[piv])), row]
        basis = add[self.basis, neg[mul[self.basis[:, piv, None], row]]]
        k = next((i for i, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.basis = np.insert(basis, k, row, axis=0).astype(np.int16)
        self.pivots.insert(k, piv)
        return True

    @property
    def rank(self) -> int:
        return len(self.basis)


#: cells per ``linear_image`` block: max(IMAGE_CELLS // c, 1) rows of c columns
IMAGE_CELLS = 2**17

#: matrix cells in the first block ``_scan`` checks after each new basis vector
SCAN_CELLS = 2**12


def linear_image(F, X, M) -> np.ndarray:
    """X·M over the field, for int-coded X (N x r) and M (r x c), as int16.

    Row k of M turns into the table ``mul[:, M[k]]``, whose row x is x·M[k];
    a block of rows gathers one table row per entry of X and sums the r
    gathered blocks through the flat add table.  A block holds about
    IMAGE_CELLS cells of the product, however wide c is, so the temporaries
    stay a fixed size.  Field codes stay below DENSE_TABLE_LIMIT, so the
    tables, the flat add index a·q + b and every sum stay int16.  The
    gathers use ``take``, which widens its int16 indices to intp in one
    copy, at most a block's worth here, and is then about twice as fast as
    fancy indexing on int16 indices.
    """
    X, M = np.asarray(X), np.asarray(M, dtype=np.intp)
    q = F.order
    add = F.np_add_table().ravel().astype(np.int16)
    mul = F.np_mul_table().astype(np.int16)
    tables = [mul.take(m, axis=1) for m in M]
    out = np.zeros((len(X), M.shape[1]), dtype=np.int16)
    if not tables:
        return out
    rows = max(IMAGE_CELLS // max(M.shape[1], 1), 1)
    for lo in range(0, len(X), rows):
        block = X[lo:lo + rows]
        acc = tables[0].take(block[:, 0], axis=0)
        for k in range(1, len(tables)):
            acc *= q
            acc += tables[k].take(block[:, k], axis=0)
            acc = add.take(acc)
        out[lo:lo + rows] = acc
    return out


def pivot_keys(rows: np.ndarray, pivots, q: int) -> np.ndarray:
    """Each row's entries at the pivots as one base-q int64 key, the first
    pivot most significant.  Basis row j of an RREF is 1 at pivot j and 0
    at the other pivots, so a span vector's key spells its coordinates in
    the basis: distinct span vectors have distinct keys."""
    keys = np.zeros(len(rows), dtype=np.int64)
    for p in pivots:
        keys *= q
        keys += rows[:, p]
    return keys


def _scan(builder: SpanBuilder, matrix: np.ndarray) -> None:
    """Prove every row in order against the span, extending the builder by
    each row that lies outside it.

    A row lies in the span exactly when it equals the image of its pivot
    entries, its coordinates in the RREF basis, under `linear_image`.  The
    image equals the row at the pivots, so the columns before the first
    free (non-pivot) column, all pivots, are neither imaged nor compared:
    for the extended code's RREF that leaves its 4 free columns of 9, and a
    span of full rank holds every row.  The first row that differs is a new
    basis vector: it enters through `SpanBuilder.add` and the walk goes on
    after it; rows already passed lie in every larger span.  Blocks start
    at SCAN_CELLS cells after each new basis vector and double while they
    pass, so a block cut short by a new vector wastes little; they stop
    doubling at IMAGE_CELLS cells, so no temporary grows with the matrix.
    """
    F, N, k = builder.F, len(matrix), matrix.shape[1]
    first, pos = max(SCAN_CELLS // max(k, 1), 1), 0
    cap = max(IMAGE_CELLS // max(k, 1), first)
    while pos < N:
        lead = next((i for i, p in enumerate(builder.pivots) if p != i),
                    builder.rank)
        basis, step = builder.basis[:, lead:], first
        while pos < N:
            block = matrix[pos:pos + step]
            image = linear_image(F, block[:, builder.pivots], basis)
            # one flat search: a row-wise any() over a few columns is slower
            hits = np.flatnonzero(block[:, lead:] != image)
            if len(hits):
                pos += int(hits[0]) // (k - lead)
                builder.add(matrix[pos])
                pos += 1
                break
            pos, step = pos + len(block), min(2 * step, cap)


def row_space(F, matrix: np.ndarray) -> SpanBuilder:
    """RREF basis of the span of every row of an int-coded matrix.

    `_scan` proves each row in the span, picking the basis from the rows it
    meets in order.  The RREF of a span is unique, so the basis does not
    depend on the order in which rows are met.  A proved row is the span
    vector named by its pivot key alone, so the builder's ``whole`` is set
    when q^rank rows have q^rank distinct pivot keys: the rows are then the
    whole span, each vector once.
    """
    matrix = np.asarray(matrix, dtype=np.int16)
    builder = SpanBuilder(F, matrix.shape[1])
    _scan(builder, matrix)
    size = F.order**builder.rank
    if len(matrix) == size:
        seen = np.zeros(size, dtype=bool)
        seen[pivot_keys(matrix, builder.pivots, F.order)] = True
        builder.whole = bool(seen.all())
    return builder


def distinct_rows(matrix) -> int:
    """Number of distinct rows of a 2-D integer matrix.

    Each row is viewed as one fixed-width byte key, and the sorted keys are
    counted where they change; this avoids ``np.unique(axis=0)``, which
    sorts the rows lexicographically column by column.
    """
    m = np.ascontiguousarray(matrix)
    if m.size == 0:
        return min(len(m), 1)
    keys = np.sort(m.view(np.dtype((np.void, m.itemsize * m.shape[1]))).ravel())
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


#: columns per Gram band; a band's product is GRAM_BLOCK x (columns) floats
GRAM_BLOCK = 256


def gram_dtype(rows: int) -> type:
    """BLAS float type whose sums of ``rows`` 0/1 products are exact.

    A count never exceeds the row count, and float32 holds every integer
    below 2^24 exactly, whatever order BLAS sums in; float64 from there on.
    """
    return np.float32 if rows < 2**24 else np.float64


def gram_blocks(band, ncols: int, width: int):
    """The exact Gram matrix X^T X of a 0/1 matrix, a band of columns at a time.

    ``band(lo, hi)`` returns the columns X[:, lo:hi], so X is never held
    whole.  Yields (lo, G) with G = X[:, lo:lo+width]^T X[:, lo:]: the band's
    rows of the upper block triangle, diagonal block included, as exact
    integer counts in ``gram_dtype``.  Each product takes one pair of bands.
    """
    for lo in range(0, ncols, width):
        left = band(lo, lo + width)
        dtype = gram_dtype(len(left))
        left = np.asarray(left, dtype=dtype)
        G = np.empty((left.shape[1], ncols - lo), dtype=dtype)
        for at in range(lo, ncols, width):
            right = left if at == lo else np.asarray(band(at, at + width), dtype=dtype)
            G[:, at - lo:at - lo + width] = left.T @ right
        yield lo, G


def gram(X) -> np.ndarray:
    """The exact Gram matrix X^T X of a 0/1 matrix, as int64 counts."""
    k = X.shape[1]
    G = np.empty((k, k), dtype=np.int64)
    for lo, rows in gram_blocks(lambda lo, hi: X[:, lo:hi], k, GRAM_BLOCK):
        hi = lo + len(rows)
        G[lo:hi, lo:] = rows
        G[lo:, lo:hi] = rows.T
    return G


def inv_matrix(F, matrix: list[list[int]]) -> list[list[int]]:
    """Inverse of a square matrix; raises ValueError if singular.

    [M | I] always has rank n, and its RREF is [I | M^-1] exactly when the
    pivots are the columns 0..n-1 of M.
    """
    n = len(matrix)
    builder = SpanBuilder(F, 2 * n)
    for i, row in enumerate(matrix):
        builder.add(list(row) + [int(i == j) for j in range(n)])
    if builder.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return builder.basis[:, n:].tolist()
