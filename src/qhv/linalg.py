"""Dense exact linear algebra over a field object (int-coded entries).

`SpanBuilder` is the one Gaussian elimination: ranks, spans and inverses
all go through it.
"""

from __future__ import annotations

import numpy as np


class SpanBuilder:
    """Incremental RREF over a stream of rows; tracks the span's dimension."""

    def __init__(self, F, ncols: int):
        self.F = F
        self.ncols = ncols
        self.basis: list[list[int]] = []   # rows in RREF, ascending pivot
        self.pivots: list[int] = []

    def add(self, row) -> bool:
        """Reduce row against the basis; extend it if independent."""
        F = self.F
        row = list(row)
        for b, p in zip(self.basis, self.pivots):
            if row[p] != 0:
                f = row[p]
                row = [F.sub(x, F.mul(f, y)) for x, y in zip(row, b)]
        piv = next((c for c, x in enumerate(row) if x != 0), None)
        if piv is None:
            return False
        inv = F.inv(row[piv])
        row = [F.mul(inv, x) for x in row]
        for i, (b, p) in enumerate(zip(self.basis, self.pivots)):
            if b[piv] != 0:
                f = b[piv]
                self.basis[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(b, row)]
        k = next((i for i, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.basis.insert(k, row)
        self.pivots.insert(k, piv)
        return True

    @property
    def rank(self) -> int:
        return len(self.basis)


def row_space(F, matrix: np.ndarray) -> SpanBuilder:
    """RREF basis of the span of every row of an int-coded matrix.

    Each new basis vector is the first row whose residual is nonzero; it
    enters through `SpanBuilder.add`, and all remaining residuals are reduced
    against it at its pivot in one step with the field's numpy tables.  Rows
    whose residual vanishes are proved to lie in the span and are dropped, so
    the loop runs once per basis vector and no row goes unchecked.
    """
    # codes stay below DENSE_TABLE_LIMIT, so int16 holds every residual
    add, mul, neg = (t.astype(np.int16) for t in
                     (F.np_add_table(), F.np_mul_table(), F.np_neg_table()))
    builder = SpanBuilder(F, matrix.shape[1])
    residual = matrix[matrix.any(axis=1)].astype(np.int16)
    while len(residual):
        head = residual[0]
        piv = int(np.flatnonzero(head)[0])
        builder.add([int(x) for x in head])
        row = np.asarray(builder.basis[builder.pivots.index(piv)])
        residual = add[residual, neg[mul[residual[:, piv, None], row]]]
        residual = residual[residual.any(axis=1)]
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
    return [row[n:] for row in builder.basis]
