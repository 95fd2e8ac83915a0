"""Dense exact linear algebra over a field object (int-coded entries)."""

from __future__ import annotations

import numpy as np


def row_reduce(F, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


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


def det(F, matrix: list[list[int]]) -> int:
    """Determinant by Gaussian elimination with division."""
    m = [list(r) for r in matrix]
    n = len(m)
    d = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = F.neg(d)
        d = F.mul(d, m[c][c])
        inv = F.inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = F.mul(inv, m[i][c])
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[c])]
    return d


def inv_matrix(F, matrix: list[list[int]]) -> list[list[int]]:
    """Inverse of a square matrix; raises ValueError if singular."""
    n = len(matrix)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)]
           for i, r in enumerate(matrix)]
    red, pivots = row_reduce(F, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]
