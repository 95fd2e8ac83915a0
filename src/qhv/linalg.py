"""Dense exact linear algebra over a field object (int-coded entries).

`SpanBuilder` is the one Gaussian elimination: ranks, spans and inverses
all go through it.  `row_space` proves every row of a matrix in the span it
finds, against a listing of the span (`span_listing`) while that has no
more vectors than the matrix has rows.  `linear_image` is the one bulk
product X·M: membership in a wider span and Reed-Solomon consistency both
ask whether one column block is a fixed linear image of another.
`gram_blocks` is the one co-occurrence counter: OA strength, mutual
intersections and the W-relative intersections are all blocks of the Gram
matrix of a 0/1 matrix.
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
        # set by ``row_space`` when its listing walk proves every row: row
        # i's pivot key
        self.keys: np.ndarray | None = None

    def add(self, row) -> bool:
        """Reduce row against the basis; extend it if independent.

        Each basis row is 0 at the other pivots, so the coefficient of basis
        row i is the row's own entry at pivot i, read before reducing.
        """
        F = self.F
        add, mul, neg = F.np_add_table(), F.np_mul_table(), F.np_neg_table()
        row = np.asarray(row)
        basis = self.matrix()
        for f, b in zip(row[self.pivots].tolist(), basis):
            row = add[row, neg[mul[f, b]]]
        nonzero = np.flatnonzero(row)
        if not len(nonzero):
            return False
        piv = int(nonzero[0])
        row = mul[F.inv(int(row[piv])), row]
        basis = add[basis, neg[mul[basis[:, piv, None], row]]]
        k = next((i for i, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.basis = basis.tolist()
        self.basis.insert(k, row.tolist())
        self.pivots.insert(k, piv)
        return True

    @property
    def rank(self) -> int:
        return len(self.basis)

    def matrix(self) -> np.ndarray:
        """The basis as a rank x ncols int16 array (field codes fit int16)."""
        return np.array(self.basis, dtype=np.int16).reshape(self.rank, self.ncols)


#: rows per ``linear_image`` block; a block's products are IMAGE_BLOCK x c ints
IMAGE_BLOCK = 4096

#: ``row_space`` draws the basis candidates of a wide span from about this
#: many rows
SPAN_SAMPLE = 512

#: matrix cells in the first block ``_scan`` checks after each new basis vector
SCAN_CELLS = 2**12


def linear_image(F, X, M) -> np.ndarray:
    """X·M over the field, for int-coded X (N x r) and M (r x c), as int16.

    Row k of M turns into the table ``mul[:, M[k]]``, whose row x is x·M[k];
    a block of rows gathers one table row per entry of X and sums the r
    gathered blocks through the flat add table.  Only IMAGE_BLOCK rows are
    in flight at a time, so the temporaries stay a fixed size.  Field codes
    stay below DENSE_TABLE_LIMIT, so int16 holds every entry.
    """
    X, M = np.asarray(X), np.asarray(M, dtype=np.intp)
    q = F.order
    add = F.np_add_table().ravel().astype(np.intp)
    tables = [F.np_mul_table()[:, m].astype(np.intp) for m in M]
    out = np.zeros((len(X), M.shape[1]), dtype=np.int16)
    if not tables:
        return out
    for lo in range(0, len(X), IMAGE_BLOCK):
        block = X[lo:lo + IMAGE_BLOCK]
        acc = tables[0][block[:, 0]]
        for k in range(1, len(tables)):
            acc = add[acc * q + tables[k][block[:, k]]]
        out[lo:lo + IMAGE_BLOCK] = acc
    return out


def _eliminate(builder: SpanBuilder, rows: np.ndarray) -> None:
    """Extend the builder until its span holds every row.

    Residuals start as rows - rows[:, pivots] · basis.  Each new basis vector
    is the first nonzero residual; it enters through `SpanBuilder.add`, and
    all remaining residuals are reduced against it at its pivot in one step
    with the field's numpy tables.  A residual that vanishes proves its row
    lies in the span, so the loop runs once per new basis vector.
    """
    F = builder.F
    # field codes stay below DENSE_TABLE_LIMIT, so int16 holds every residual
    add, mul, neg = (t.astype(np.int16) for t in
                     (F.np_add_table(), F.np_mul_table(), F.np_neg_table()))
    rows = rows[rows.any(axis=1)]
    image = linear_image(F, rows[:, builder.pivots], builder.matrix())
    residual = add[rows, neg[image]]
    residual = residual[residual.any(axis=1)]
    while len(residual):
        head = residual[0]
        piv = int(np.flatnonzero(head)[0])
        builder.add(head)
        row = np.asarray(builder.basis[builder.pivots.index(piv)])
        residual = add[residual, neg[mul[residual[:, piv, None], row]]]
        residual = residual[residual.any(axis=1)]


def span_listing(F, basis: np.ndarray) -> np.ndarray:
    """Every vector of the span of an RREF basis, one row each, int16.

    Row number sum_j c_j q^(r-1-j) is sum_j c_j basis[j].  Basis row j is 1
    at pivot j and 0 at the other pivots, so a listed vector's entries at
    the pivots are the base-q digits of its own row number: its pivot key.
    """
    q, k = F.order, basis.shape[1]
    add = F.np_add_table().ravel().astype(np.int16)
    times = F.np_mul_table().astype(np.int16) * q   # c·b, premultiplied by q
    E = np.zeros((1, k), dtype=np.int16)
    for b in basis:
        E = add.take(np.add(E[:, None, :], times[:, b], order="C"))
        E = E.reshape(-1, k)
    return E


def pivot_keys(rows: np.ndarray, pivots, q: int) -> np.ndarray:
    """Each row's entries at the pivots as one base-q int64 key, the first
    pivot most significant: a span vector's row number in `span_listing`."""
    keys = np.zeros(len(rows), dtype=np.int64)
    for p in pivots:
        keys *= q
        keys += rows[:, p]
    return keys


def _scan(builder: SpanBuilder, matrix: np.ndarray) -> tuple[int, np.ndarray]:
    """Prove rows in order against the listed span while it has at most
    len(matrix) vectors.  Returns how many leading rows are proved and, when
    that is all of them, every row's pivot key.

    A row lies in the span exactly when it equals the listed vector under
    its pivot key.  The first row that does not is a new basis vector: it
    enters through `SpanBuilder.add`, the span is listed again, and the scan
    goes on after it; rows already passed lie in every larger span.  Blocks
    start at SCAN_CELLS cells after each new basis vector and double while
    they pass, so a block cut short by a new vector wastes little.
    """
    F, N, k = builder.F, len(matrix), matrix.shape[1]
    q, first = F.order, max(SCAN_CELLS // max(k, 1), 1)
    keys = np.empty(N, dtype=np.int64)
    pos = changed = 0
    while pos < N and q ** builder.rank <= N:
        E, step = span_listing(F, builder.matrix()), first
        while pos < N:
            block = matrix[pos:pos + step]
            keys[pos:pos + len(block)] = pivot_keys(block, builder.pivots, q)
            listed = np.take(E, keys[pos:pos + len(block)], axis=0)
            outside = (block != listed).any(axis=1)
            if outside.any():
                pos += int(np.argmax(outside))
                builder.add(matrix[pos])
                pos = changed = pos + 1
                break
            pos, step = pos + len(block), 2 * step
    if pos == N:  # keys before the last new basis vector used an older basis
        keys[:changed] = pivot_keys(matrix[:changed], builder.pivots, q)
    return pos, keys


def row_space(F, matrix: np.ndarray) -> SpanBuilder:
    """RREF basis of the span of every row of an int-coded matrix.

    While the span has at most N vectors (N the number of rows), `_scan`
    lists it and proves each row against the listing, picking the basis
    from the rows it meets in order; when it proves every row, the
    builder's ``keys`` hold each row's pivot key.  A wider span (q^rank >
    N) falls back for the rows not yet proved: basis candidates from every
    (n // SPAN_SAMPLE + 1)-th such row (the + 1 keeps a power-of-two n off
    a power-of-two stride), one `linear_image` pass that checks them all,
    and `_eliminate` for the rows it rejects.  Either way every row is
    proved to lie in the span, and the RREF of a span is unique, so the
    basis does not depend on the order in which rows are met.
    """
    matrix = np.asarray(matrix, dtype=np.int16)
    builder = SpanBuilder(F, matrix.shape[1])
    proved, keys = _scan(builder, matrix)
    rest = matrix[proved:]
    if len(rest):
        _eliminate(builder, rest[::len(rest) // SPAN_SAMPLE + 1])
        # a span vector is fixed by its entries at the pivots, so a row lies
        # in the span exactly when it equals rows[:, pivots] · basis
        image = linear_image(F, rest[:, builder.pivots], builder.matrix())
        _eliminate(builder, rest[(image != rest).any(axis=1)])
    else:
        builder.keys = keys
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
    return [row[n:] for row in builder.basis]
