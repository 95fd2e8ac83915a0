import random
from itertools import permutations

import numpy as np
import pytest

from qhv import linalg
from qhv.fields import field_context


def _permutation_det(F, m):
    """Determinant by the Leibniz expansion over all permutations."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = 1
        for i in range(n):
            term = F.mul(term, m[i][perm[i]])
        total = F.add(total, F.neg(term) if inversions % 2 else term)
    return total


@pytest.mark.parametrize("q,size", [(2, 4), (4, 3), (5, 3), (7, 4)])
def test_independence_matches_permutation_determinant(q, size):
    Fq = field_context(q).Fq
    rng = random.Random(q * size)
    seen = set()
    for _ in range(40):
        m = [[rng.randrange(q) for _ in range(size)] for _ in range(size)]
        span = linalg.SpanBuilder(Fq, size)
        independent = all(span.add(r) for r in m)
        assert independent == (_permutation_det(Fq, m) != 0)
        seen.add(independent)
    assert seen == {True, False}


def test_span_builder_rref_and_dependence():
    Fq = field_context(7).Fq
    sb = linalg.SpanBuilder(Fq, 3)
    assert [sb.add(r) for r in ([1, 2, 3], [2, 4, 6], [0, 1, 1])] == \
        [True, False, True]
    assert sb.rank == 2
    assert sb.basis == [[1, 0, 1], [0, 1, 1]] and sb.pivots == [0, 1]
    assert not sb.add([3, 6, 2])  # = 3*(1,2,3) mod 7, dependent


def test_span_builder_exact_rank():
    Fq = field_context(3).Fq
    rng = random.Random(7)
    for _ in range(20):
        rows = [[rng.randrange(3) for _ in range(4)] for _ in range(6)]
        sb = linalg.SpanBuilder(Fq, 4)
        for r in rows:
            sb.add(r)
        # oracle: size of the full span by closure
        span = {(0, 0, 0, 0)}
        for r in rows:
            new = set()
            for v in span:
                for c in range(3):
                    new.add(tuple(Fq.add(x, Fq.mul(c, y)) for x, y in zip(v, r)))
            span |= new
        assert 3**sb.rank == len(span)


def _matmul(F, a, b):
    return [[_dot(F, row, col) for col in zip(*b)] for row in a]


def _dot(F, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = F.add(acc, F.mul(x, y))
    return acc


def test_inv_matrix():
    Fq = field_context(7).Fq
    m = [[1, 2], [3, 4]]
    assert _matmul(Fq, m, linalg.inv_matrix(Fq, m)) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        linalg.inv_matrix(Fq, [[1, 2], [2, 4]])


@pytest.mark.parametrize("q", [4, 5, 8])
def test_inv_matrix_agrees_with_permutation_determinant(q):
    Fq = field_context(q).Fq
    rng = random.Random(q)
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    seen = set()
    for _ in range(30):
        m = [[rng.randrange(q) for _ in range(4)] for _ in range(4)]
        singular = _permutation_det(Fq, m) == 0
        if singular:
            with pytest.raises(ValueError):
                linalg.inv_matrix(Fq, m)
        else:
            inv = linalg.inv_matrix(Fq, m)
            assert _matmul(Fq, m, inv) == _matmul(Fq, inv, m) == identity
        seen.add(singular)
    assert seen == {True, False}


def _feed(F, rows, ncols):
    sb = linalg.SpanBuilder(F, ncols)
    for r in rows:
        sb.add([int(x) for x in r])
    return sb


def _combos(F, coeffs, basis):
    """coeffs @ basis over F, with the field's numpy tables."""
    add, mul = F.np_add_table(), F.np_mul_table()
    out = np.zeros((len(coeffs), basis.shape[1]), dtype=np.int64)
    for k in range(len(basis)):
        out = add[out, mul[coeffs[:, k, None], basis[k]]]
    return out


def _matrix(F, kind, rng):
    q = F.order
    if kind == "full":
        return rng.integers(0, q, (40, 6))
    if kind == "zero":
        return np.zeros((12, 6), dtype=np.int64)
    low = _combos(F, rng.integers(0, q, (40, 3)), rng.integers(0, q, (3, 6)))
    if kind == "deficient":
        return low
    return rng.permutation(np.concatenate([low, low[:25], low[:5]]))


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9])
@pytest.mark.parametrize("kind", ["full", "deficient", "duplicated", "zero"])
def test_row_space_matches_row_by_row_feed(q, kind):
    F = field_context(q).Fq
    m = _matrix(F, kind, np.random.default_rng(q))
    got = linalg.row_space(F, m)
    ref = _feed(F, m, m.shape[1])
    assert (got.basis, got.pivots, got.rank) == (ref.basis, ref.pivots, ref.rank)
    assert got.rank == {"full": 6, "zero": 0}.get(kind, 3)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9])
@pytest.mark.parametrize("kind", ["full", "deficient", "duplicated", "zero"])
def test_row_space_keys_find_each_row_in_the_listing(q, kind):
    F = field_context(q).Fq
    m = _matrix(F, kind, np.random.default_rng(q))
    got = linalg.row_space(F, m)
    # keys exist whenever the span never outgrew the rows
    assert (got.keys is None) <= (q ** got.rank > len(m))
    if got.keys is None:
        return
    assert np.array_equal(got.keys, linalg.pivot_keys(m, got.pivots, q))
    assert np.array_equal(linalg.span_listing(F, got.matrix())[got.keys], m)


@pytest.mark.parametrize("q", [2, 4, 5, 9])
def test_span_listing_is_every_combination_in_key_order(q):
    F = field_context(q).Fq
    rng = np.random.default_rng(q)
    basis = linalg.row_space(F, rng.integers(0, q, (3, 7))).matrix()
    r = len(basis)
    keys = np.arange(q ** r)
    digits = keys[:, None] // q ** np.arange(r - 1, -1, -1) % q
    listed = linalg.span_listing(F, basis)
    assert listed.dtype == np.int16
    assert np.array_equal(listed, _combos(F, digits, basis))
    pivots = [int(np.flatnonzero(b)[0]) for b in basis]
    assert np.array_equal(linalg.pivot_keys(listed, pivots, q), keys)


def test_row_space_finds_one_row_outside_a_rank_5_span():
    F = field_context(7).Fq
    rng = np.random.default_rng(5)
    basis = rng.integers(0, 7, (5, 8))
    inside = _combos(F, rng.integers(0, 7, (2000, 5)), basis)
    assert linalg.row_space(F, inside).rank == 5
    spanned = _feed(F, basis, 8)
    outside = next(r for r in rng.integers(0, 7, (50, 8))
                   if _feed(F, spanned.basis + [r], 8).rank == 6)
    for at in (0, 1000, len(inside)):
        m = np.insert(inside, at, outside, axis=0)
        got = linalg.row_space(F, m)
        assert got.rank == 6
        assert got.basis == _feed(F, m, 8).basis


@pytest.mark.parametrize("shape", [(200, 4), (50, 1), (1, 6), (300, 9)],
                         ids=["tall", "one_column", "one_row", "wide"])
def test_distinct_rows_matches_unique(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    for levels in (2, 3):
        m = rng.integers(0, levels, shape).astype(np.int16)
        m = np.concatenate([m, m[::3]])  # duplicated rows on top of chance ones
        assert linalg.distinct_rows(m) == len(np.unique(m, axis=0))


def _pair_counts(m) -> dict:
    """Dictionary count of the rows where columns i and j are both 1."""
    counts: dict = {}
    for row in m.tolist():
        ones = [c for c, x in enumerate(row) if x]
        for i in ones:
            for j in ones:
                counts[i, j] = counts.get((i, j), 0) + 1
    return counts


@pytest.mark.parametrize("shape,density", [((40, 7), 0.5), ((0, 5), 0.5),
                                           ((12, 520), 0.1), ((60, 300), 0.0)],
                         ids=["small", "zero_rows", "three_bands", "all_zero"])
def test_gram_matches_dictionary_count(shape, density):
    rng = np.random.default_rng(shape[1])
    m = rng.random(shape) < density
    if shape[0]:
        m[:, ::5] = False  # all-zero columns among the others
    counts = _pair_counts(m)
    G = linalg.gram(m)
    assert G.dtype == np.int64 and G.shape == (shape[1], shape[1])
    assert G.tolist() == [[counts.get((i, j), 0) for j in range(shape[1])]
                          for i in range(shape[1])]


def test_gram_dtype_keeps_counts_exact():
    # float32 holds every integer below 2^24, and 2^24 + 1 is the first it loses
    assert linalg.gram_dtype(0) is np.float32
    assert linalg.gram_dtype(2**24 - 1) is np.float32
    assert linalg.gram_dtype(2**24) is np.float64
    assert int(np.float32(2**24 + 1)) == 2**24
    assert int(np.float64(2**24 + 1)) == 2**24 + 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
@pytest.mark.parametrize("N,r,c", [(200, 3, 4), (50, 1, 5), (50, 4, 1), (0, 3, 2),
                                   (5, 0, 3)],
                         ids=["blocks", "r1", "c1", "zero_rows", "r0"])
def test_linear_image_matches_scalar_dot(q, N, r, c, monkeypatch):
    # a small block makes 200 rows three full blocks and a partial one
    monkeypatch.setattr(linalg, "IMAGE_BLOCK", 64)
    F = field_context(q).Fq
    rng = np.random.default_rng(q * 100 + N + r)
    X = rng.integers(0, q, (N, r)).astype(np.int16)
    M = rng.integers(0, q, (r, c))
    got = linalg.linear_image(F, X, M)
    assert got.shape == (N, c) and got.dtype == np.int16
    assert got.tolist() == [[_dot(F, X[i].tolist(), M[:, j].tolist())
                             for j in range(c)] for i in range(N)]


def test_row_space_sample_missing_a_direction():
    # the sampled rows span 3 dimensions; one row off the sample adds a 4th
    F = field_context(5).Fq
    rng = np.random.default_rng(11)
    low = _combos(F, rng.integers(0, 5, (2000, 3)), rng.integers(0, 5, (3, 7)))
    stride = len(low) // linalg.SPAN_SAMPLE + 1
    assert _feed(F, low[::stride], 7).rank == 3
    spanned = _feed(F, low, 7)
    outside = next(r for r in rng.integers(0, 5, (50, 7))
                   if _feed(F, spanned.basis + [r], 7).rank == 4)
    for at in (1, len(low) // 2 + 1, len(low) - 1):
        m = low.copy()
        m[at] = outside
        assert at % stride  # the sample does not see it
        got = linalg.row_space(F, m)
        ref = _feed(F, m, 7)
        assert (got.basis, got.pivots, got.rank) == (ref.basis, ref.pivots, 4)
