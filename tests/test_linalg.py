import random

import numpy as np
import pytest

from qhv import linalg
from qhv.fields import field_context


def test_det_matches_permutation_expansion():
    from itertools import permutations

    Fq = field_context(5).Fq
    rng = random.Random(1)
    for _ in range(25):
        m = [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
        expect = 0
        for perm in permutations(range(3)):
            sgn = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    if perm[i] > perm[j]:
                        sgn = -sgn
            term = 1
            for i in range(3):
                term = Fq.mul(term, m[i][perm[i]])
            term = term if sgn == 1 else Fq.neg(term)
            expect = Fq.add(expect, term)
        assert linalg.det(Fq, m) == expect


def test_row_reduce_and_span():
    Fq = field_context(7).Fq
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    red, pivots = linalg.row_reduce(Fq, rows)
    assert len(red) == 2 and pivots == [0, 1]
    sb = linalg.SpanBuilder(Fq, 3)
    for r in rows:
        sb.add(r)
    assert sb.rank == 2
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


def test_inv_matrix():
    import pytest

    Fq = field_context(7).Fq
    m = [[1, 2], [3, 4]]
    inv = linalg.inv_matrix(Fq, m)
    prod = [[0, 0], [0, 0]]
    for i in range(2):
        for j in range(2):
            acc = 0
            for k in range(2):
                acc = Fq.add(acc, Fq.mul(m[i][k], inv[k][j]))
            prod[i][j] = acc
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        linalg.inv_matrix(Fq, [[1, 2], [2, 4]])


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
