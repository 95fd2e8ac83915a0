from itertools import product
from pathlib import Path

import numpy as np
import pytest

from qhv import codes as cod
from qhv import fields
from qhv import geometry as geo
from qhv import oa as oam
from qhv.fields import (
    DENSE_TABLE_LIMIT,
    BudgetExceededError,
    ExtensionField,
    FieldCtx,
    PrimeField,
    absolute_trace,
    field_context,
    is_irreducible,
    prime_power,
    smallest_irreducible,
)

SMALL_Q = [2, 3, 4, 5]
ALL_Q = [2, 3, 4, 5, 7, 8, 9]


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(1_000_000_007) == (1_000_000_007, 1)
    for bad in (0, 1, 6, 12, 100, 10**9):
        with pytest.raises(ValueError):
            prime_power(bad)


# q: (modulus_q, modulus_q2, Fq.generator, Fq2.generator); every export
# records the moduli, so they must never change
GOLDEN_CONTEXTS = {
    2: ((0, 1), (1, 1, 1), 1, 2),
    3: ((0, 1), (1, 0, 1), 2, 4),
    4: ((1, 1, 1), (2, 1, 1), 2, 4),
    5: ((0, 1), (2, 0, 1), 2, 6),
    7: ((0, 1), (1, 0, 1), 3, 9),
    8: ((1, 1, 0, 1), (1, 1, 1), 2, 10),
    9: ((1, 0, 1), (4, 0, 1), 4, 10),
    11: ((0, 1), (1, 0, 1), 2, 15),
    13: ((0, 1), (2, 0, 1), 2, 15),
    16: ((1, 1, 0, 0, 1), (8, 1, 1), 2, 18),
    17: ((0, 1), (3, 0, 1), 3, 19),
    19: ((0, 1), (1, 0, 1), 2, 22),
    23: ((0, 1), (1, 0, 1), 5, 25),
    25: ((2, 0, 1), (5, 0, 1), 6, 26),
    27: ((1, 2, 0, 1), (1, 0, 1), 3, 30),
    29: ((0, 1), (2, 0, 1), 2, 30),
    31: ((0, 1), (1, 0, 1), 3, 35),
    32: ((1, 0, 1, 0, 0, 1), (1, 1, 1), 2, 38),
}


@pytest.mark.parametrize("q", sorted(GOLDEN_CONTEXTS))
def test_golden_moduli_and_generators(q):
    ctx = field_context(q)
    assert (ctx.modulus_q, ctx.modulus_q2, ctx.Fq.generator,
            ctx.Fq2.generator) == GOLDEN_CONTEXTS[q]


# (field order, degree): the number of monic irreducibles by Gauss's formula
# (1/d) sum_{e | d} mu(e) order^(d/e) (Lidl-Niederreiter, Thm 3.25)
GAUSS_COUNTS = {**{(q, 2): (q * q - q) // 2 for q in ALL_Q},
                (2, 3): 2, (2, 4): 3, (2, 5): 6, (3, 3): 8}


@pytest.mark.parametrize("order,degree", sorted(GAUSS_COUNTS))
def test_irreducible_count_matches_gauss(order, degree):
    F = field_context(order).Fq
    monic = ([*c, 1] for c in product(range(order), repeat=degree))
    assert sum(is_irreducible(F, f) for f in monic) == GAUSS_COUNTS[order, degree]


def test_smallest_irreducible_is_minimal():
    # every smaller monic candidate must be reducible
    gp = PrimeField(3)
    m = smallest_irreducible(gp, 2)
    assert m == (1, 0, 1)  # x^2 + 1 over GF(3)
    for code in range(3 * 3):
        f = [code % 3, code // 3, 1]
        if tuple(f) == m:
            break
        assert not is_irreducible(gp, f)


@pytest.mark.parametrize("q", ALL_Q)
def test_frobenius_involution(q):
    ctx = field_context(q)
    for x in range(ctx.q2):
        assert ctx.frob[ctx.frob[x]] == x


@pytest.mark.parametrize("q", ALL_Q)
def test_subfield_is_fixed_field(q):
    ctx = field_context(q)
    for x in range(ctx.q2):
        assert ctx.in_subfield(x) == (ctx.frob[x] == x) == (x < q)


@pytest.mark.parametrize("q", SMALL_Q)
def test_trace_additive_norm_multiplicative_exhaustive(q):
    ctx = field_context(q)
    F = ctx.Fq2
    for x in range(ctx.q2):
        for y in range(ctx.q2):
            assert ctx.trace(F.add(x, y)) == ctx.Fq.add(ctx.trace(x), ctx.trace(y))
            assert ctx.norm(F.mul(x, y)) == ctx.Fq.mul(ctx.norm(x), ctx.norm(y))


@pytest.mark.parametrize("q", [7, 8, 9])
def test_trace_norm_random_samples(q):
    import random

    rng = random.Random(q)
    ctx = field_context(q)
    F = ctx.Fq2
    for _ in range(300):
        x, y = rng.randrange(ctx.q2), rng.randrange(ctx.q2)
        assert ctx.trace(F.add(x, y)) == ctx.Fq.add(ctx.trace(x), ctx.trace(y))
        assert ctx.norm(F.mul(x, y)) == ctx.Fq.mul(ctx.norm(x), ctx.norm(y))


def test_trace_examples():
    ctx = field_context(3)
    assert ctx.trace(0) == 0
    # GF(9) = GF(3)[u]/(u^2+1): epsilon is the class of u; u + u^3 = 0
    assert ctx.modulus_q2 == (1, 0, 1)
    u = ctx.epsilon
    # hand oracle: u^3 = u * u^2 = -u, so trace(u) = u - u = 0
    assert ctx.trace(u) == 0
    assert ctx.trace(1) == 2
    assert field_context(2).trace(1) == 0  # 2x = 0 in characteristic 2


def test_norm_examples():
    ctx = field_context(3)
    assert ctx.norm(0) == 0
    assert ctx.norm(1) == 1
    # u^2 = -1 implies u^4 = 1
    assert ctx.norm(ctx.epsilon) == 1


@pytest.mark.parametrize("q", ALL_Q)
def test_t0(q):
    ctx = field_context(q)
    t0 = set(ctx.t0)
    assert 0 in t0
    assert len(t0) == q
    assert t0 == {x for x in range(ctx.q2) if ctx.trace(x) == 0}
    if q % 2 == 0:
        assert t0 == set(range(q))  # T0 = GF(q) in even characteristic
    # T0 = theta * GF(q)
    assert t0 == {ctx.Fq2.mul(ctx.theta, w) for w in range(q)}


def test_t0_small_examples():
    assert set(field_context(2).t0) == {0, 1}
    ctx = field_context(3)
    e = ctx.epsilon
    assert set(ctx.t0) == {0, e, ctx.Fq2.mul(e, 2)}


def _roots(ctx, d):
    """All Z with Z^q - Z = d: ``as_roots[d]`` without its -1 padding."""
    return set(ctx.as_roots[d].tolist()) - {-1}


@pytest.mark.parametrize("q", SMALL_Q)
def test_artin_schreier_exhaustive(q):
    ctx = field_context(q)
    F = ctx.Fq2
    for d in range(ctx.q2):
        roots = _roots(ctx, d)
        brute = {z for z in range(ctx.q2) if F.sub(ctx.frob[z], z) == d}
        assert roots == brute
        if ctx.trace(d) == 0:
            assert len(roots) == q
            # the root set is an additive coset of GF(q)
            z0 = min(roots)
            assert roots == {F.add(z0, w) for w in range(q)}
        else:
            assert roots == set()


def test_artin_schreier_examples():
    ctx = field_context(3)
    assert _roots(ctx, 0) == set(range(3))
    d = ctx.Fq2.sub(ctx.epsilon, ctx.frob[ctx.epsilon])  # 2*epsilon
    assert d == ctx.Fq2.mul(ctx.epsilon, 2)
    assert len(_roots(ctx, d)) == 3


@pytest.mark.parametrize("q", SMALL_Q + [7, 8, 9])
def test_unique_root_in_transversal(q):
    ctx = field_context(q)
    assert int(ctx.transversal_roots(0)) == 0
    C = set(ctx.transversal)
    for d in ctx.t0:
        r = int(ctx.transversal_roots(d))
        roots = _roots(ctx, d)
        assert r in roots
        assert roots & C == {r}
    bad = next(x for x in range(ctx.q2) if ctx.trace(x) != 0)
    with pytest.raises(ValueError):
        ctx.transversal_roots(bad)


@pytest.mark.parametrize("q", ALL_Q)
def test_transversal(q):
    ctx = field_context(q)
    C = ctx.transversal
    assert len(C) == q and C[0] == 0
    # hits each additive coset of GF(q) exactly once
    seen = set()
    for c in C:
        coset = frozenset(ctx.Fq2.add(c, w) for w in range(q))
        assert coset not in seen
        seen.add(coset)
    assert len({x for c in seen for x in c}) == ctx.q2


@pytest.mark.parametrize("q", ALL_Q)
def test_epsilon_choice(q):
    ctx = field_context(q)
    e = ctx.epsilon
    assert not ctx.in_subfield(e)
    if q % 2 == 1:
        assert ctx.trace(e) == 0
        # least such element
        for x in range(e):
            assert ctx.in_subfield(x) or ctx.trace(x) != 0
    else:
        assert ctx.frob[e] == ctx.Fq2.add(1, e)
        assert ctx.a0 == 1


@pytest.mark.parametrize("q", ALL_Q)
def test_decompose_bijection(q):
    ctx = field_context(q)
    seen = set()
    for x in range(ctx.q2):
        x0, x1 = ctx.decompose(x)
        assert x0 < q and x1 < q
        assert ctx.compose(x0, x1) == x
        seen.add((x0, x1))
    assert len(seen) == ctx.q2


@pytest.mark.parametrize("q", [3, 4, 8, 9])
def test_inverse_euclid_agrees_with_tables(q):
    ctx = field_context(q)
    F = ctx.Fq2
    for a in range(1, ctx.q2):
        inv = F.inv(a)
        assert inv == F.inv_euclid(a)
        assert F.mul(a, inv) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def _digit_neg(F, a):
    """Negation digit by digit down to the prime field, with no table."""
    if isinstance(F, PrimeField):
        return (-a) % F.p
    return F.undigits(_digit_neg(F.base, d) for d in F.digits(a))


@pytest.mark.parametrize("q,name", [(3, "Fq"), (3, "Fq2"), (5, "Fq2"), (7, "Fq2")],
                         ids=["GF3", "GF9", "GF25", "GF49"])
def test_neg_table_matches_digit_level(q, name):
    F = getattr(field_context(q), name)
    expect = [_digit_neg(F, a) for a in range(F.order)]
    assert [F.neg(a) for a in range(F.order)] == expect
    assert F.np_neg_table().tolist() == expect
    for a in range(F.order):
        assert [F.sub(a, b) for b in range(F.order)] == \
            [F._add_raw(a, e) for e in expect]


# (q, attribute) of a field context holding GF(order), keyed by order
TABLE_FIELDS = {2: (2, "Fq"), 4: (2, "Fq2"), 8: (8, "Fq"), 9: (3, "Fq2"),
                16: (4, "Fq2"), 25: (5, "Fq2"), 27: (27, "Fq"), 49: (7, "Fq2"),
                64: (8, "Fq2"), 81: (9, "Fq2")}


@pytest.mark.parametrize("order", sorted(TABLE_FIELDS), ids=lambda o: f"GF{o}")
def test_dense_tables_match_digit_level(order):
    q, name = TABLE_FIELDS[order]
    F = getattr(field_context(q), name)
    assert F.order == order
    add, mul, neg = F.np_add_table(), F.np_mul_table(), F.np_neg_table()
    assert add.dtype == mul.dtype == neg.dtype == np.int32
    assert add.shape == mul.shape == (order, order) and neg.shape == (order,)
    elems = range(order)
    assert add.tolist() == [[F._add_raw(a, b) for b in elems] for a in elems]
    assert mul.tolist() == [[F._mul_raw(a, b) for b in elems] for a in elems]
    assert neg.tolist() == [_digit_neg(F, a) for a in elems]
    assert [[F.add(a, b) for b in elems] for a in elems] == add.tolist()
    assert [F.neg(a) for a in elems] == neg.tolist()
    assert [[F.sub(a, b) for b in elems] for a in elems] == \
        add[:, neg].tolist()
    assert [[F.mul(a, b) for b in elems] for a in elems] == mul.tolist()
    assert [F.inv(a) for a in elems[1:]] == [F.inv_euclid(a) for a in elems[1:]]
    for e in (0, 1, 2, F.char, order - 2, order - 1, order, 3 * order + 5):
        assert [F.pow(a, e) for a in elems] == [F._pow_raw(a, e) for a in elems]


@pytest.mark.parametrize("order", sorted(o for o in TABLE_FIELDS if o % 2 == 0)
                         + [DENSE_TABLE_LIMIT], ids=lambda o: f"GF{o}")
def test_even_tables_are_xor(order):
    # in characteristic 2 the digit-by-digit tables reduce to xor and identity
    if order == DENSE_TABLE_LIMIT:
        F = field_context(32).Fq2
    else:
        q, name = TABLE_FIELDS[order]
        F = getattr(field_context(q), name)
    assert F.order == order
    codes = np.arange(order)
    assert (F.np_add_table() == codes[:, None] ^ codes).all()
    assert (F.np_neg_table() == codes).all()


def test_dense_tables_refused_above_limit(monkeypatch):
    F = FieldCtx(32).Fq2
    assert F.order == DENSE_TABLE_LIMIT
    assert F.np_mul_table().shape == (DENSE_TABLE_LIMIT, DENSE_TABLE_LIMIT)
    with pytest.raises(BudgetExceededError):
        ExtensionField(PrimeField(37), (2, 0, 1))  # order 1369

    def no_search(*args):
        raise AssertionError("moduli searched for a refused order")

    # the context refuses before it searches for moduli
    monkeypatch.setattr(fields, "smallest_irreducible", no_search)
    with pytest.raises(BudgetExceededError):
        FieldCtx(37)


def test_element_encoding_roundtrip():
    ctx = field_context(9)
    for x in range(ctx.q2):
        ds = ctx.element_digits(x)
        assert len(ds) == 2 * ctx.h
        assert all(0 <= d < ctx.p for d in ds)
        assert ctx.element_from_digits(ds) == x
    assert ctx.format_element(0) == "0,0,0,0"


# -- the row formatter, against the exports' former join per row ----------------

def _row_join(rows, labels, sep) -> bytes:
    """Reference: every export before ``format_rows``, one join per row."""
    lines = [sep.join(labels[x] for x in row) for row in np.asarray(rows).tolist()]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("q", [11, 13])
def test_format_rows_on_element_labels_of_different_widths(q):
    # the variety's labels: GF(p) digit vectors such as "10,3" and "1,0"
    ctx = field_context(q)
    labels = [ctx.format_element(x) for x in range(ctx.q2)]
    assert {len(s) for s in labels} == {3, 4, 5}
    rows = np.random.default_rng(q).integers(ctx.q2, size=(60, 4)).astype(np.int32)
    rows[0] = ctx.q2 - 1
    assert fields.format_rows(rows, labels, " ") == _row_join(rows, labels, " ")


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (40, 1), (40, 6)])
@pytest.mark.parametrize("v,sep", [(2, ","), (11, ","), (13, " "), (32, " ")])
def test_format_rows_on_decimal_labels(shape, v, sep):
    # the array's levels and the code's symbols, one row or one column included
    labels = [str(x) for x in range(v)]
    rows = np.random.default_rng(v).integers(v, size=shape).astype(np.int16)
    rows[0, 0] = v - 1
    assert fields.format_rows(rows, labels, sep) == _row_join(rows, labels, sep)


def test_format_rows_gives_no_bytes_for_no_row():
    # the former join gave a lone newline here
    assert fields.format_rows(np.zeros((0, 5), dtype=np.int16), ["0"], " ") == b""


@pytest.mark.parametrize("n,q", [(2, 11), (2, 13), (3, 4)])
def test_point_export_matches_the_row_join(n, q):
    ctx = field_context(q)
    S = geo.bm_variety(geo.scan_params(ctx, n, mode="variety"))
    labels = [ctx.format_element(x) for x in range(ctx.q2)]
    assert S.export_bytes(ctx) == _row_join(S.points, labels, " ")


def test_array_csv_matches_the_row_join():
    A = oam.build_oa(geo.scan_params(field_context(11), 2, mode="family"))
    labels = [str(x) for x in range(11)]
    assert oam.oa_csv_bytes(A) == _row_join(A.entries, labels, ",")


@pytest.mark.parametrize("q", [11, 13])
def test_generator_and_codeword_dump_match_the_row_join(q, tmp_path):
    ec = cod.build_code(geo.scan_params(field_context(q), 3, mode="family"))
    c = cod.puncture(cod.doubly_extend(ec))
    genmat, _, words = cod.write_code(c, ec, str(tmp_path / "c"),
                                      dump_codewords=True)
    labels = [str(x) for x in range(q)]
    assert Path(genmat).read_bytes() == _row_join(c.generator, labels, " ")
    assert Path(words).read_bytes() == _row_join(c.codewords, labels, " ")
    assert c.generator.max() >= 10


def test_context_deterministic():
    a = FieldCtx(4)
    b = FieldCtx(4)
    assert a.to_json() == b.to_json()
    assert a.modulus_q == b.modulus_q and a.modulus_q2 == b.modulus_q2


def test_absolute_trace_gf4():
    Fq = field_context(4).Fq
    assert [absolute_trace(Fq, x) for x in range(4)] == [0, 0, 1, 1]


def test_context_budget_guard():
    with pytest.raises(BudgetExceededError):
        FieldCtx(257)


def test_extension_field_pow_edge_cases():
    F = field_context(3).Fq2
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    assert F.pow(5, -1) == F.inv(5)
