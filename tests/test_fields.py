import numpy as np
import pytest

from qhv import fields
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
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power(bad)


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
        assert ctx.frobenius(ctx.frobenius(x)) == x


@pytest.mark.parametrize("q", ALL_Q)
def test_subfield_is_fixed_field(q):
    ctx = field_context(q)
    for x in range(ctx.q2):
        assert ctx.in_subfield(x) == (ctx.frobenius(x) == x) == (x < q)


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
    t0 = ctx.t0_set()
    assert 0 in t0
    assert len(t0) == q
    assert t0 == {x for x in range(ctx.q2) if ctx.trace(x) == 0}
    if q % 2 == 0:
        assert t0 == set(range(q))  # T0 = GF(q) in even characteristic
    # T0 = theta * GF(q)
    assert t0 == {ctx.Fq2.mul(ctx.theta, w) for w in range(q)}


def test_t0_small_examples():
    assert field_context(2).t0_set() == {0, 1}
    ctx = field_context(3)
    e = ctx.epsilon
    assert ctx.t0_set() == {0, e, ctx.Fq2.mul(e, 2)}


@pytest.mark.parametrize("q", SMALL_Q)
def test_artin_schreier_exhaustive(q):
    ctx = field_context(q)
    F = ctx.Fq2
    for d in range(ctx.q2):
        roots = ctx.artin_schreier_roots(d)
        brute = {z for z in range(ctx.q2) if F.sub(ctx.frobenius(z), z) == d}
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
    assert ctx.artin_schreier_roots(0) == set(range(3))
    d = ctx.Fq2.sub(ctx.epsilon, ctx.frobenius(ctx.epsilon))  # 2*epsilon
    assert d == ctx.Fq2.mul(ctx.epsilon, 2)
    assert len(ctx.artin_schreier_roots(d)) == 3


@pytest.mark.parametrize("q", SMALL_Q + [7, 8, 9])
def test_unique_root_in_transversal(q):
    ctx = field_context(q)
    assert ctx.unique_root_in_transversal(0) == 0
    C = set(ctx.transversal)
    for d in ctx.t0:
        r = ctx.unique_root_in_transversal(d)
        roots = ctx.artin_schreier_roots(d)
        assert r in roots
        assert roots & C == {r}
    bad = next(x for x in range(ctx.q2) if ctx.trace(x) != 0)
    with pytest.raises(ValueError):
        ctx.unique_root_in_transversal(bad)


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
        assert ctx.frobenius(e) == ctx.Fq2.add(1, e)
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
