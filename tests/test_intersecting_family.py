import inspect
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SETTINGS
from qhv import collineations as col
from qhv import intersecting_family as fam
from qhv import geometry as geo
from qhv.fields import BudgetExceededError, field_context
from qhv.oracles import naive_form_value, naive_intersection_count, naive_zero_set


def _params(n, q):
    return geo.scan_params(field_context(q), n, mode="family")


def _member(params, forms, m):
    """Member m of the family arrays as a scalar ``AffineForm``."""
    return fam.AffineForm(params, tuple(forms[0][m].tolist()),
                          tuple(forms[1][m].tolist()), 0)


def test_family_sizes():
    for (n, q), k in (((2, 3), 9), ((2, 2), 4), ((3, 2), 16)):
        u, v = fam.family(_params(n, q))
        assert u.shape == v.shape == (k, n - 1)
        assert u.dtype == v.dtype == np.int32


def test_identity_member_is_base_form():
    params = _params(2, 3)
    u, v = fam.family(params)
    base = fam.base_form(params)
    assert tuple(u[0]) == base.u and tuple(v[0]) == base.v
    points = list(product(range(9), repeat=2))
    values = fam.form_values(params, u, v, points)
    assert values[:, 0].tolist() == [base.evaluate(x) for x in points]


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2)])
def test_family_arrays_are_the_act_on_form_rows(n, q):
    # the scalar pullback along every R-member: same u and v, and w = 0
    # (every pair at (2,3), (2,4), (3,3) and (2,5) is in the acceptance gate)
    params = _params(n, q)
    u, v = fam.family(params)
    base = fam.base_form(params)
    forms = [col.act_on_form(g, base) for g in col.build_R(params)]
    assert u.tolist() == [list(f.u) for f in forms]
    assert v.tolist() == [list(f.v) for f in forms]
    assert all(f.w == 0 for f in forms)


def test_family_over_given_heads_is_the_default_family_restricted():
    params = _params(3, 2)
    u, v = fam.family(params)
    heads = [(3, 1), (0, 0), (2, 3)]
    rows = [4 * a + b for a, b in heads]
    hu, hv = fam.family(params, heads)
    assert np.array_equal(hu, u[rows]) and np.array_equal(hv, v[rows])


def test_family_zero_sets_pairwise_distinct_2_2():
    params = _params(2, 2)
    R = col.build_R(params)
    sets = [naive_zero_set(params, g) for g in R]
    assert len(set(sets)) == len(sets) == 4


def test_act_on_form_pointwise_exhaustive_2_2():
    ctx = field_context(2)
    params = _params(2, 2)
    base = fam.base_form(params)
    for g in col.all_collineations(ctx, 2):
        Fg = col.act_on_form(g, base)
        for pt in product(range(4), repeat=2):
            img = col.apply(ctx, g, (1,) + pt)
            assert Fg.evaluate(pt) == base.evaluate(img[1:])


@st.composite
def _two_collineations_and_point(draw):
    n, q = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]))
    elements = st.integers(0, q * q - 1)

    def collineation():
        return col.Collineation(tuple(draw(elements) for _ in range(n)),
                                tuple(draw(elements) for _ in range(n - 1)))

    point = tuple(draw(elements) for _ in range(n))
    return _params(n, q), collineation(), collineation(), point


@SETTINGS
@given(_two_collineations_and_point())
def test_act_on_form_is_a_right_action_along_compose(args):
    """Pulling back along g, then h, is pulling back along compose(h, g),
    which applies h and then g: F^g(h x) = F(g (h x)) at every affine x.
    With arbitrary betas and alpha_n the second pullback sees nonzero u, v, w."""
    params, g, h, x = args
    ctx = params.ctx
    base = fam.base_form(params)
    twice = col.act_on_form(h, col.act_on_form(g, base))
    once = col.act_on_form(col.compose(ctx, h, g), base)
    assert (twice.u, twice.v, twice.w) == (once.u, once.v, once.w)
    hx = col.apply(ctx, h, (1,) + x)[1:]
    ghx = col.apply(ctx, g, (1,) + hx)[1:]
    assert twice.evaluate(x) == col.act_on_form(g, base).evaluate(hx) \
        == base.evaluate(ghx)


def test_act_on_form_identity():
    params = _params(2, 3)
    base = fam.base_form(params)
    same = col.act_on_form(col.identity(2), base)
    assert (same.u, same.v, same.w) == (base.u, base.v, base.w)


def test_xq_coefficient_formula():
    # the X_1^q coefficient of a pulled-back form is 2 a^q alpha_1^q - (b^q-b) alpha_1
    ctx = field_context(3)
    params = _params(2, 3)
    F = ctx.Fq2
    two_aq = F.mul(2 % ctx.p, ctx.frob[params.a])
    bqmb = F.sub(ctx.frob[params.b], params.b)
    for g in col.build_R(params):
        form = col.act_on_form(g, fam.base_form(params))
        a1 = g.alphas[0]
        assert form.u[0] == F.sub(F.mul(two_aq, ctx.frob[a1]), F.mul(bqmb, a1))


def test_values_on_w_are_trace_zero():
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        ctx = field_context(q)
        params = _params(n, q)
        W = fam.w_set(ctx, n).tolist()
        forms = fam.family(params)
        for m in range(len(forms[0])):
            f = _member(params, forms, m)
            for pt in W:
                assert ctx.trace(f.evaluate(pt)) == 0


def test_w_set_shape():
    ctx = field_context(3)
    W = fam.w_set(ctx, 2)
    assert W.shape == (27, 2) and W.dtype == np.int32
    assert len({tuple(pt) for pt in W.tolist()}) == 27
    C = set(ctx.transversal)
    for pt in W.tolist():
        assert pt[-1] in C


@pytest.mark.parametrize("n,q", [(2, 2), (2, 4), (3, 3)])
def test_w_set_row_order(n, q):
    # heads lexicographic, x_n by transversal order
    ctx = field_context(q)
    expected = [list(head) + [xn] for head in product(range(q * q), repeat=n - 1)
                for xn in ctx.transversal]
    assert fam.w_set(ctx, n).tolist() == expected


# -- intersection counts --------------------------------------------------------

@pytest.mark.parametrize("n,q,mu", [(2, 2, 4), (2, 3, 9), (3, 2, 16)])
def test_intersection_counts(n, q, mu):
    params = _params(n, q)
    counts = fam.intersection_count(params, *fam.family(params))
    expected = np.full((mu, mu), mu)
    np.fill_diagonal(expected, q ** (2 * n - 1))
    assert np.array_equal(counts, expected)


def test_intersection_count_matches_naive_double_loop():
    params = _params(2, 3)
    R = col.build_R(params)
    counts = fam.intersection_count(params, *fam.family(params))
    for i in (0, 3):
        for j in (1, 5, 8):
            assert counts[i, j] == \
                naive_intersection_count(params, R[i], R[j])


def test_family_and_intersection_budgets_name_their_numbers():
    # k = q^{2n-2} = 81 members at (3, 3); the one-hot matrix has q k^2 cells
    params = _params(3, 3)
    for build in (col.build_R, lambda p, budget: fam.family(p, budget=budget)):
        with pytest.raises(BudgetExceededError,
                           match="R would have 81 members, budget is 80"):
            build(params, budget=80)
    u, v = fam.family(params, budget=81)
    with pytest.raises(BudgetExceededError,
                       match="would take 19683 one-hot cells, budget is 19682"):
        fam.intersection_count(params, u, v, budget=19682)
    assert fam.intersection_count(params, u, v, budget=19683).shape == (81, 81)


# -- s-coefficients ---------------------------------------------------------------
# s = L(alpha_i - alpha_j) = v[j] - v[i] (L = separating_map), read off the arrays

def _s_coefficients(params, v, i, j):
    F = params.ctx.Fq2
    return tuple(F.sub(int(b), int(a)) for a, b in zip(v[i], v[j]))


def test_s_coefficients():
    params = _params(2, 3)
    R = col.build_R(params)
    _, v = fam.family(params)
    F = params.ctx.Fq2
    for i, g in enumerate(R):
        assert _s_coefficients(params, v, i, i) == (0,)
        for j, g2 in enumerate(R):
            s = _s_coefficients(params, v, i, j)
            assert s == tuple(geo.separating_map(params, F.sub(x, y))
                              for x, y in zip(g.alphas[:-1], g2.alphas[:-1]))
            assert (g == g2) == all(x == 0 for x in s)


def test_s_trace_zero_tuple_count():
    # the hyperplane-style condition trace(s . X) = 0 has q^{2n-3} solutions
    ctx = field_context(3)
    params = _params(2, 3)
    _, v = fam.family(params)
    (s1,) = _s_coefficients(params, v, 0, 4)
    count = sum(1 for x in range(9) if ctx.trace(ctx.Fq2.mul(s1, x)) == 0)
    assert count == 3 ** (2 * 2 - 3)


# -- separation -------------------------------------------------------------------

@pytest.mark.parametrize("n,q", [(2, 2), (2, 3)])
def test_separating_g_all_pairs(n, q):
    ctx = field_context(q)
    params = _params(n, q)
    forms = fam.family(params)
    W = fam.w_set(ctx, n).tolist()
    assert len(W) == q ** (2 * n - 1)
    for i, P in enumerate(W):
        for P2 in W[i + 1:]:
            m = fam.separating_member(params, P, P2, forms)
            f = _member(params, forms, m)
            assert f.evaluate(P) != f.evaluate(P2)


def test_separating_g_equal_points_rejected():
    params = _params(2, 2)
    with pytest.raises(ValueError):
        fam.separating_member(params, (0, 0), (0, 0))


def test_separating_g_deterministic_first_hit():
    params = _params(2, 3)
    forms = fam.family(params)
    W = fam.w_set(params.ctx, 2).tolist()
    P, P2 = W[0], W[5]
    first = fam.separating_member(params, P, P2, forms)
    assert first == fam.separating_member(params, P, P2)
    for m in range(first):
        f = _member(params, forms, m)
        assert f.evaluate(P) == f.evaluate(P2)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_row_map_injective(n, q):
    ctx = field_context(q)
    params = _params(n, q)
    forms = fam.family(params)
    W = fam.w_set(ctx, n).tolist()
    members = [_member(params, forms, m) for m in range(len(forms[0]))]
    rows = {tuple(f.evaluate(p) for f in members) for p in W}
    assert len(rows) == q ** (2 * n - 1)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3)])
def test_form_values_match_naive_oracle(n, q):
    # pullbacks along elements outside R: nonzero betas and constants
    params = _params(n, q)
    base = fam.base_form(params)
    gs = [g for g in col.all_collineations(params.ctx, n) if all(g.betas)][::5]
    forms = [col.act_on_form(g, base) for g in gs]
    assert any(f.w for f in forms)
    u, v = (np.array([getattr(f, c) for f in forms], dtype=np.int32)
            for c in "uv")
    points = list(product(range(q * q), repeat=n))
    # form_values leaves out the constant: add each member's w
    add = params.ctx.Fq2.np_add_table()
    values = add[fam.form_values(params, u, v, points), [f.w for f in forms]]
    assert values.shape == (len(points), len(forms))
    for r, pt in enumerate(points):
        for c, g in enumerate(gs):
            assert values[r, c] == naive_form_value(params, g, pt)


def test_zero_set_of_pullback_is_preimage():
    # V(F^g) = g^{-1} V(F) as affine point sets
    ctx = field_context(2)
    params = _params(2, 2)
    base_zeros = naive_zero_set(params, col.identity(2))
    for g in col.build_R(params):
        ginv = col.inverse(ctx, g)
        pulled = {col.apply(ctx, ginv, (1,) + pt)[1:] for pt in base_zeros}
        assert naive_zero_set(params, g) == pulled


def test_array_and_code_need_no_collineation_or_scalar_pullback(monkeypatch):
    # build_oa and build_code run on the coefficient arrays alone: with
    # act_on_form and build_R raising at every binding, entries and codewords
    # are those of the scalar pullbacks
    from qhv import codes as cod
    from qhv import oa as oam

    params = _params(3, 2)
    code_params = geo.scan_params(field_context(5), 3, mode="family")
    entries = oam.build_oa(params).entries
    words = cod.build_code(code_params).codewords
    base = fam.base_form(params)
    pulled = [col.act_on_form(g, base) for g in col.build_R(params)]
    W = fam.w_set(params.ctx, 3).tolist()
    level = params.ctx.t0
    assert [[level[x] for x in row] for row in entries.tolist()] == \
        [[f.evaluate(p) for f in pulled] for p in W]

    def refuse(*args, **kwargs):
        raise AssertionError("scalar path taken")

    for real in (col.act_on_form, col.build_R):
        for module in (col, fam, cod, oam):
            for name, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError, match="scalar path taken"):
        col.build_R(params)
    assert np.array_equal(oam.build_oa(params).entries, entries)
    assert np.array_equal(cod.build_code(code_params).codewords, words)


def test_family_module_names_no_group_element():
    # the family is coefficient arrays; only qhv.collineations builds,
    # composes or pulls back along group elements
    source = inspect.getsource(fam)
    assert not re.findall(r"collineations|Collineation|build_R", source)


# every (n, q) at which tier-1 builds an orthogonal array, and the code's
# n = 3 family over the Omega heads at every tier-1 code q
W_FAMILIES = ([("R", n, q) for n, q in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2),
                                         (3, 3), (3, 4), (3, 5), (4, 3)]]
              + [("omega", 3, q) for q in (5, 7, 8, 9, 11, 13)])


@pytest.mark.parametrize("heads,n,q", W_FAMILIES)
def test_w_values_are_form_values_on_w_set(heads, n, q):
    from qhv.codes import omega_set

    params = _params(n, q)
    forms = (fam.family(params) if heads == "R"
             else fam.family(params, omega_set(params.ctx).pairs))
    W = fam.w_set(params.ctx, n)
    got = fam.w_values(params, *forms)
    want = fam.form_values(params, *forms, W)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # the scalar reference: three members, every point of W up to 4096
    # points, else every 97th (coprime to q, so every x_n still occurs)
    k = len(forms[0])
    rows = np.arange(0, len(W), 1 if len(W) <= 4096 else 97)
    for m in sorted({0, k // 2, k - 1}):
        member = _member(params, forms, m)
        assert got[rows, m].tolist() == [member.evaluate(p)
                                          for p in W[rows].tolist()]


@pytest.mark.parametrize("n,q,code_q", [(2, 3, 5), (3, 3, 7), (2, 4, 8)])
def test_build_oa_and_build_code_evaluate_only_the_heads(n, q, code_q,
                                                          monkeypatch):
    from qhv import codes as cod
    from qhv import oa as oam

    real, sizes = fam.form_values, []

    def counted(params, u, v, points):
        sizes.append(len(points))
        return real(params, u, v, points)

    monkeypatch.setattr(fam, "form_values", counted)
    A = oam.build_oa(_params(n, q))
    assert sizes == [q ** (2 * n - 2)] and A.runs == q ** (2 * n - 1)
    sizes.clear()
    code = cod.build_code(_params(3, code_q))
    assert sizes == [code_q ** 4] and len(code) == code_q ** 5
