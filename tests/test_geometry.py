from collections import Counter
from itertools import product

import numpy as np
import pytest

from qhv import geometry as geo
from qhv.fields import BudgetExceededError, absolute_trace, field_context


# -- parameter validation ----------------------------------------------------

def test_qh4_any_pair_valid():
    ctx = field_context(2)
    for a in range(1, 4):
        for b in (2, 3):
            assert geo.validate_params(ctx, 3, a, b).condition == "QH4"


def test_b_in_subfield_rejected():
    ctx = field_context(3)
    for b in range(3):
        with pytest.raises(geo.ParameterError):
            geo.validate_params(ctx, 2, 1, b)
        with pytest.raises(geo.ParameterError):
            geo.classical_params(ctx, 2, b)


def test_a_zero_needs_classical_entry_point():
    ctx = field_context(3)
    with pytest.raises(geo.ParameterError):
        geo.validate_params(ctx, 2, 0, ctx.epsilon)
    p = geo.classical_params(ctx, 2, ctx.epsilon)
    assert p.condition == "classical" and p.a == 0


def test_qh1_at_3_3():
    ctx = field_context(3)
    p = geo.scan_params(ctx, 3, mode="quasi_hermitian")
    assert p.condition == "QH1"
    assert geo.separation_value(ctx, p.a, p.b) != 0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_separating_map_is_linear_and_injective_iff_separating(q):
    # L(u) = 2 a u + (b^q - b) u^q, for every a and every b outside GF(q)
    ctx = field_context(q)
    F = ctx.Fq2
    add, mul = F.np_add_table(), F.np_mul_table()
    for a in range(ctx.q2):
        for b in range(ctx.q, ctx.q2):
            params = geo.BMParams(ctx, 2, a, b, "affine")
            L = np.array([geo.separating_map(params, u) for u in range(ctx.q2)])
            assert (L[add] == add[L[:, None], L]).all()
            assert (L[mul[:q]] == mul[np.arange(q)[:, None], L]).all()
            injective = len(set(L.tolist())) == ctx.q2
            assert injective == (geo.separation_value(ctx, a, b) != 0)


def test_qh2_empty_at_q3():
    # 4 a^{q+1} + (b^q-b)^2 only takes the values {0, 1} over GF(3), never the
    # non-square 2, so no pair is QH2-admissible; the exhaustive unital sweep
    # below confirms no a != 0 gives a two-character set either.
    ctx = field_context(3)
    vals = set()
    for a in range(1, 9):
        for b in range(9):
            if ctx.in_subfield(b):
                continue
            vals.add(geo.separation_value(ctx, a, b))
            with pytest.raises(geo.ParameterError):
                geo.validate_params(ctx, 2, a, b)
    assert vals == {0, 1}


def test_qh2_found_at_q5():
    ctx = field_context(5)
    p = geo.scan_params(ctx, 2, mode="quasi_hermitian")
    assert p.condition == "QH2"
    val = geo.separation_value(ctx, p.a, p.b)
    assert ctx.Fq.pow(val, 2) != 1  # (q-1)/2 = 2: non-square certificate


def test_qh3_scan_at_2_4():
    ctx = field_context(4)
    p = geo.scan_params(ctx, 2, mode="quasi_hermitian")
    assert p.condition == "QH3"
    trb = ctx.trace(p.b)
    ratio = ctx.Fq.div(ctx.norm(p.a), ctx.Fq.mul(trb, trb))
    assert absolute_trace(ctx.Fq, ratio) == 0


def test_family_params_fallback():
    ctx = field_context(2)
    p = geo.scan_params(ctx, 2, mode="family")
    assert p.condition == "affine" and p.a != 0
    assert geo.separation_value(ctx, p.a, p.b) != 0


@pytest.mark.parametrize("make", [
    lambda ctx: geo.validate_params(ctx, 1, 1, ctx.epsilon),
    lambda ctx: geo.classical_params(ctx, 1, ctx.epsilon),
    lambda ctx: geo.family_params(ctx, 1, 1, ctx.epsilon),
    lambda ctx: geo.scan_params(ctx, 1, mode="family"),
    lambda ctx: geo.scan_params(ctx, 1, mode="variety"),
], ids=["validate", "classical", "family", "scan_family", "scan_variety"])
def test_n_below_two_rejected(make):
    with pytest.raises(geo.ParameterError):
        make(field_context(3))


def _outcome(make):
    try:
        return make()
    except geo.ParameterError as exc:
        return str(exc)


@pytest.mark.parametrize("mode", ["variety", "family", "quasi_hermitian"])
@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_pinned_scan_is_the_direct_check(n, q, mode):
    # a pinned pair is not scanned: scan_params gives what the direct check
    # gives, a = 0 and b in GF(q) included, error messages and all; a variety
    # takes only QH-labelled or classical pairs, never an "affine" one
    ctx = field_context(q)

    def direct(ctx, n, a, b):
        if mode == "family":
            return geo.family_params(ctx, n, a, b)
        if mode == "variety" and a == 0:
            return geo.classical_params(ctx, n, b)
        return geo.validate_params(ctx, n, a, b)

    outcomes = []
    for a, b in product(range(ctx.q2), repeat=2):
        got = _outcome(lambda: geo.scan_params(ctx, n, mode, a=a, b=b))
        assert got == _outcome(lambda: direct(ctx, n, a, b)), (a, b)
        outcomes.append(got)
    assert any(isinstance(o, str) for o in outcomes)
    labels = {o.condition for o in outcomes if isinstance(o, geo.BMParams)}
    assert ("affine" in labels) == (mode == "family" and n == 2)
    # no QH-labelled pair exists at n = 2, q in {2, 3}
    no_qh_pair = mode == "quasi_hermitian" and n == 2
    assert any(isinstance(o, geo.BMParams) for o in outcomes) != no_qh_pair


def test_separating_value_zero_rejected():
    # q=3: a with norm 1 makes the separation value vanish
    ctx = field_context(3)
    a = next(x for x in range(1, 9) if ctx.norm(x) == 1)
    assert geo.separation_value(ctx, a, ctx.epsilon) == 0
    with pytest.raises(geo.ParameterError):
        geo.family_params(ctx, 2, a, ctx.epsilon)


# -- the variety --------------------------------------------------------------

def test_affine_eval_origin_and_trace():
    ctx = field_context(2)
    params = geo.scan_params(ctx, 2, mode="family")
    assert geo.bab_affine_eval(params, (0, 0)) == 0
    for x in product(range(4), repeat=2):
        assert ctx.trace(geo.bab_affine_eval(params, x)) == 0


@pytest.mark.parametrize("n,q,a,b", [(2, 8, None, None), (3, 9, None, None),
                                     (2, 5, 0, None), (3, 4, 3, 9)])
def test_coordinate_tables_match_scalar_eval(n, q, a, b):
    ctx = field_context(q)
    params = geo.scan_params(ctx, n, mode="family", a=a, b=b)
    Z, H = geo.coordinate_tables(params)
    assert Z.dtype == H.dtype == np.int32
    zeros = (0,) * (n - 1)
    assert Z.tolist() == [geo.bab_affine_eval(params, zeros + (x,))
                          for x in range(ctx.q2)]
    assert H.tolist() == [geo.bab_affine_eval(params, (x,) + zeros)
                          for x in range(ctx.q2)]


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_affine_zero_count(n, q):
    ctx = field_context(q)
    params = geo.scan_params(ctx, n, mode="family")
    zeros = [x for x in product(range(ctx.q2), repeat=n)
             if geo.bab_affine_eval(params, x) == 0]
    assert len(zeros) == q ** (2 * n - 1)
    assert zeros == [tuple(pt) for pt in geo.affine_points(params).tolist()]


@pytest.mark.parametrize("n,q,size", [(2, 2, 9), (2, 3, 28), (2, 4, 65),
                                      (3, 2, 45), (3, 3, 280)])
def test_variety_sizes(n, q, size):
    ctx = field_context(q)
    params = geo.scan_params(ctx, n, mode="variety")
    S = geo.bm_variety(params)
    assert len(S) == size == geo.hermitian_size(n, q)
    if n == 2:
        assert size == q**3 + 1


def test_hermitian_size_values():
    assert geo.hermitian_size(2, 3) == 28
    assert geo.hermitian_size(3, 3) == 280
    assert geo.hermitian_size(3, 2) == 45


def test_cone_is_single_point_for_n2():
    for q in (2, 3, 4, 5):
        ctx = field_context(q)
        assert geo.cone_at_infinity(ctx, 2).tolist() == [[0, 0, 1]]


def test_cone_size_n3():
    # vertex plus q+1 lines through it, each contributing q^2 points
    for q in (2, 3):
        ctx = field_context(q)
        assert len(geo.cone_at_infinity(ctx, 3)) == 1 + (q + 1) * q**2


def test_normalization():
    ctx = field_context(3)
    F = ctx.Fq2
    pt = geo.normalize_point(F, (2, 5, 7))
    assert pt[0] == 1
    assert geo.normalize_point(F, pt) == pt
    for s in range(1, 9):
        assert geo.normalize_point(F, tuple(F.mul(s, c) for c in pt)) == pt
    with pytest.raises(ValueError):
        geo.normalize_point(F, (0, 0, 0))


# -- characters ----------------------------------------------------------------

def test_spectrum_unital_2_3():
    ctx = field_context(3)
    params = geo.scan_params(ctx, 2, mode="variety")
    assert params.condition == "classical"  # no QH pair exists at (2,3)
    S = geo.bm_variety(params)
    spec = geo.character_spectrum(S, ctx)
    assert set(spec) == {1, 4}
    assert sum(spec.values()) == 91  # lines of PG(2,9)


def test_spectrum_3_3():
    ctx = field_context(3)
    params = geo.scan_params(ctx, 3, mode="quasi_hermitian")
    S = geo.bm_variety(params)
    spec = geo.character_spectrum(S, ctx)
    # non-tangent sections are Hermitian curves with q^3+1 = 28 points
    assert set(spec) == {28, 37} == geo.expected_spectrum_support(3, 3)
    assert spec[37] == 280  # one tangent hyperplane per variety point


def test_spectrum_full_space_constant():
    ctx = field_context(2)
    S = geo.point_set(2, geo.projective_points(ctx.Fq2, 2))
    spec = geo.character_spectrum(S, ctx)
    assert set(spec) == {5} and sum(spec.values()) == 21


def test_budget_messages_name_their_numbers():
    ctx = field_context(3)
    params = geo.scan_params(ctx, 2, mode="variety")
    with pytest.raises(BudgetExceededError,
                       match="would give 27 points, budget is 26"):
        geo.affine_points(params, budget=26)
    S = geo.bm_variety(params)
    with pytest.raises(BudgetExceededError,
                       match="would take 91 hyperplanes, budget is 90"):
        geo.character_spectrum(S, ctx, budget=90)


def test_spectrum_budget():
    ctx = field_context(3)
    params = geo.scan_params(ctx, 2, mode="variety")
    S = geo.bm_variety(params)
    with pytest.raises(BudgetExceededError):
        geo.character_spectrum(S, ctx, budget=10)


def test_point_set_export():
    ctx = field_context(2)
    params = geo.scan_params(ctx, 2, mode="variety")
    S = geo.bm_variety(params)
    lines = S.export_lines(ctx)
    assert len(lines) == len(S)
    points = [tuple(pt) for pt in S.points.tolist()]
    assert points == sorted(points)
    # parseable back to the same points
    for line, pt in zip(lines, points):
        parsed = tuple(ctx.element_from_digits(map(int, el.split(",")))
                       for el in line.split(" "))
        assert parsed == pt


# every (a, b) with b outside GF(q), by class: (pairs, two-character);
# "rejected" pairs fail every condition and the separation, and are built
# directly; "QH" is whichever of QH1..QH4 the parities select.  The QH
# conditions are sufficient, not necessary: every "affine" pair at (2, 2) is
# two-character (all unitals of PG(2, 4) are classical), none at (2, 3)
PAIR_SWEEP = {
    (2, 2): {"classical": (2, True), "affine": (6, True)},
    (2, 3): {"classical": (6, True), "affine": (24, False),
             "rejected": (24, False)},
    (2, 4): {"classical": (12, True), "QH": (60, True), "affine": (120, False)},
    (2, 5): {"classical": (20, True), "QH": (120, True), "affine": (240, False),
             "rejected": (120, False)},
    (3, 2): {"classical": (2, True), "QH": (6, True)},
    (3, 3): {"classical": (6, True), "QH": (24, True), "rejected": (24, False)},
    (3, 4): {"classical": (12, True), "QH": (180, True)},
}


@pytest.mark.parametrize("n,q", sorted(PAIR_SWEEP))
def test_every_pair_sweep(n, q):
    """Every pair, none sampled: the QH and classical labels promise two
    characters, and |M| is the Hermitian count whatever the pair."""
    ctx = field_context(q)
    found = {}
    for a in range(ctx.q2):
        for b in range(ctx.q2):
            if ctx.in_subfield(b):
                continue
            try:
                params = geo.family_params(ctx, n, a, b)
            except geo.ParameterError:
                params = geo.BMParams(ctx, n, a, b, "rejected")
            S = geo.bm_variety(params)
            assert len(S) == geo.hermitian_size(n, q), (a, b)
            two = set(geo.character_spectrum(S, ctx)) == \
                geo.expected_spectrum_support(n, q)
            label = "QH" if params.condition.startswith("QH") else params.condition
            found.setdefault(label, Counter())[two] += 1
    assert found == {label: Counter({two: pairs})
                     for label, (pairs, two) in PAIR_SWEEP[(n, q)].items()}
