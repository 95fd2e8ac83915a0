import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qhv import codes as cod
from qhv import collineations as col
from qhv import intersecting_family as fam
from qhv import geometry as geo
from qhv import linalg
from qhv import oa as oam
from qhv.fields import BudgetExceededError, field_context
from qhv.cli import main
from qhv.oracles import GridSpec, naive_min_weight, run_grid


def _params(q):
    return geo.scan_params(field_context(q), 3, mode="family")


def _code(q):
    return cod.build_code(_params(q))


def _assert_in_span(code, words):
    """Each word is the span vector whose coordinates in the code's RREF
    generator are its entries at the pivots."""
    Fq = field_context(code.q).Fq
    add, mul = Fq.np_add_table(), Fq.np_mul_table()
    span = np.zeros_like(words)
    for row in code.generator:
        pivot = int(np.flatnonzero(row)[0])
        span = add[span, mul[words[:, pivot, None], row]]
    assert np.array_equal(span, words)


# -- the twisted-cubic index set ------------------------------------------------

def test_omega_first_pair_is_zero():
    om = cod.omega_set(field_context(5))
    assert om.pairs[0] == (0, 0) and om.psi[0] == 0


def test_omega_q5():
    ctx = field_context(5)
    om = cod.omega_set(ctx)
    assert len(om) == 5
    assert len(set(om.pairs)) == 5
    assert set(om.psi) == set(range(5))  # evaluation points exhaust GF(q)
    # pairs are exactly {(t + eps t^2, t^3 + eps t^4)}
    F, Fq = ctx.Fq2, ctx.Fq
    for t, (w1, w2) in zip(om.psi, om.pairs):
        assert w1 == F.add(t, F.mul(ctx.epsilon, Fq.mul(t, t)))
        t3 = Fq.mul(Fq.mul(t, t), t)
        assert w2 == F.add(t3, F.mul(ctx.epsilon, Fq.mul(t3, t)))


def test_omega_warns_small_q():
    with pytest.warns(UserWarning):
        cod.omega_set(field_context(4))


@pytest.mark.parametrize("q", [5, 7, 8])
def test_luc1_all_subsets(q):
    ctx = field_context(q)
    om = cod.omega_set(ctx)
    # Vandermonde oracle: the determinant vanishes iff two indices coincide
    for idx in combinations(range(q), 5):
        assert cod.check_luc1(ctx, om, idx)
    assert not cod.check_luc1(ctx, om, (0, 0, 1, 2, 3))
    assert not cod.check_luc1(ctx, om, (4, 1, 1, 2, 3))


def test_luc1_needs_five_indices():
    ctx = field_context(5)
    om = cod.omega_set(ctx)
    with pytest.raises(ValueError):
        cod.check_luc1(ctx, om, (0, 1, 2))


# -- the evaluation code ----------------------------------------------------------

def test_build_rejects_wrong_dimension():
    params = geo.scan_params(field_context(5), 2, mode="family")
    with pytest.raises(ValueError):
        cod.build_code(params)


def test_zero_word_at_origin():
    ec = _code(5)
    W = fam.w_set(ec.params.ctx, 3)
    idx = next(i for i, d in enumerate(W) if tuple(d) == (0, 0, 0))
    assert not ec.codewords[idx].any()


def test_codeword_count_and_injectivity_q5():
    ec = _code(5)
    assert len(ec) == 5**5
    assert len(np.unique(ec.codewords, axis=0)) == 5**5


def test_codewords_agree_with_family_forms():
    # column i is the family form whose alpha head is the i-th omega pair
    q = 5
    params = _params(q)
    ec = _code(q)
    base = fam.base_form(params)
    W = fam.w_set(params.ctx, 3)
    for i, (w1, w2) in enumerate(ec.omega.pairs):
        d = int(geo.affine_rhs(params, (w1, w2)))
        an = int(params.ctx.transversal_roots(d))
        g = col.Collineation((w1, w2, an), (0, 0))
        form = col.act_on_form(g, base)
        for r in range(q**5):
            x, y, z = W[r]
            assert ec.codewords[r, i] == form.evaluate((int(x), int(y), int(z)))


def test_closure_under_domain_law():
    # sum of two codewords is the codeword of the combined domain point
    q = 5
    ctx = field_context(q)
    F = ctx.Fq2
    params = _params(q)
    ec = _code(q)
    words = {tuple(int(v) for v in row) for row in ec.codewords}
    W = fam.w_set(ctx, 3)
    index = {tuple(int(v) for v in d): i for i, d in enumerate(W)}
    rng = random.Random(9)
    two_a = F.mul(2 % ctx.p, params.a)
    bqmb = F.sub(ctx.frob[params.b], params.b)
    for _ in range(300):
        r1, r2 = rng.randrange(len(ec)), rng.randrange(len(ec))
        x1, y1, z1 = (int(v) for v in W[r1])
        x2, y2, z2 = (int(v) for v in W[r2])
        total = tuple(F.add(int(u), int(v))
                      for u, v in zip(ec.codewords[r1], ec.codewords[r2]))
        assert total in words
        # z3 = z1 + z2 - 2a(x1 x2 + y1 y2) - (b^q-b)(x1^q x2 + y1^q y2) + s,
        # s in GF(q); expanding F(1, x3, y3, z3) forces the minus signs
        x3, y3 = F.add(x1, x2), F.add(y1, y2)
        z3 = F.add(z1, z2)
        z3 = F.sub(z3, F.mul(two_a, F.add(F.mul(x1, x2), F.mul(y1, y2))))
        z3 = F.sub(z3, F.mul(bqmb, F.add(F.mul(ctx.frob[x1], x2),
                                         F.mul(ctx.frob[y1], y2))))
        _, z3_1 = ctx.decompose(z3)
        z3_c = F.mul(ctx.epsilon, z3_1)  # shift into the transversal
        assert total == tuple(int(v) for v in ec.codewords[index[(x3, y3, z3_c)]])


def test_scalar_closure():
    q = 5
    ec = _code(q)
    Fq = field_context(q).Fq
    F = field_context(q).Fq2
    words = {tuple(int(v) for v in row) for row in ec.codewords}
    rng = random.Random(13)
    for _ in range(100):
        r = rng.randrange(len(ec))
        lam = rng.randrange(q)
        scaled = tuple(F.mul(lam, int(v)) for v in ec.codewords[r])
        assert scaled in words


# -- the GF(q) code ----------------------------------------------------------------

def test_scale_to_fq_dimension_q5():
    c = cod.scale_to_fq(_code(5))
    assert c.dimension == 5
    assert c.generator.shape == (5, 5)
    assert c.codewords.max() < 5


def test_budget_messages_name_their_numbers():
    # q^5 codewords of q coordinates at q = 5
    with pytest.raises(BudgetExceededError,
                       match="would have 15625 cells, budget is 15624"):
        cod.build_code(_params(5), budget=15624)
    c = cod.scale_to_fq(_code(5))
    with pytest.raises(BudgetExceededError,
                       match="would read 3125 codewords, budget is 3124"):
        cod.min_distance(c, budget=3124)


def test_scale_zero_word():
    c = cod.scale_to_fq(_code(5))
    assert (c.codewords == 0).all(axis=1).any()


def test_theta_identity_even_q():
    ctx = field_context(8)
    assert ctx.theta == 1  # T0 = GF(q), scaling is the identity
    ec = _code(8)
    c = cod.scale_to_fq(ec)
    assert (c.codewords == ec.codewords).all()


def test_scale_rejects_non_trace_zero_input():
    ec = _code(5)
    bad = cod.EvalCode(ec.params, ec.omega, ec.codewords[:4].copy())
    ctx = ec.params.ctx
    nz = next(x for x in range(ctx.q2) if ctx.trace(x) != 0)
    bad.codewords[0, 0] = nz
    with pytest.raises(RuntimeError):
        cod.scale_to_fq(bad)


@pytest.mark.parametrize("q,d", [(5, 1), (7, 3), (8, 4)])
def test_min_distance(q, d):
    c = cod.scale_to_fq(_code(q))
    assert cod.min_distance(c) == d == q - 4
    assert c.is_mds  # d = n - k + 1
    assert naive_min_weight(c.codewords) == d


def test_no_nonzero_word_has_five_zeros():
    c = cod.scale_to_fq(_code(7))
    zero_counts = (c.codewords == 0).sum(axis=1)
    nonzero = np.count_nonzero(c.codewords, axis=1) > 0
    assert zero_counts[nonzero].max() == 4


def test_gf_q_linearity_exhaustive_q5():
    # closure under addition and scalars via the span: rank 5 and q^5 words
    c = cod.scale_to_fq(_code(5))
    assert c.dimension == 5
    assert len(np.unique(c.codewords, axis=0)) == 5**5
    # spot-check: random F_q combinations of codewords stay inside
    Fq = field_context(5).Fq
    words = {tuple(int(v) for v in row) for row in c.codewords}
    rng = random.Random(4)
    rows = list(words)
    for _ in range(200):
        u = rng.choice(rows)
        v = rng.choice(rows)
        lam = rng.randrange(5)
        combo = tuple(Fq.add(a, Fq.mul(lam, b)) for a, b in zip(u, v))
        assert combo in words


def test_generator_matrix_spans_code():
    q = 5
    c = cod.scale_to_fq(_code(q))
    Fq = field_context(q).Fq
    span = set()
    from itertools import product as iproduct

    for coeffs in iproduct(range(q), repeat=5):
        word = [0] * c.length
        for lam, row in zip(coeffs, c.generator):
            if lam:
                word = [Fq.add(w, Fq.mul(lam, int(x))) for w, x in zip(word, row)]
        span.add(tuple(word))
    assert span == {tuple(int(v) for v in row) for row in c.codewords}


# -- Reed-Solomon equivalence --------------------------------------------------------

def test_rs_equivalence_q7_two_sided():
    ec = _code(7)
    c = cod.scale_to_fq(ec)
    rep = cod.rs_equivalence_check(c, ec.omega)
    assert rep.consistent and rep.mismatches == 0
    assert rep.distinct_codewords == 7**5 == rep.expected_codewords
    assert rep.two_sided and rep.first_mismatch is None


def test_rs_equivalence_q5_degenerate():
    ec = _code(5)
    c = cod.scale_to_fq(ec)
    rep = cod.rs_equivalence_check(c, ec.omega)
    assert rep.two_sided  # both sides are all of GF(5)^5


def test_rs_zero_codeword_interpolates_to_zero():
    # implicit in consistency, but check the interpolation path directly
    q = 7
    ec = _code(q)
    c = cod.scale_to_fq(ec)
    Fq = field_context(q).Fq
    psi = ec.omega.psi
    vand = [[Fq.pow(psi[i], k) for k in range(5)] for i in range(5)]
    vinv = linalg.inv_matrix(Fq, vand)
    zrow = next(r for r in c.codewords if not r.any())
    coeffs = [0] * 5
    for k in range(5):
        for i in range(5):
            coeffs[k] = Fq.add(coeffs[k], Fq.mul(vinv[k][i], int(zrow[i])))
    assert coeffs == [0] * 5


def test_rs_mismatch_detected_on_doctored_code():
    ec = _code(7)
    c = cod.scale_to_fq(ec)
    doctored = c.codewords.copy()
    doctored[10, 6] = (doctored[10, 6] + 1) % 7
    fake = cod.FqLinearCode(7, 7, doctored, c.dimension, c.generator)
    rep = cod.rs_equivalence_check(fake, ec.omega)
    assert rep.mismatches >= 1 and not rep.two_sided
    assert rep.first_mismatch == (10, 6)


@pytest.mark.parametrize("doctor", ["duplicate", "same-head"])
def test_rs_distinct_count_on_doctored_words(doctor):
    # a copied row stays consistent, so only the five-coordinate keys count
    # it; rows that share their first five coordinates but differ after
    # them are mismatches, so the whole rows are counted
    q = 7
    ec = _code(q)
    c = cod.scale_to_fq(ec)
    words = c.codewords.copy()
    if doctor == "duplicate":
        words[3] = words[11]
    else:
        words[3] = words[11]
        words[3, 6] = (words[3, 6] + 1) % q
        words[20, :5] = words[11, :5]
    fake = cod.FqLinearCode(q, q, words, c.dimension, c.generator)
    rep = cod.rs_equivalence_check(fake, ec.omega)
    bad = [(row, j) for row in (3, 20)
           for j in _interpolant_mismatches(field_context(q).Fq, ec.omega.psi,
                                            words[row])]
    assert rep.checked == q**5 and rep.expected_codewords == q**5
    distinct = {"duplicate": q**5 - 1, "same-head": q**5}[doctor]
    assert rep.distinct_codewords == len(np.unique(words, axis=0)) == distinct
    assert rep.mismatches == len(bad)
    assert rep.first_mismatch == (bad[0] if bad else None)
    assert (rep.mismatches == 0) == (doctor == "duplicate")
    assert not rep.two_sided


def _interpolant_mismatches(Fq, psi, word):
    """Coordinates j >= 5 where the word leaves its degree-<=4 interpolant
    through coordinates 0..4, by scalar Lagrange evaluation."""
    bad = []
    for j in range(5, len(word)):
        value = 0
        for i in range(5):
            num, den = 1, 1
            for m in range(5):
                if m != i:
                    num = Fq.mul(num, Fq.sub(psi[j], psi[m]))
                    den = Fq.mul(den, Fq.sub(psi[i], psi[m]))
            value = Fq.add(value, Fq.mul(int(word[i]), Fq.mul(num, Fq.inv(den))))
        if value != int(word[j]):
            bad.append(j)
    return bad


@pytest.mark.parametrize("col", [7, 2], ids=["tail", "head"])
def test_rs_mismatch_at_first_middle_last_row_even_q(col):
    # characteristic 2: subtraction is addition, and theta = 1; a doctored
    # head coordinate moves the interpolant, a tail one only misses itself
    q = 8
    ec = _code(q)
    c = cod.scale_to_fq(ec)
    Fq = field_context(q).Fq
    N = len(c.codewords)
    for row in (0, N // 2, N - 1):
        doctored = c.codewords.copy()
        doctored[row, col] = Fq.add(int(doctored[row, col]), 1)
        fake = cod.FqLinearCode(q, q, doctored, c.dimension, c.generator)
        rep = cod.rs_equivalence_check(fake, ec.omega)
        assert rep.checked == q**5 and not rep.two_sided
        bad = _interpolant_mismatches(Fq, ec.omega.psi, doctored[row])
        assert rep.first_mismatch == (row, bad[0])
        assert rep.mismatches == len(bad)
        assert col < 5 or bad == [col]


def test_span_proof_catches_a_row_at_first_middle_last_position():
    q = 8
    ctx = field_context(q)
    words = cod.scale_to_fq(_code(q)).codewords
    N = len(words)
    for row in (0, N // 2, N - 1):
        doctored = words.copy()
        # adds 1 in characteristic 2; the result is a codeword only if the
        # weight-1 difference were one, and d = q - 4 > 1
        doctored[row, 0] ^= 1
        c = cod._fq_code(ctx, doctored)
        assert c.dimension == 6, row


def test_mds_code_is_the_oa_code_punctured_to_omega():
    # both evaluate family members over W in W order; the code keeps the q
    # members whose head (w1, w2) lies in Omega, column w1 q^2 + w2 of the OA
    q = 5
    params = _params(q)
    ec = cod.build_code(params)
    A = oam.build_oa(params)
    columns = [w1 * q * q + w2 for w1, w2 in ec.omega.pairs]
    assert ec.codewords.shape == (q**5, q)
    assert np.array_equal(ec.codewords,
                          np.array(A.level_map)[A.entries][:, columns])


# -- double extension ------------------------------------------------------------------

@pytest.mark.parametrize("q,d2", [(5, 2), (7, 4), (8, 5)])
def test_doubly_extend(q, d2):
    ec = _code(q)
    dx = cod.doubly_extend(ec)
    assert dx.length == q + 1
    assert dx.dimension == 5
    assert cod.min_distance(dx) == d2 == q - 3
    assert dx.is_mds


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_puncture_of_the_extension_is_the_scaled_code(q):
    ec = _code(q)
    c = cod.scale_to_fq(ec)
    punctured = cod.puncture(cod.doubly_extend(ec))
    assert (punctured.q, punctured.length) == (q, q)
    assert np.array_equal(punctured.codewords, c.codewords)
    assert punctured.dimension == c.dimension == 5
    assert np.array_equal(punctured.generator, c.generator)
    assert punctured.whole


@pytest.mark.parametrize("q", [3, 4, 5])
def test_puncture_keeps_whole_only_when_the_last_column_is_no_pivot(q):
    # every vector of GF(q)^3 once is its whole span with a pivot in the last
    # column; cut off, its q^3 words fall on q^2 vectors, each q times.  The
    # words (x, y, x + y) are a whole span with no pivot there, and stay one
    ctx = field_context(q)
    space = np.indices((q, q, q), dtype=np.int16).reshape(3, -1).T.copy()
    cube = cod._fq_code(ctx, space)
    assert cube.whole and cube.generator[-1].tolist() == [0, 0, 1]
    punctured = cod.puncture(cube)
    assert punctured.dimension == 2 and len(punctured.codewords) == q ** 3
    assert not punctured.whole
    plane = np.array([[x, y, ctx.Fq.add(x, y)] for x in range(q)
                      for y in range(q)], dtype=np.int16)
    sum_code = cod._fq_code(ctx, plane)
    assert sum_code.whole and sum_code.dimension == 2
    assert cod.puncture(sum_code).whole


def test_extension_proof_catches_a_row_at_first_middle_last_position():
    # one row's appended coordinate alone is off; the extension then has a
    # pivot in its last column, which the puncture drops without touching
    # the rest of the generator, and the words stay short of its span
    q = 8
    ec = _code(q)
    ctx = ec.params.ctx
    c = cod.scale_to_fq(ec)
    plain = cod.doubly_extend(ec).codewords
    N = len(ec)
    for row in (0, N // 2, N - 1):
        doctored = plain.copy()
        doctored[row, q] ^= 1  # adds 1 in characteristic 2
        dx = cod._fq_code(ctx, doctored)
        assert dx.dimension == 6, row
        assert dx.generator[-1].tolist() == [0] * q + [1]
        # every row lies in the final span, which holds more than the rows
        _assert_in_span(dx, doctored)
        assert not dx.whole
        punctured = cod.puncture(dx)
        assert punctured.dimension == 5
        assert np.array_equal(punctured.generator, c.generator)
        assert np.array_equal(punctured.codewords, c.codewords)
        assert not punctured.whole
        assert cod.rs_certificate(punctured, ec.omega) is None


@pytest.mark.parametrize("first,second", [(0, 1), (0, 2**14), (2**14, 8**5 - 1)])
def test_extension_proof_finds_a_second_off_row_in_the_wide_walk(first, second):
    # past the first off row the span has 8^6 vectors, more than the 8^5
    # rows, and the walk still meets the second one: it adds e_0, outside
    # the code plus e_8 (no word has weight <= 2)
    q = 8
    ec = _code(q)
    plain = cod.doubly_extend(ec).codewords
    doctored = plain.copy()
    doctored[first, q] ^= 1
    doctored[second, 0] ^= 1
    dx = cod._fq_code(ec.params.ctx, doctored)
    assert dx.dimension == 7
    _assert_in_span(dx, doctored)
    assert not dx.whole
    expected = linalg.SpanBuilder(field_context(q).Fq, q + 1,
                                  cod._fq_code(ec.params.ctx, plain).generator)
    assert expected.add(doctored[first]) and expected.add(doctored[second])
    assert np.array_equal(dx.generator, expected.basis)
    assert dx.generator[-1].tolist() == [0] * q + [1]


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_extension_column_reads_y_off_the_row_number(q):
    # row r of the evaluation code is the point r of w_set: its appended
    # coordinate is the theta-rescaled L(eps)^q y^q - L(eps) y at its y
    ec = _code(q)
    ctx = ec.params.ctx
    F = ctx.Fq2
    c2 = geo.separating_map(ec.params, ctx.epsilon)
    ext = [F.sub(F.mul(ctx.frob[c2], ctx.frob[y]), F.mul(c2, y))
           for y in range(ctx.q2)]
    y = fam.w_set(ctx, 3)[:, 1]
    assert np.array_equal(cod.doubly_extend(ec).codewords[:, q],
                          ctx.over_theta(np.array(ext))[y])


def _count_spans(monkeypatch) -> list:
    real, shapes = linalg.row_space, []

    def counting(F, matrix):
        shapes.append(np.shape(matrix))
        return real(F, matrix)
    monkeypatch.setattr(linalg, "row_space", counting)
    return shapes


def test_code_doubly_extend_takes_one_span(monkeypatch, tmp_path):
    shapes = _count_spans(monkeypatch)
    res = CliRunner().invoke(main, ["code", "--q", "7", "--doubly-extend",
                                    "--out", str(tmp_path / "c7x")])
    assert res.exit_code == 0, res.output
    assert shapes == [(7**5, 8)]


def test_grid_code_check_takes_one_span(monkeypatch):
    shapes = _count_spans(monkeypatch)
    # at this budget the code check runs and the family, oracle and array skip
    report = run_grid(GridSpec.of((3, 5), budget=10**5))
    assert report["instances"][0]["checks"]["code"]["ok"]
    assert shapes == [(5**5, 6)]


def _duplicate_a_word_for_the_span(monkeypatch):
    """The span proof sees word 10 as a copy of word 11: the span is the
    same, but the words are not the whole span, each once, so the
    certificate fails, and the scans run on the words as built."""
    span = linalg.row_space

    def duplicating(F, words):
        doctored = words.copy()
        doctored[10] = words[11]
        return span(F, doctored)
    monkeypatch.setattr(linalg, "row_space", duplicating)


@pytest.mark.parametrize("argv,calls,exit_code", [
    (["code", "--q", "7"], 1, 0),
    (["code", "--q", "7", "--doubly-extend"], 2, 0),
    # the grid's code check passes; the intersection matrix is over budget
    (["grid", "--instances", "3,5"], 2, 1),
], ids=["code", "doubly-extend", "grid"])
def test_min_distance_scans_within_the_command_budget(monkeypatch, tmp_path,
                                                      argv, calls, exit_code):
    # 7^6 <= budget: the code is built, and every scan must get the same budget
    if argv[0] == "code":
        _duplicate_a_word_for_the_span(monkeypatch)
    real, budgets = cod.min_distance, []

    def recording(code, budget=cod.DEFAULT_BUDGET):
        budgets.append(budget)
        return real(code, budget)
    monkeypatch.setattr(cod, "min_distance", recording)
    budget = 7**6 + 1
    res = CliRunner().invoke(main, [*argv, "--budget", str(budget),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == exit_code, res.output
    assert budgets == [budget] * calls


# -- the span certificate ----------------------------------------------------------------

def _unproved(code):
    """The code without ``row_space``'s proof that its words are the whole
    span: ``whole`` takes its default, False."""
    return cod.FqLinearCode(code.q, code.length, code.codewords,
                            code.dimension, code.generator)


def test_certificate_needs_the_whole_span():
    q = 7
    ec = _code(q)
    dx = cod.doubly_extend(ec)
    for code in (dx, cod.puncture(dx)):
        assert code.whole
        unproved = _unproved(code)
        assert not unproved.whole
        assert cod.rs_certificate(unproved, ec.omega) is None
        assert unproved.min_dist is None and unproved.is_mds is None


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_certificate_agrees_with_the_scans(q):
    ec = _code(q)
    dx = cod.doubly_extend(ec)
    c = cod.puncture(dx)
    # the punctured code: every report field, d and the MDS flag
    scanned = _unproved(c)
    rs = cod.check_code(scanned, ec.omega)
    assert rs == cod.rs_equivalence_check(scanned, ec.omega)
    assert cod.rs_certificate(c, ec.omega) == rs
    assert (c.min_dist, c.is_mds) == (scanned.min_dist, scanned.is_mds)
    assert (rs.checked, rs.mismatches, rs.distinct_codewords,
            rs.expected_codewords, rs.first_mismatch) == (q**5, 0, q**5, q**5, None)
    # the extension: the same report (its words are the punctured words and
    # their interpolants' leading coefficients), d = q - 3
    scanned = _unproved(dx)
    assert cod.check_code(scanned, ec.omega) is None
    assert cod.rs_certificate(dx, ec.omega) == rs
    assert (dx.min_dist, dx.is_mds) == (scanned.min_dist, scanned.is_mds) == (q - 3, True)


def test_certificate_rejects_a_generator_of_another_span():
    # the whole span, but one free entry of the RREF moved: rank 6 with V
    q = 7
    c = cod.puncture(cod.doubly_extend(_code(q)))
    omega = cod.omega_set(field_context(q))
    free = next(j for j in range(q) if j not in range(5))
    for row in range(5):
        generator = c.generator.copy()
        generator[row, free] = (generator[row, free] + 1) % q
        other = cod.FqLinearCode(q, q, c.codewords, 5, generator, whole=c.whole)
        assert cod.rs_certificate(other, omega) is None
        assert other.min_dist is None and other.is_mds is None


def test_certificate_needs_distinct_keys_and_distinct_points():
    q = 7
    ec = _code(q)
    c = cod.puncture(cod.doubly_extend(ec))
    words = c.codewords.copy()
    words[10] = words[11]
    twice = cod._fq_code(ec.params.ctx, words)
    assert twice.dimension == 5 and not twice.whole
    assert cod.rs_certificate(twice, ec.omega) is None
    # the whole span of V at points with a repeat: rank 5 with V, but two
    # coordinates always agree, so the code is not MDS
    Fq = field_context(q).Fq
    psi = (ec.omega.psi[1],) + ec.omega.psi[1:]
    span = linalg.SpanBuilder(Fq, q)
    for k in range(5):
        span.add([Fq.pow(t, k) for t in psi])
    claimed = cod.FqLinearCode(q, q, c.codewords, 5, span.basis, whole=True)
    assert cod.rs_certificate(claimed, cod.OmegaSet(ec.omega.pairs, psi)) is None
    assert claimed.min_dist is None
    assert cod.rs_certificate(c, ec.omega) is not None


@pytest.mark.parametrize("length", ["punctured", "extended"])
def test_a_code_without_keys_takes_the_scans(monkeypatch, length):
    q = 7
    ec = _code(q)
    dx = cod.doubly_extend(ec)
    code = _unproved(cod.puncture(dx) if length == "punctured" else dx)
    calls = []
    for name in ("min_distance", "rs_equivalence_check"):
        real = getattr(cod, name)
        monkeypatch.setattr(cod, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    rs = cod.check_code(code, ec.omega, 10**6)
    if length == "punctured":
        assert calls == ["min_distance", "rs_equivalence_check"]
        assert rs.two_sided and code.min_dist == q - 4
    else:
        assert calls == ["min_distance"] and rs is None
        assert code.min_dist == q - 3
    assert code.is_mds


def test_code_command_takes_no_scan(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("scan run")
    monkeypatch.setattr(cod, "min_distance", refuse)
    monkeypatch.setattr(cod, "rs_equivalence_check", refuse)
    res = CliRunner().invoke(main, ["code", "--q", "7", "--doubly-extend",
                                    "--out", str(tmp_path / "c7x")])
    assert res.exit_code == 0, res.output
    assert "[7,5,3] doubly extended to [8,5,4]: ok" in res.output


def test_zero_matrix_spans_rank_zero_code():
    ctx = field_context(7)
    for ncols in (7, 8):
        c = cod._fq_code(ctx, np.zeros((4, ncols), dtype=np.int32))
        assert c.dimension == 0 and c.generator.shape == (0, ncols)


def test_doubly_extend_zero_row():
    dx = cod.doubly_extend(_code(5))
    assert (dx.codewords == 0).all(axis=1).any()


@pytest.mark.parametrize("q", [5, 7, 8])
def test_extension_column_is_leading_coefficient(q):
    # appended coordinate == t^4 coefficient of the interpolating polynomial,
    # on every row; q = 8 pins the even case, where 2a = 0
    ec = _code(q)
    c = cod.scale_to_fq(ec)
    dx = cod.doubly_extend(ec)
    assert (dx.codewords[:, :q] == c.codewords).all()
    Fq = field_context(q).Fq
    add, mul = Fq.np_add_table(), Fq.np_mul_table()
    psi = ec.omega.psi
    vand = [[Fq.pow(psi[i], k) for k in range(5)] for i in range(5)]
    vinv = linalg.inv_matrix(Fq, vand)
    lead = np.zeros(len(c.codewords), dtype=np.int32)
    for i in range(5):
        lead = add[lead, mul[vinv[4][i]][c.codewords[:, i]]]
    assert (lead == dx.codewords[:, q]).all()


# -- exports ----------------------------------------------------------------------------

def test_write_code_deterministic(tmp_path):
    q = 5
    ec = _code(q)
    c = cod.scale_to_fq(ec)
    cod.min_distance(c)
    rep = cod.rs_equivalence_check(c, ec.omega)
    p1 = cod.write_code(c, ec, str(tmp_path / "one"), rep)
    p2 = cod.write_code(c, ec, str(tmp_path / "two"), rep)
    for a, b in zip(p1, p2):
        assert Path(a).read_bytes() == Path(b).read_bytes()
    meta = cod.code_metadata(c, ec, cod.generator_matrix_text(c), rep)
    assert meta["dimension"] == 5 and meta["min_distance"] == 1
    assert meta["rs_equivalence"]["two_sided"]


def test_codeword_dump(tmp_path):
    q = 5
    ec = _code(q)
    c = cod.scale_to_fq(ec)
    paths = cod.write_code(c, ec, str(tmp_path / "dump"), dump_codewords=True)
    words = Path(paths[-1]).read_text().strip().split("\n")
    assert len(words) == 5**5


@pytest.mark.parametrize("q", [7, 8])
def test_gf_q_linearity_sampled(q):
    c = cod.scale_to_fq(_code(q))
    Fq = field_context(q).Fq
    words = {tuple(int(v) for v in row) for row in c.codewords}
    rows = list(words)
    rng = random.Random(q)
    for _ in range(150):
        u, v = rng.choice(rows), rng.choice(rows)
        lam = rng.randrange(q)
        combo = tuple(Fq.add(a, Fq.mul(lam, b)) for a, b in zip(u, v))
        assert combo in words
