"""Acceptance gate: every criterion exact, exhaustive, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import functools
import random

import numpy as np
import pytest

from qhv import codes as cod
from qhv import collineations as col
from qhv import intersecting_family as fam
from qhv import geometry as geo
from qhv import oa as oam
from qhv.fields import DEFAULT_BUDGET, field_context
from qhv.oracles import DEFAULT_GRID, GridSpec, run_grid, zero_set_masks

FAMILY_GRID = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (3, 5)]


def _family_params(n, q):
    return geo.scan_params(field_context(q), n, mode="family")


@pytest.mark.parametrize("n,q", FAMILY_GRID)
def test_criterion_1_mutual_mu(n, q):
    """q^{2n-2} distinct varieties, every pairwise count exactly q^{2n-2}."""
    params = _family_params(n, q)
    u, v = fam.family(params)
    mu = q ** (2 * n - 2)
    assert u.shape == v.shape == (mu, n - 1)
    # self-intersection q^{2n-1} on the diagonal, mu between distinct members
    expected = np.full((mu, mu), mu)
    np.fill_diagonal(expected, q ** (2 * n - 1))
    counts = fam.intersection_count(params, u, v)
    assert counts.shape == (mu, mu)
    bad = np.argwhere(counts != expected)
    assert bad.size == 0, bad[:5]
    pair_total = mu * (mu - 1) // 2
    print(f"\n[acceptance] criterion 1 (n={n}, q={q}): PASS - "
          f"{mu} varieties, all {pair_total} pairs meet in {mu} affine points")


OA_GRID = [(2, 2, 8, 4, 2, 2), (2, 3, 27, 9, 3, 3), (2, 4, 64, 16, 4, 4),
           (3, 2, 32, 16, 2, 8), (3, 3, 243, 81, 3, 27),
           (3, 4, 1024, 256, 4, 64), (3, 5, 3125, 625, 5, 125),
           (4, 3, 2187, 729, 3, 243)]


@functools.cache
def _oa(n, q):
    """The built array, shared by the OA criteria (nothing here mutates it)."""
    return oam.build_oa(_family_params(n, q))


@pytest.mark.parametrize("n,q,N,k,v,lam", OA_GRID)
def test_criterion_2_orthogonal_arrays(n, q, N, k, v, lam):
    """Simple OA(q^{2n-1}, q^{2n-2}, q, 2) with exact index q^{2n-3}."""
    assert lam == q ** (2 * n - 3)  # the index the construction guarantees
    A = _oa(n, q)
    assert (A.runs, A.factors, A.levels, A.strength) == (N, k, v, 2)
    report = oam.verify_strength(A, 2)
    assert report.ok and report.index == lam
    assert report.subsets_checked == k * (k - 1) // 2
    # the linear-code certificate gave the report; the Gram count agrees
    assert oam._is_linear_code_array(A)
    assert oam._count_strength(A, 2) == report
    assert oam.verify_simple(A)
    print(f"\n[acceptance] criterion 2 (n={n}, q={q}): PASS - "
          f"simple OA({N},{k},{v},2), index {lam}, exhaustive column pairs")


@pytest.mark.parametrize("n,q", [inst[:2] for inst in OA_GRID])
def test_criterion_2_w_relative_mu(n, q):
    """Mutually mu-intersecting relative to W: every member meets W in
    q^{2n-2} points and any two meet in W in exactly mu = q^{2n-3}."""
    A = _oa(n, q)
    k, mu = A.factors, q ** (2 * n - 3)
    expected = np.full((k, k), mu)
    np.fill_diagonal(expected, q ** (2 * n - 2))
    counts = oam.w_intersections(A)
    bad = np.argwhere(counts != expected)
    assert bad.size == 0, bad[:5]
    print(f"\n[acceptance] criterion 2 W-relative (n={n}, q={q}): PASS - "
          f"{k} members each meet W in {q ** (2 * n - 2)} points, all "
          f"{k * (k - 1) // 2} pairs meet in W in {mu}")


# family-admissible (a, b) per (n, q), a = 0 included: 632 pairs in all
EVERY_PAIR = {(2, 3): 30, (2, 4): 192, (3, 3): 30, (2, 5): 380}


def check_every_family_pair(n, q) -> int:
    """Every family-admissible (a, b), none sampled: q^{2n-2} members,
    mutual mu, the simple OA of strength 2 and index q^{2n-3}, brute-force
    zero sets that agree with the intersection matrix, and coefficient arrays
    that are the scalar pullbacks' rows.  Returns the number of pairs."""
    ctx = field_context(q)
    k = mu = q ** (2 * n - 2)
    lam = q ** (2 * n - 3)
    off = ~np.eye(k, dtype=bool)
    pairs = 0
    for a in range(ctx.q2):
        for b in range(ctx.q2):
            try:
                params = geo.family_params(ctx, n, a, b)
            except geo.ParameterError:
                continue
            pairs += 1
            u, v = fam.family(params)
            assert u.shape == v.shape == (k, n - 1), (a, b)
            counts = fam.intersection_count(params, u, v)
            assert (counts[off] == mu).all(), (a, b)
            A = oam.build_oa(params, forms=(u, v))
            report = oam.verify_strength(A, 2)
            assert report.ok and report.index == lam, (a, b)
            assert oam._is_linear_code_array(A), (a, b)
            assert oam._count_strength(A, 2) == report, (a, b)
            assert oam.verify_simple(A), (a, b)
            R = col.build_R(params)
            # float32 takes the BLAS path and is exact for counts below 2^24
            masks = zero_set_masks(params, R).astype(np.float32)
            assert np.array_equal(masks @ masks.T, counts), (a, b)
            base = fam.base_form(params)
            pulled = [col.act_on_form(g, base) for g in R]
            assert u.tolist() == [list(f.u) for f in pulled], (a, b)
            assert v.tolist() == [list(f.v) for f in pulled], (a, b)
    return pairs


@pytest.mark.parametrize("n,q", sorted(EVERY_PAIR))
def test_criteria_1_2_at_every_family_pair(n, q):
    pairs = check_every_family_pair(n, q)
    assert pairs == EVERY_PAIR[(n, q)]
    k = mu = q ** (2 * n - 2)
    print(f"\n[acceptance] criteria 1-2 at every pair (n={n}, q={q}): PASS - "
          f"{pairs} pairs, each {k} members meeting in {mu}, a simple "
          f"OA of index {q ** (2 * n - 3)}, oracle zero sets agreeing")


def _row_keys(words, base: int) -> np.ndarray:
    """Each row of ``words`` as one base-``base`` int64 key, first column
    most significant."""
    assert base ** words.shape[1] <= 2**63
    keys = np.zeros(len(words), dtype=np.int64)
    for column in words.T:
        keys = keys * base + column
    return keys


def _distinct(keys: np.ndarray) -> int:
    """Number of distinct keys, counted where the sorted keys change (a sort
    of int64 keys is far cheaper than ``np.unique``)."""
    keys = np.sort(keys)
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def _certified(code, omega):
    """``rs_certificate`` on a copy of the code, and the copy."""
    copy = cod.FqLinearCode(code.q, code.length, code.codewords,
                            code.dimension, code.generator, whole=code.whole)
    return cod.rs_certificate(copy, omega), copy


def check_mds_code(q, budget=DEFAULT_BUDGET) -> tuple[int, int]:
    """|C| = q^5, dimension 5, d = q-4 (brute force), MDS, RS-equivalent,
    doubly extended to [q+1, 5, q-3] MDS; ``budget`` bounds the codeword
    table and both scans.  The span certificate must give the scans' d,
    MDS flag and RS report, for both codes.  Returns the two minimum
    distances."""
    params = geo.scan_params(field_context(q), 3, mode="quasi_hermitian")
    ec = cod.build_code(params, budget=budget)
    assert len(ec) == q**5
    # rows that differ on their first five coordinates are distinct (and
    # any five coordinates of a [q, 5] MDS code determine its word)
    assert _distinct(_row_keys(ec.codewords[:, :5], q * q)) == q**5
    c = cod.scale_to_fq(ec)
    assert c.dimension == 5
    # every row lies in the span, so q^5 distinct rows make the whole span
    heads = _row_keys(c.codewords[:, :5], q)
    assert _distinct(heads) == q ** c.dimension
    d = cod.min_distance(c, budget)
    assert d == q - 4
    assert c.is_mds and d == c.length - c.dimension + 1
    rs = cod.rs_equivalence_check(c, ec.omega)
    assert rs.consistent and rs.two_sided
    cert, certified = _certified(c, ec.omega)
    assert cert == rs
    assert (certified.min_dist, certified.is_mds) == (d, c.is_mds)
    dx = cod.doubly_extend(ec)
    assert (dx.length, dx.dimension) == (q + 1, 5)
    # the extension spans the scaled code's words with one more coordinate
    punctured = cod.puncture(dx)
    assert np.array_equal(punctured.codewords, c.codewords)
    assert np.array_equal(punctured.generator, c.generator)
    d2 = cod.min_distance(dx, budget)
    assert d2 == q - 3 and dx.is_mds
    cert, certified = _certified(dx, ec.omega)
    assert cert == rs
    assert (certified.min_dist, certified.is_mds) == (d2, dx.is_mds)
    # sampled linearity of the scaled code
    rng = random.Random(q)
    Fq = field_context(q).Fq
    combos = []
    for _ in range(100):
        u, v = rng.choice(c.codewords), rng.choice(c.codewords)
        lam = rng.randrange(q)
        combos.append([Fq.add(int(x), Fq.mul(lam, int(y))) for x, y in zip(u, v)])
    # the heads cover 0..q^5-1, so each combination's head finds the one
    # codeword with those first five coordinates; it must be the whole word
    order = np.argsort(heads)
    combos = np.array(combos)
    found = order[np.searchsorted(heads[order], _row_keys(combos[:, :5], q))]
    assert np.array_equal(c.codewords[found], combos)
    return d, d2


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_criterion_3_mds_codes(q):
    d, d2 = check_mds_code(q)
    print(f"\n[acceptance] criterion 3 (q={q}): PASS - "
          f"[{q},5,{d}] MDS, RS-equivalent two-sided, extended [{q+1},5,{d2}] MDS")


CHARACTER_GRID = [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 3),
                  (6, 2)]


@pytest.mark.parametrize("n,q", CHARACTER_GRID)
def test_criterion_4_characters(n, q):
    """Exhaustive hyperplane spectra match the two Hermitian intersection
    numbers; sizes match q^3+1 (n=2) and the Hermitian count (n=3)."""
    ctx = field_context(q)
    params = geo.scan_params(ctx, n, mode="variety")
    S = geo.bm_variety(params)
    expected_size = geo.hermitian_size(n, q)
    assert len(S) == expected_size
    if n == 2:
        assert expected_size == q**3 + 1
    spectrum = geo.character_spectrum(S, ctx)
    support = set(spectrum)
    expected = geo.expected_spectrum_support(n, q)
    if n == 2:
        assert expected == {1, q + 1}
    assert support == expected, (support, expected)
    total = (ctx.q2 ** (n + 1) - 1) // (ctx.q2 - 1)
    assert sum(spectrum.values()) == total
    print(f"\n[acceptance] criterion 4 (n={n}, q={q}): PASS - "
          f"|M| = {len(S)}, spectrum support {sorted(support)} "
          f"({params.condition})")


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3)])
def test_criterion_5_stabilizer(n, q):
    """|Psi| = q^{2n-1} with sharply transitive affine action; at (2,3) no
    quotient of distinct R-members lies in Psi."""
    ctx = field_context(q)
    params = _family_params(n, q)
    members = [g for g in col.all_collineations(ctx, n) if col.in_psi(params, g)]
    assert len(members) == q ** (2 * n - 1)
    origin = (1,) + (0,) * n
    orbit = [col.apply(ctx, g, origin) for g in members]
    affine = {(1, *pt) for pt in geo.affine_points(params).tolist()}
    assert len(set(orbit)) == len(orbit)
    assert set(orbit) == affine
    checked_pairs = 0
    if (n, q) == (2, 3):
        R = col.build_R(params)
        for g in R:
            for g2 in R:
                if g == g2:
                    continue
                quot = col.compose(ctx, g, col.inverse(ctx, g2))
                assert not col.in_psi(params, quot)
                checked_pairs += 1
        assert checked_pairs == 9 * 8
    print(f"\n[acceptance] criterion 5 (n={n}, q={q}): PASS - "
          f"|Psi| = {len(members)}, sharply transitive"
          + (f", {checked_pairs} R-quotients outside Psi" if checked_pairs else ""))


def test_criterion_6_property_suite():
    """Oracle-vs-optimized agreement on every grid instance; row-map
    injectivity exhaustive at (2,2), (2,3), (3,2)."""
    report = run_grid(DEFAULT_GRID)
    for inst in report["instances"]:
        checks = inst["checks"]
        assert checks["oracle_agreement"]["ok"], inst
        assert inst["ok"], inst
    injective_at = [(2, 2), (2, 3), (3, 2)]
    for n, q in injective_at:
        ctx = field_context(q)
        params = _family_params(n, q)
        R = col.build_R(params)
        base = fam.base_form(params)
        forms = [col.act_on_form(g, base) for g in R]
        W = fam.w_set(ctx, n).tolist()
        rows = {tuple(f.evaluate(p) for f in forms) for p in W}
        assert len(rows) == len(W) == q ** (2 * n - 1)
    grid_desc = ", ".join(f"({i['n']},{i['q']})" for i in report["instances"])
    print(f"\n[acceptance] criterion 6: PASS - oracle agreement on {grid_desc}; "
          f"row map injective at {injective_at}")


@pytest.mark.parametrize("n,q", [(2, 9), (3, 4), (4, 3)])
def test_criterion_6_oracle_agreement_beyond_default_grid(n, q):
    """Brute-force zero sets give every pairwise count at (2,9), (3,4) and
    (4,3) too; a test-local spec leaves DEFAULT_GRID and its report as they
    are."""
    report = run_grid(GridSpec.of((n, q)))
    checks = report["instances"][0]["checks"]
    mu = q ** (2 * n - 2)
    pairs = mu * (mu - 1) // 2  # 3240, 32640 and 265356
    assert checks["oracle_agreement"] == {"ok": True, "pairs_checked": pairs}
    assert checks["mutual_mu"]["histogram"] == {str(mu): pairs}
    assert report["ok"], checks
    print(f"\n[acceptance] criterion 6 (n={n}, q={q}): PASS - oracle "
          f"zero sets agree on all {pairs} pairs, each meeting in {mu} points")
