"""Acceptance gate: every criterion exact, exhaustive, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import functools

import numpy as np
import pytest

from qhv import codes as cod
from qhv import collineations as col
from qhv import intersecting_family as fam
from qhv import geometry as geo
from qhv import oa as oam
from qhv.fields import field_context
from qhv.linalg import distinct_rows
from qhv.oracles import DEFAULT_GRID, GridSpec, run_grid

FAMILY_GRID = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (3, 5)]


def _family_params(n, q):
    return geo.scan_params(field_context(q), n, mode="family")


@pytest.mark.parametrize("n,q", FAMILY_GRID)
def test_criterion_1_mutual_mu(n, q):
    """q^{2n-2} distinct varieties, every pairwise count exactly q^{2n-2}."""
    params = _family_params(n, q)
    forms = fam.family(params)
    mu = q ** (2 * n - 2)
    assert len(forms) == mu
    # self-intersection q^{2n-1} on the diagonal, mu between distinct members
    expected = np.full((mu, mu), mu)
    np.fill_diagonal(expected, q ** (2 * n - 1))
    counts = fam.intersection_count(forms)
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


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_criterion_3_mds_codes(q):
    """|C| = q^5, dimension 5, d = q-4 (brute force), MDS, RS-equivalent,
    doubly extended to [q+1, 5, q-3] MDS."""
    params = geo.scan_params(field_context(q), 3, mode="quasi_hermitian")
    ec = cod.build_code(params)
    assert len(ec) == q**5
    assert distinct_rows(ec.codewords) == q**5
    c = cod.scale_to_fq(ec)
    assert c.dimension == 5
    # every row lies in the span, so q^5 distinct rows make the whole span
    assert distinct_rows(c.codewords) == q ** c.dimension
    d = cod.min_distance(c)
    assert d == q - 4
    assert c.is_mds and d == c.length - c.dimension + 1
    rs = cod.rs_equivalence_check(c, ec.omega)
    assert rs.consistent and rs.two_sided
    dx = cod.doubly_extend(ec, c)
    assert (dx.length, dx.dimension) == (q + 1, 5)
    d2 = cod.min_distance(dx)
    assert d2 == q - 3 and dx.is_mds
    # sampled linearity of the scaled code
    import random

    rng = random.Random(q)
    Fq = field_context(q).Fq
    words = {row.tobytes() for row in c.codewords}
    for _ in range(100):
        u, v = rng.choice(c.codewords), rng.choice(c.codewords)
        lam = rng.randrange(q)
        combo = [Fq.add(int(x), Fq.mul(lam, int(y))) for x, y in zip(u, v)]
        assert np.array(combo, dtype=c.codewords.dtype).tobytes() in words
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
        forms = fam.family(params)
        W = fam.w_set(ctx, n).tolist()
        rows = {tuple(f.evaluate(p) for f in forms) for p in W}
        assert len(rows) == len(W) == q ** (2 * n - 1)
    grid_desc = ", ".join(f"({i['n']},{i['q']})" for i in report["instances"])
    print(f"\n[acceptance] criterion 6: PASS - oracle agreement on {grid_desc}; "
          f"row map injective at {injective_at}")


@pytest.mark.parametrize("n,q", [(2, 9), (3, 4)])
def test_criterion_6_oracle_agreement_beyond_default_grid(n, q):
    """Brute-force zero sets give every pairwise count at (2,9) and (3,4)
    too; a test-local spec leaves DEFAULT_GRID and its report as they are."""
    report = run_grid(GridSpec.of((n, q)))
    checks = report["instances"][0]["checks"]
    mu = q ** (2 * n - 2)
    pairs = mu * (mu - 1) // 2  # 3240 and 32640
    assert checks["oracle_agreement"] == {"ok": True, "pairs_checked": pairs}
    assert checks["mutual_mu"]["histogram"] == {str(mu): pairs}
    assert report["ok"], checks
    print(f"\n[acceptance] criterion 6 (n={n}, q={q}): PASS - oracle "
          f"zero sets agree on all {pairs} pairs, each meeting in {mu} points")
