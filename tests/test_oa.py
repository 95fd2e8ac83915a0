import json
from itertools import combinations

import numpy as np
import pytest

from qhv import geometry as geo
from qhv import linalg
from qhv import oa as oam
from qhv.fields import BudgetExceededError, field_context
from qhv.oracles import naive_strength_violations


def _build(n, q, **kw):
    params = geo.scan_params(field_context(q), n, mode="family")
    return oam.build_oa(params, **kw)


def test_oa_parameters_2_3():
    A = _build(2, 3)
    assert (A.runs, A.factors, A.levels, A.strength, A.index) == (27, 9, 3, 2, 3)
    assert A.entries.shape == (27, 9)
    assert A.entries.min() >= 0 and A.entries.max() < 3


def test_oa_parameters_3_2():
    A = _build(3, 2)
    assert (A.runs, A.factors, A.levels, A.index) == (32, 16, 2, 8)


def test_level_map_is_canonical_t0_order():
    A = _build(2, 3)
    ctx = field_context(3)
    assert A.level_map == ctx.t0 == tuple(sorted(ctx.t0))


def test_strength_two_exhaustive_2_3():
    A = _build(2, 3)
    rep = oam.verify_strength(A, 2)
    assert rep.ok and rep.index == 3
    assert rep.subsets_checked == 9 * 8 // 2
    assert not rep.violations


def test_strength_one_implied():
    A = _build(2, 3)
    rep = oam.verify_strength(A, 1)
    assert rep.ok and rep.index == 9  # N / v


def test_constant_column_breaks_strength():
    A = _build(2, 2)
    doctored = np.concatenate([A.entries, np.zeros((8, 1), dtype=np.int16)], axis=1)
    bad = oam.OrthogonalArray(8, 5, 2, 2, 2, doctored, A.level_map)
    rep = oam.verify_strength(bad, 2)
    assert not rep.ok
    assert any(4 in cols for cols, _, _ in rep.violations)
    # the dictionary-counting oracle sees the same violations
    naive = naive_strength_violations(doctored, 2, 2)
    assert {(c, s) for c, s, _ in rep.violations} == {(c, s) for c, s, _ in naive}


def _doctored(entries, q):
    """The entries and copies that break strength in different ways."""
    N, k = entries.shape
    rng = np.random.default_rng(N)
    flipped = entries.copy()
    rows = rng.integers(N, size=5)
    cols = rng.integers(k, size=5)
    flipped[rows, cols] = (flipped[rows, cols] + 1) % q
    constant = entries.copy()
    constant[:, k // 2] = q - 1
    zero = np.zeros_like(entries)
    # N - 1 rows: no multiple of v^t, so no index exists
    return {"built": entries, "flipped": flipped, "constant": constant,
            "zero": zero, "truncated": entries[1:]}


def _assert_unbalanced(rep, naive, N, v, t):
    """The oracle's "unbalanced" marker is a report with no index."""
    assert naive == [("unbalanced", N, v**t)]
    assert rep.index is None and not rep.ok
    assert rep.violations == [((), (), N)] and rep.subsets_checked == 0


def test_unbalanced_all_zero_array_matches_naive_oracle():
    # 8 rows and v^t = 9: the oracle says unbalanced, the report has no index
    entries = np.zeros((8, 3), dtype=np.int16)
    arr = oam.OrthogonalArray(8, 3, 3, 2, 0, entries, (0, 1, 2))
    _assert_unbalanced(oam.verify_strength(arr, 2),
                       naive_strength_violations(entries, 3, 2), 8, 3, 2)


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("n,q,cols", [
    *(pytest.param(n, q, None, id=f"{n}-{q}")
      for n, q in [(2, 2), (2, 3), (3, 2), (2, 4), (2, 5)]),
    pytest.param(2, 3, 1, id="one_column"),
])
def test_strength_matches_naive_oracle(n, q, cols, t):
    # cols keeps the leading columns: None all of them, 1 a one-column array
    A = _build(n, q)
    k = cols or A.factors
    for name, entries in _doctored(A.entries[:, :k], q).items():
        arr = oam.OrthogonalArray(len(entries), k, q, 2, A.index, entries,
                                  A.level_map)
        if t > k:
            with pytest.raises(ValueError):
                oam.verify_strength(arr, t)
            continue
        rep = oam.verify_strength(arr, t)
        naive = naive_strength_violations(entries, q, t)
        if name == "truncated":
            _assert_unbalanced(rep, naive, len(entries), q, t)
            continue
        assert rep.violations == naive[:oam.MAX_VIOLATIONS], name
        assert rep.index == A.runs // q**t
        subsets = list(combinations(range(k), t))
        assert type(rep.subsets_checked) is int  # reports are written as JSON
        if len(naive) < oam.MAX_VIOLATIONS:
            assert rep.subsets_checked == len(subsets), name
        else:  # stopped inside the subset of the last listed violation
            last_cols = naive[oam.MAX_VIOLATIONS - 1][0]
            assert rep.subsets_checked == subsets.index(last_cols) + 1, name


@pytest.mark.parametrize("n,q,checked", [(2, 4, 63), (3, 3, 112)])
def test_strength_stops_at_violation_cap(n, q, checked):
    A = _build(n, q)
    zero = oam.OrthogonalArray(A.runs, A.factors, q, 2, A.index,
                               np.zeros_like(A.entries), A.level_map)
    rep = oam.verify_strength(zero, 2)
    assert len(rep.violations) == oam.MAX_VIOLATIONS
    assert rep.subsets_checked == checked
    assert rep.violations[0] == ((0, 1), (0, 0), A.runs)
    assert rep.violations[1] == ((0, 1), (0, 1), 0)


def test_simple_and_duplicated_row():
    A = _build(2, 2)
    assert oam.verify_simple(A)
    doctored = A.entries.copy()
    doctored[1] = doctored[0]
    dup = oam.OrthogonalArray(8, 4, 2, 2, 2, doctored, A.level_map)
    assert not oam.verify_simple(dup)


def test_strength_beyond_columns_rejected():
    A = _build(2, 2)
    for t in (5, 0, -1):
        with pytest.raises(ValueError):
            oam.verify_strength(A, t)


def test_budget():
    params = geo.scan_params(field_context(9), 4, mode="family")
    with pytest.raises(BudgetExceededError):
        oam.build_oa(params)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_raw_values_trace_zero_via_level_map(n, q):
    # entries are indices into the trace-zero set; recover and re-check
    ctx = field_context(q)
    params = geo.scan_params(ctx, n, mode="family")
    A = oam.build_oa(params)
    from qhv.collineations import act_on_form, build_R
    from qhv.intersecting_family import base_form, w_set

    forms = [act_on_form(g, base_form(params)) for g in build_R(params)]
    W = w_set(ctx, n).tolist()
    for i, pt in enumerate(W):
        for j, f in enumerate(forms):
            assert f.evaluate(pt) == A.level_map[A.entries[i, j]]


def test_non_trace_zero_value_names_its_cell(monkeypatch):
    real = oam.w_values

    def corrupted(params, u, v):
        values = real(params, u, v)
        values[4, 2] = 1  # trace(1) = 2 in GF(9)
        return values

    monkeypatch.setattr(oam, "w_values", corrupted)
    with pytest.raises(RuntimeError, match="value 1 at row 4, column 2"):
        _build(2, 3)


def test_export_deterministic(tmp_path):
    A1 = _build(2, 3)
    A2 = _build(2, 3)
    assert oam.oa_csv_bytes(A1) == oam.oa_csv_bytes(A2)
    p1 = tmp_path / "first"
    p2 = tmp_path / "second"
    for A, p in ((A1, p1), (A2, p2)):
        oam.write_oa(A, str(p), oam.verify_strength(A, 2), oam.verify_simple(A))
    assert p1.with_suffix(".csv").read_bytes() == p2.with_suffix(".csv").read_bytes()
    assert p1.with_suffix(".json").read_bytes() == p2.with_suffix(".json").read_bytes()
    sidecar = json.loads(p1.with_suffix(".json").read_text())
    assert sidecar["N"] == 27 and sidecar["lambda"] == 3
    assert sidecar["simple"] and sidecar["strength_ok"]
    assert len(sidecar["level_map"]) == 3
    # CSV digest matches the bytes on disk
    import hashlib

    assert sidecar["csv_sha256"] == hashlib.sha256(
        p1.with_suffix(".csv").read_bytes()).hexdigest()


def _csv_by_row_join(entries) -> bytes:
    """Reference CSV: one comma join per row."""
    lines = [",".join(map(str, row)) for row in entries.tolist()]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("v", [2, 3, 10, 11, 32])
@pytest.mark.parametrize("k", [1, 2, 7])
def test_csv_matches_row_join(v, k):
    rng = np.random.default_rng(v * k)
    entries = rng.integers(v, size=(40, k)).astype(np.int16)
    entries[0] = v - 1  # the widest label in every column
    A = oam.OrthogonalArray(40, k, v, 2, 1, entries, tuple(range(v)))
    assert oam.oa_csv_bytes(A) == _csv_by_row_join(entries)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_w_intersections_match_zero_set_pairs(n, q):
    A = _build(n, q)
    zeros = [set(np.flatnonzero(col == 0).tolist()) for col in A.entries.T]
    expected = [[len(a & b) for b in zeros] for a in zeros]
    assert oam.w_intersections(A).tolist() == expected


def test_w_intersections_need_zero_at_level_zero():
    A = _build(2, 3)
    shifted = oam.OrthogonalArray(A.runs, A.factors, A.levels, 2, A.index,
                                  A.entries, A.level_map[1:] + A.level_map[:1])
    with pytest.raises(ValueError):
        oam.w_intersections(shifted)


# -- the linear-code certificate for t = 2 -------------------------------------

CERTIFIED = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5)]


def _as_array(A, entries):
    """A copy of A with other entries; params and level map kept."""
    return oam.OrthogonalArray(len(entries), entries.shape[1], A.levels, 2,
                               A.index, entries, A.level_map, A.params)


def _certificate_cases(A):
    """The built array and doctored copies, each with whether the
    certificate must accept it."""
    E = A.entries
    q, (N, k) = A.levels, E.shape
    rng = np.random.default_rng(N * k)
    swapped = E.copy()
    r1, r2 = 0, int(np.flatnonzero(E[:, 0] != E[0, 0])[0])
    swapped[[r1, r2], 0] = swapped[[r2, r1], 0]
    duplicated = E.copy()
    duplicated[:, k - 1] = E[:, 0]
    overwritten = E.copy()
    overwritten[N - 1] = E[1]
    cases = {"built": (E, True), "swapped": (swapped, False),
             "duplicated": (duplicated, False),
             "rows_permuted": (E[rng.permutation(N)], True),
             "row_overwritten": (overwritten, False)}
    if q > 2:  # c(column i) in GF(q) with c not in {0, 1}, back to levels
        ctx = A.params.ctx
        fq = ctx.over_theta(np.array(A.level_map))
        level_of = np.argsort(fq)
        c = 2 if q % 2 else ctx.Fq.generator
        scaled = E.copy()
        scaled[:, 1] = level_of[ctx.Fq.np_mul_table()[c][fq[E[:, 0]]]]
        cases["scaled_column"] = (scaled, False)
    return cases


@pytest.mark.parametrize("n,q", CERTIFIED, ids=[f"{n}-{q}" for n, q in CERTIFIED])
def test_certificate_agrees_with_gram_count_and_oracle(n, q):
    A = _build(n, q)
    for name, (entries, accepts) in _certificate_cases(A).items():
        arr = _as_array(A, entries)
        assert oam._is_linear_code_array(arr) is accepts, name
        rep = oam.verify_strength(arr, 2)
        assert rep == oam._count_strength(arr, 2), name
        assert rep.violations == naive_strength_violations(entries, q, 2)[
            :oam.MAX_VIOLATIONS], name
        assert rep.ok is accepts, name


@pytest.mark.parametrize("n,q", CERTIFIED, ids=[f"{n}-{q}" for n, q in CERTIFIED])
def test_certified_arrays_never_reach_the_gram_count(n, q, monkeypatch):
    class Counted(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Counted
    monkeypatch.setattr(linalg, "gram_blocks", refuse)
    A = _build(n, q)
    for name, (entries, accepts) in _certificate_cases(A).items():
        arr = _as_array(A, entries)
        if accepts:
            assert oam.verify_strength(arr, 2).ok, name
        else:
            with pytest.raises(Counted):
                oam.verify_strength(arr, 2)


def test_certificate_needs_params_and_a_scalar_level_map():
    A = _build(2, 5)

    def relabelled(level_map, params=A.params):
        return oam.OrthogonalArray(A.runs, A.factors, 5, 2, A.index,
                                   A.entries, level_map, params)
    unbuilt = relabelled(A.level_map, None)
    assert not oam._is_linear_code_array(unbuilt)
    # every level standing for one field element
    assert not oam._is_linear_code_array(relabelled((A.level_map[0],) * 5))
    # levels 1 and 2 swapped: no longer theta c i for one c, so the count
    # decides; a relabelling keeps the strength
    m = A.level_map
    swapped = relabelled((m[0], m[2], m[1]) + m[3:])
    assert not oam._is_linear_code_array(swapped)
    assert (oam.verify_strength(unbuilt, 2) == oam.verify_strength(swapped, 2)
            == oam.verify_strength(A, 2))


# -- exact strength: 3 at q = 2, 2 at q > 2 ------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_strength_three_at_q_two(n):
    # the code is RM(1, 2n - 2), whose dual (extended Hamming) has d = 4
    A = _build(n, 2)
    rep = oam.verify_strength(A, 3)
    assert rep.ok and rep.index == A.runs // 8


@pytest.mark.parametrize("n,q,count", [(2, 3, 3), (2, 4, 4), (3, 3, 27)])
def test_first_strength_three_violation_above_q_two(n, q, count):
    # the first three generator columns are collinear points of AG(2n-2, q)
    rep = oam.verify_strength(_build(n, q), 3)
    assert not rep.ok
    assert rep.violations[0] == ((0, 1, 2), (0, 0, 0), count)
    assert count == q ** (2 * n - 3)
