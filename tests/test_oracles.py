import inspect
import json
import random
import re
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest
from click.testing import CliRunner

from qhv import collineations as col
from qhv import intersecting_family as fam
from qhv import geometry as geo
from qhv import oa as oam
from qhv import oracles
from qhv.cli import main
from qhv.fields import BudgetExceededError, field_context
from qhv.oracles import (
    GridInstance,
    GridSpec,
    naive_base_eval,
    naive_character_spectrum,
    naive_form_value,
    naive_point_image,
    naive_zero_set,
    run_grid,
    zero_set_masks,
)


def test_naive_point_image_matches_symbolic_apply():
    import random

    ctx = field_context(3)
    rng = random.Random(5)
    for _ in range(50):
        g = col.Collineation(tuple(rng.randrange(9) for _ in range(3)),
                             tuple(rng.randrange(9) for _ in range(2)))
        pt = (1,) + tuple(rng.randrange(9) for _ in range(3))
        assert naive_point_image(ctx, g, pt) == col.apply(ctx, g, pt)


def test_naive_base_eval_matches_structured():
    from itertools import product

    params = geo.scan_params(field_context(2), 2, mode="family")
    for pt in product(range(4), repeat=2):
        assert naive_base_eval(params, pt) == geo.bab_affine_eval(params, pt)


def test_naive_form_value_matches_coefficient_table():
    params = geo.scan_params(field_context(3), 2, mode="family")
    R = col.build_R(params)
    base = fam.base_form(params)
    points = list(product(range(9), repeat=2))[:30]
    values = fam.form_values(params, *fam.family(params), points)
    for m, g in enumerate(R):
        f = col.act_on_form(g, base)
        for r, pt in enumerate(points):
            assert naive_form_value(params, g, pt) == f.evaluate(pt) \
                == values[r, m]


def test_grid_small_instances_pass():
    report = run_grid(GridSpec.of((2, 3), (3, 2)))
    assert report["ok"]
    for inst in report["instances"]:
        assert inst["checks"]["oracle_agreement"]["ok"]
        assert inst["checks"]["mutual_mu"]["ok"]
        assert inst["checks"]["oa"]["ok"]
        assert inst["checks"]["row_injectivity"]["ok"]


def test_grid_qh3_path_at_2_4():
    report = run_grid(GridSpec.of((2, 4)))
    inst = report["instances"][0]
    assert inst["ok"]
    assert inst["params"]["condition"] == "QH3"
    assert inst["checks"]["two_character"]["ok"]


def test_grid_records_bad_b_instead_of_raising():
    spec = GridSpec((GridInstance(2, 3, a=1, b=1),))  # b in GF(q)
    report = run_grid(spec)
    assert not report["ok"]
    inst = report["instances"][0]
    assert not inst["checks"]["params"]["ok"]
    assert "GF(q)" in inst["checks"]["params"]["error"]


def test_grid_instance_with_only_b_picks_the_cli_pair(tmp_path):
    # a is scanned as `qhv oa --b` scans it, not fixed at a = 1
    ctx = field_context(3)
    picked = set()
    for b in (x for x in range(ctx.q2) if not ctx.in_subfield(x)):
        out = tmp_path / f"oa_b{b}"
        res = CliRunner().invoke(main, ["oa", "--q", "3", "--n", "2",
                                        "--b", str(b), "--out", str(out)])
        assert res.exit_code == 0, res.output
        recorded = json.loads(out.with_suffix(".json").read_text())["params"]
        inst = run_grid(GridSpec((GridInstance(2, 3, b=b),)))["instances"][0]
        assert inst["ok"]
        assert inst["params"] == {k: recorded[k] for k in ("a", "b", "condition")}
        picked.add(inst["params"]["a"])
    assert picked - {1}


def _variety(n, q):
    return geo.bm_variety(geo.scan_params(field_context(q), n, mode="variety"))


def _space(n, q):
    return geo.projective_points(field_context(q).Fq2, n).tolist()


SPECTRUM_INPUTS = {
    **{f"variety-{n}-{q}": (q, lambda n=n, q=q: _variety(n, q))
       for n, q in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]},
    # QH2 fails for every pair at (2, 3): not a two-character set
    "affine-2-3": (3, lambda: geo.bm_variety(
        geo.family_params(field_context(3), 2, 4, 3))),
    "full-PG(2,4)": (2, lambda: geo.point_set(2, _space(2, 2))),
    "random-PG(3,4)": (2, lambda: geo.point_set(
        3, random.Random(11).sample(_space(3, 2), 30))),
    "x3-zero-PG(3,4)": (2, lambda: geo.point_set(
        3, [p for p in _space(3, 2) if p[3] == 0])),
    "empty-PG(2,9)": (3, lambda: geo.point_set(2, [])),
}


@pytest.mark.parametrize("name", SPECTRUM_INPUTS)
def test_character_spectrum_matches_naive_oracle(name):
    q, make = SPECTRUM_INPUTS[name]
    ctx = field_context(q)
    S = make()
    naive = naive_character_spectrum(S, ctx, budget=10**6)
    assert geo.character_spectrum(S, ctx) == naive
    assert sum(naive.values()) == geo.num_projective_points(ctx.q2, S.n)
    if name.startswith("affine"):
        assert set(naive) != geo.expected_spectrum_support(2, q)
    if name.startswith("empty"):
        assert naive == Counter({0: 91})


def _sample(n, q, k, seed):
    return geo.point_set(n, random.Random(seed).sample(_space(n, q), k))


def _variety_minus_one(n, q):
    S = _variety(n, q)
    return geo.point_set(n, np.delete(S.points, 7, axis=0))


# every tail width t in 0..n-1 is forced on each set
TAIL_WIDTH_INPUTS = {
    "random-PG(2,81)": (9, lambda: _sample(2, 9, 20, 1)),
    "random-PG(3,16)": (4, lambda: _sample(3, 4, 15, 2)),
    "random-PG(4,4)": (2, lambda: _sample(4, 2, 60, 3)),
    "random-PG(2,4)": (2, lambda: _sample(2, 2, 8, 4)),
    "empty-PG(3,9)": (3, lambda: geo.point_set(3, [])),
    "full-PG(3,4)": (2, lambda: geo.point_set(3, _space(3, 2))),
    "variety-minus-one-3-2": (2, lambda: _variety_minus_one(3, 2)),
}


def _naive_counts_in_order(S, ctx):
    """|S meet h| for every h of ``projective_points``, in that order, one
    scalar dot product per point."""
    F = ctx.Fq2
    counts = []
    for h in geo.projective_points(F, S.n).tolist():
        count = 0
        for x in S.points.tolist():
            acc = 0
            for hi, xi in zip(h, x):
                acc = F.add(acc, F.mul(hi, xi))
            count += acc == 0
        counts.append(count)
    return counts


@pytest.mark.parametrize("name", TAIL_WIDTH_INPUTS)
def test_every_tail_width_matches_naive_oracle(name, monkeypatch):
    q, make = TAIL_WIDTH_INPUTS[name]
    ctx = field_context(q)
    S = make()
    naive = naive_character_spectrum(S, ctx, budget=10**6)
    for t in range(S.n):
        monkeypatch.setattr(geo, "_tail_width", lambda n, q2, npoints, t=t: t)
        assert geo.character_spectrum(S, ctx) == naive, t


@pytest.mark.parametrize("name", ["random-PG(4,4)", "random-PG(2,4)",
                                  "variety-minus-one-3-2"])
def test_every_tail_width_names_the_first_hyperplane_outside(name, monkeypatch):
    # the witness must follow projective_points order whatever the split
    q, make = TAIL_WIDTH_INPUTS[name]
    ctx = field_context(q)
    S = make()
    counts = _naive_counts_in_order(S, ctx)
    hyperplanes = [tuple(h) for h in geo.projective_points(ctx.Fq2, S.n).tolist()]
    for t in range(S.n):
        monkeypatch.setattr(geo, "_tail_width", lambda n, q2, npoints, t=t: t)
        assert geo.first_hyperplane_outside(S, ctx, set(counts)) is None
        for dropped in set(counts):
            first = counts.index(dropped)
            assert geo.first_hyperplane_outside(
                S, ctx, set(counts) - {dropped}) == (
                hyperplanes[first], dropped), (t, dropped)


PRIME_POWERS_TO_32 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                      29, 31, 32]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_32)
def test_tail_width_keeps_the_gather_under_the_cell_cap(q):
    q2 = q * q
    for n in range(2, 7):
        for npoints in (0, geo.hermitian_size(n, q),
                        geo.num_projective_points(q2, n)):
            t = geo._tail_width(n, q2, npoints)
            assert 0 <= t < n
            assert geo._gather_cells(q2, t) <= geo.SPECTRUM_INDEX_CELLS
    for t in range(5 - q):  # q = 2: t < 3, q = 3: t < 2
        idx = geo._tail_index(field_context(q).Fq2, q2, t)
        assert idx.size == geo._gather_cells(q2, t)


def test_naive_character_spectrum_budget():
    S = _variety(2, 3)  # 28 points, 91 lines
    ctx = field_context(3)
    assert naive_character_spectrum(S, ctx, budget=91 * 28)
    with pytest.raises(BudgetExceededError,
                       match="would take 2548 dot products, budget is 2547"):
        naive_character_spectrum(S, ctx, budget=91 * 28 - 1)


def test_grid_oracle_skipped_over_budget():
    # (2, 2): 4 forms x 16 affine points = 64 oracle evaluations; the variety
    # (8 affine points), 21 lines and 32 array cells fit either budget
    ok = run_grid(GridSpec.of((2, 2), budget=64))["instances"][0]
    assert ok["ok"] and ok["checks"]["oracle_agreement"]["pairs_checked"] == 6
    inst = run_grid(GridSpec.of((2, 2), budget=63))["instances"][0]
    assert not inst["ok"]
    assert inst["checks"]["oracle_agreement"] == {
        "ok": False,
        "skipped": "oracle zero sets would take 64 form evaluations, "
                   "budget is 63"}
    assert all(c["ok"] for name, c in inst["checks"].items()
               if name != "oracle_agreement")


def _family(n, q):
    return geo.scan_params(field_context(q), n, mode="family")


def _mask_sets(params, masks):
    points = list(product(range(params.ctx.q2), repeat=params.n))
    return [frozenset(points[i] for i in np.flatnonzero(row)) for row in masks]


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_zero_set_masks_match_naive_zero_set(n, q):
    params = _family(n, q)
    R = col.build_R(params)
    masks = zero_set_masks(params, R)
    assert masks.shape == (len(R), q ** (2 * n)) and masks.dtype == bool
    assert _mask_sets(params, masks) == [naive_zero_set(params, g) for g in R]


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (2, 4)])
def test_zero_set_masks_on_dense_collineations(n, q):
    params = _family(n, q)
    gs = _dense_collineations(params)
    masks = zero_set_masks(params, gs)
    assert _mask_sets(params, masks) == [naive_zero_set(params, g) for g in gs]


def _dense_collineations(params):
    # nonzero betas and alpha_n fill every entry the dense matrix can hold
    n, q2 = params.n, params.ctx.q2
    rng = random.Random(100 * n + params.ctx.q)
    return [col.Collineation(tuple(rng.randrange(q2) for _ in range(n - 1))
                             + (rng.randrange(1, q2),),
                             tuple(rng.randrange(1, q2) for _ in range(n - 1)))
            for _ in range(6)]


@pytest.mark.parametrize("members", ["R", "dense"])
@pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (3, 2)])
@pytest.mark.parametrize("per_block", [1, 5])
def test_zero_set_masks_do_not_depend_on_the_block(n, q, members, per_block,
                                                   monkeypatch):
    # one member per block (a single cell is under one member's q^{2n}
    # points), and blocks of 5 that split the members unevenly
    params = _family(n, q)
    gs = col.build_R(params) if members == "R" else _dense_collineations(params)
    assert len(gs) % 5
    cells = 1 if per_block == 1 else per_block * q ** (2 * n)
    monkeypatch.setattr(oracles, "ORACLE_BLOCK_CELLS", cells)
    masks = zero_set_masks(params, gs)
    assert _mask_sets(params, masks) == [naive_zero_set(params, g) for g in gs]


def test_zero_set_masks_peak_memory_follows_the_block():
    # (2, 8): 64 members x 4096 points; one block holds 4 members, and the
    # live index arrays of a block stay within 32 bytes per cell
    params = _family(2, 8)
    R = col.build_R(params)
    zero_set_masks(params, R)
    tracemalloc.start()
    try:
        masks = zero_set_masks(params, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= masks.nbytes + 32 * oracles.ORACLE_BLOCK_CELLS


def test_zero_set_masks_catch_a_wrong_power_table(monkeypatch):
    params = _family(2, 3)
    q = params.ctx.q
    R = col.build_R(params)
    naive = [naive_zero_set(params, g) for g in R]
    real = oracles._power_tables

    def x_q_for_x_2q(F, order, exponents):
        tables = real(F, order, exponents)
        tables[2 * q] = tables[q]
        return tables

    monkeypatch.setattr(oracles, "_power_tables", x_q_for_x_2q)
    assert _mask_sets(params, zero_set_masks(params, R)) != naive


def test_zero_set_masks_fill_the_scalar_tables_once_per_field():
    # the q^4 scalar add and mul calls are paid by the first call on a field
    params = _family(2, 3)
    R = col.build_R(params)
    oracles._scalar_tables.cache_clear()
    first = zero_set_masks(params, R)
    assert np.array_equal(zero_set_masks(params, R), first)
    info = oracles._scalar_tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert not any(t.flags.writeable
                   for t in oracles._scalar_tables(params.ctx.Fq2))


def test_oracles_share_no_optimized_evaluation_code():
    # qhv.oracles is the one deliberate second copy of the arithmetic
    source = inspect.getsource(oracles)
    shared = re.findall(r"\b(form_values|w_values|_head_values|act_on_form|"
                        r"separating_map|r_elements|"
                        r"coordinate_tables|affine_rhs|lex_grid|as_roots|"
                        r"transversal_roots|"
                        r"np_add_table|np_mul_table|np_neg_table|"
                        r"gram|gram_blocks|gram_dtype|linear_image|row_space|"
                        r"_prefix_sums|_tail_width|_tail_index|"
                        r"_gather_cells|_hyperplane_counts|"
                        r"first_hyperplane_outside|SPECTRUM_INDEX_CELLS)\b",
                        source)
    assert not shared


def _doctor_family(monkeypatch, member=2):
    """Shift u_1 of one family member by 1, so its form leaves the family."""
    real = oracles.family

    def doctored(params, heads=None, budget=oracles.DEFAULT_BUDGET):
        u, v = real(params, heads, budget)
        u = u.copy()
        u[member, 0] = params.ctx.Fq2.add(int(u[member, 0]), 1)
        return u, v

    monkeypatch.setattr(oracles, "family", doctored)


def _zero_sets(params, forms, points):
    """The zero set of every member of the arrays, over these points."""
    values = fam.form_values(params, *forms, points)
    return [{p for p, x in zip(points, column) if x == 0}
            for column in values.T]


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (2, 4)])
def test_grid_names_the_first_witness_of_a_doctored_family(n, q, monkeypatch):
    params = _family(n, q)
    R = col.build_R(params)
    passing = run_grid(GridSpec.of((n, q)))["instances"][0]["checks"]
    assert "witness" not in passing["mutual_mu"]
    assert "witness" not in passing["oracle_agreement"]
    _doctor_family(monkeypatch)
    forms = oracles.family(params, budget=10**6)
    checks = run_grid(GridSpec.of((n, q)))["instances"][0]["checks"]
    assert not checks["mutual_mu"]["ok"]
    assert not checks["oracle_agreement"]["ok"]
    points = list(product(range(q * q), repeat=n))
    zeros = _zero_sets(params, forms, points)
    naive = [naive_zero_set(params, g) for g in R]
    k, mu = len(R), q ** (2 * n - 2)
    pairs = [(i, j) for i in range(k) for j in range(k)]
    i, j = next((i, j) for i, j in pairs
                if i < j and len(zeros[i] & zeros[j]) != mu)
    assert checks["mutual_mu"]["witness"] == {
        "pair": [i, j], "count": len(zeros[i] & zeros[j]), "expected": mu}
    i, j = next((i, j) for i, j in pairs
                if len(zeros[i] & zeros[j]) != len(naive[i] & naive[j]))
    witness = checks["oracle_agreement"]["witness"]
    member, pt = witness.pop("member"), tuple(witness.pop("point"))
    in_oracle = witness.pop("in_oracle_zero_set")
    assert witness == {"pair": [i, j], "count": len(zeros[i] & zeros[j]),
                       "oracle_count": len(naive[i] & naive[j])}
    # the doctored member, at the first point where the two zero sets differ,
    # re-checked with the scalar oracle
    assert member == 2
    assert pt == next(p for p in points
                      if (p in naive[member]) != (p in zeros[member]))
    assert (naive_form_value(params, R[member], pt) == 0) == in_oracle
    assert (pt in zeros[member]) != in_oracle


def test_grid_cli_prints_the_witness_of_a_failing_check(monkeypatch, tmp_path):
    _doctor_family(monkeypatch)
    out = tmp_path / "g"
    res = CliRunner().invoke(main, ["grid", "--instances", "2,3",
                                    "--out", str(out)])
    assert res.exit_code == 1
    checks = json.loads(out.with_suffix(".json").read_text())[
        "instances"][0]["checks"]
    lines = res.stderr.splitlines()
    assert len(lines) == 2
    for line, name in zip(lines, ("mutual_mu", "oracle_agreement")):
        head, _, witness = line.partition(" first witness ")
        assert head == f"(n=2, q=3) {name}:"
        assert json.loads(witness) == checks[name]["witness"]


def test_grid_builds_r_and_the_family_once_per_instance(monkeypatch):
    # the grid's array is built from the family its mutual-mu check used
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(oracles, "build_R")
    counting(col, "build_R")
    counting(oracles, "family")
    counting(oam, "family")
    report = run_grid(GridSpec.of((2, 3), (3, 2), (2, 4)))
    assert report["ok"]
    assert calls == {"build_R": 3, "family": 3}


def test_grid_mutual_mu_histogram_counts_every_pair(monkeypatch):
    params = _family(2, 3)
    _doctor_family(monkeypatch)
    forms = oracles.family(params, budget=10**6)
    counts = fam.intersection_count(params, *forms)
    k = len(forms[0])
    expected = Counter(counts[i, j] for i in range(k) for j in range(i + 1, k))
    assert len(expected) > 1
    histogram = run_grid(GridSpec.of((2, 3)))["instances"][0]["checks"][
        "mutual_mu"]["histogram"]
    assert list(histogram.items()) == [(str(c), v)
                                       for c, v in sorted(expected.items())]
    assert sum(histogram.values()) == k * (k - 1) // 2


def test_grid_records_an_array_built_from_a_doctored_family(monkeypatch):
    _doctor_family(monkeypatch)
    inst = run_grid(GridSpec.of((2, 3)))["instances"][0]
    oa_check = inst["checks"]["oa"]
    assert not oa_check["ok"]
    assert re.fullmatch(r"form value \d+ at row \d+, column 2 is not "
                        r"trace-zero; arithmetic bug", oa_check["error"])
    assert "row_injectivity" not in inst["checks"]
