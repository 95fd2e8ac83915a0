"""Independent brute-force oracles and the verification grid.

Everything here re-derives results from first principles: group elements act
through dense matrix multiplication, forms are evaluated monomial by
monomial with generic exponentiation, tuples are counted with dictionaries.
None of it shares evaluation code with the optimized paths it checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import codes as codes_mod
from . import geometry as geo
from . import oa as oa_mod
from .collineations import Collineation, build_R, to_matrix
from .intersecting_family import family, intersection_count
from .fields import DEFAULT_BUDGET, BudgetExceededError, FieldCtx, field_context
from .geometry import BMParams, ParameterError


def naive_point_image(ctx: FieldCtx, g: Collineation, point) -> tuple[int, ...]:
    """Row vector times dense matrix, no block-structure shortcuts."""
    F = ctx.Fq2
    m = to_matrix(g)
    out = []
    for j in range(len(point)):
        acc = 0
        for i, xi in enumerate(point):
            acc = F.add(acc, F.mul(xi, m[i][j]))
        out.append(acc)
    return tuple(out)


def naive_base_eval(params: BMParams, x) -> int:
    """Monomial-by-monomial evaluation of the base affine equation."""
    ctx = params.ctx
    F = ctx.Fq2
    q = ctx.q
    *head, xn = x
    val = F.sub(F.pow(xn, q), xn)
    aq = F.pow(params.a, q)
    bq = F.pow(params.b, q)
    for xi in head:
        val = F.add(val, F.mul(aq, F.pow(xi, 2 * q)))
        val = F.sub(val, F.mul(params.a, F.pow(xi, 2)))
        val = F.sub(val, F.mul(F.sub(bq, params.b), F.pow(xi, q + 1)))
    return val


def naive_form_value(params: BMParams, g: Collineation, point) -> int:
    """F^g at an affine point, via F evaluated at the matrix image."""
    img = naive_point_image(params.ctx, g, (1,) + tuple(point))
    assert img[0] == 1
    return naive_base_eval(params, img[1:])


def naive_zero_set(params: BMParams, g: Collineation) -> frozenset:
    """All affine points annihilated by F^g."""
    ctx, n = params.ctx, params.n
    return frozenset(
        pt for pt in product(range(ctx.q2), repeat=n)
        if naive_form_value(params, g, pt) == 0
    )


def naive_intersection_count(params: BMParams, g1: Collineation,
                             g2: Collineation) -> int:
    """Double loop over all affine points, both forms evaluated naively."""
    ctx, n = params.ctx, params.n
    count = 0
    for pt in product(range(ctx.q2), repeat=n):
        if naive_form_value(params, g1, pt) == 0 and \
                naive_form_value(params, g2, pt) == 0:
            count += 1
    return count


def naive_character_spectrum(S: geo.PointSet, ctx: FieldCtx,
                             budget: int) -> Counter:
    """|S meet H| for every hyperplane H, one scalar dot product per point.

    Each hyperplane is written with its last nonzero dual coordinate equal
    to 1 (the optimized path normalizes the first one).  Raises
    ``BudgetExceededError`` when hyperplanes x max(|S|, 1) exceeds the budget.
    """
    F = ctx.Fq2
    n, q2 = S.n, ctx.q2
    if sum(q2**k for k in range(n + 1)) * max(len(S), 1) > budget:
        raise BudgetExceededError("naive hyperplane spectrum over budget")
    spectrum: Counter = Counter()
    for last in range(n + 1):
        for head in product(range(q2), repeat=last):
            h = head + (1,) + (0,) * (n - last)
            count = 0
            for x in S.points:
                acc = 0
                for hi, xi in zip(h, x):
                    acc = F.add(acc, F.mul(hi, xi))
                count += acc == 0
            spectrum[count] += 1
    return spectrum


def naive_strength_violations(entries, v: int, t: int) -> list:
    """Dictionary-counting re-check of the strength property."""
    entries = [tuple(int(x) for x in row) for row in entries]
    N = len(entries)
    k = len(entries[0])
    lam, rem = divmod(N, v**t)
    if rem:
        return [("unbalanced", N, v**t)]
    bad = []
    for cols in combinations(range(k), t):
        counts: dict = {}
        for row in entries:
            key = tuple(row[c] for c in cols)
            counts[key] = counts.get(key, 0) + 1
        for key in product(range(v), repeat=t):
            if counts.get(key, 0) != lam:
                bad.append((cols, key, counts.get(key, 0)))
    return bad


def naive_min_weight(matrix) -> int:
    """Pure-Python weight scan over the nonzero rows."""
    best = None
    for row in matrix:
        w = 0
        for x in row:
            if int(x) != 0:
                w += 1
        if w and (best is None or w < best):
            best = w
    if best is None:
        raise ValueError("all rows are zero")
    return best


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridInstance:
    n: int
    q: int
    a: int | None = None     # None: first admissible by lexicographic scan
    b: int | None = None


@dataclass(frozen=True)
class GridSpec:
    instances: tuple[GridInstance, ...]
    budget: int = DEFAULT_BUDGET   # bounds every enumeration of an instance

    @staticmethod
    def of(*nq_pairs, **kwargs) -> "GridSpec":
        return GridSpec(tuple(GridInstance(n, q) for n, q in nq_pairs), **kwargs)


DEFAULT_GRID = GridSpec.of((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))


def _check(report: dict, name: str, ok: bool, **info) -> None:
    report["checks"][name] = {"ok": bool(ok), **info}


def run_instance(inst: GridInstance, spec: GridSpec) -> dict:
    """Every headline claim for one (n, q), optimized paths against oracles."""
    n, q = inst.n, inst.q
    report: dict = {"n": n, "q": q, "checks": {}}
    ctx = field_context(q)
    try:
        params = geo.scan_params(ctx, n, mode="family", a=inst.a, b=inst.b)
    except ParameterError as exc:
        report["checks"]["params"] = {"ok": False, "error": str(exc)}
        report["ok"] = False
        return report
    report["params"] = {"a": params.a, "b": params.b,
                        "condition": params.condition}
    _check(report, "params", True, condition=params.condition)

    # variety size
    try:
        S = geo.bm_variety(params, budget=spec.budget)
        expected = geo.hermitian_size(n, q)
        _check(report, "variety_size", len(S) == expected,
               size=len(S), expected=expected)
    except BudgetExceededError as exc:
        _check(report, "variety_size", False, skipped=str(exc))
        S = None

    # hyperplane characters (only promised under a QH/classical label)
    if params.condition == "affine":
        pass
    elif S is None:
        _check(report, "two_character", False,
               skipped="the variety was skipped")
    else:
        try:
            spectrum = geo.character_spectrum(S, ctx, budget=spec.budget)
            support = set(spectrum)
            expected_support = geo.expected_spectrum_support(n, q)
            _check(report, "two_character", support == expected_support,
                   support=sorted(support),
                   expected=sorted(expected_support))
        except BudgetExceededError as exc:
            _check(report, "two_character", False, skipped=str(exc))

    # mutual intersection numbers, optimized and oracle
    R = build_R(params)
    forms = family(params, R)
    mu = q ** (2 * n - 2)
    _check(report, "family_size", len(forms) == mu, size=len(forms), expected=mu)
    k = len(forms)
    evals = len(R) * ctx.q2**n
    if k * k > spec.budget:
        # the oracle is compared against the matrix, so it goes too
        skipped = f"the {k} x {k} intersection matrix is over budget {spec.budget}"
        _check(report, "mutual_mu", False, skipped=skipped)
        _check(report, "oracle_agreement", False, skipped=skipped)
    else:
        mu_matrix = intersection_count(forms)
        counts = Counter(mu_matrix[np.triu_indices(k, 1)].tolist())
        _check(report, "mutual_mu", set(counts) <= {mu},
               histogram={str(c): v for c, v in sorted(counts.items())},
               expected_mu=mu)
        if evals > spec.budget:
            _check(report, "oracle_agreement", False,
                   skipped=f"oracle zero sets would take {evals} form "
                           f"evaluations, budget is {spec.budget}")
        else:
            # zero-set incidence, forms x affine points; its Gram matrix
            # counts every common zero, the diagonal included
            point_index = {pt: i for i, pt in
                           enumerate(product(range(ctx.q2), repeat=n))}
            incidence = np.zeros((len(R), len(point_index)), dtype=np.int32)
            for row, g in zip(incidence, R):
                row[[point_index[pt] for pt in naive_zero_set(params, g)]] = 1
            agree = np.array_equal(incidence @ incidence.T, mu_matrix)
            _check(report, "oracle_agreement", agree,
                   pairs_checked=k * (k - 1) // 2)

    # orthogonal array
    try:
        A = oa_mod.build_oa(params, budget=spec.budget, verify=False)
        strength = oa_mod.verify_strength(A, 2)
        simple = oa_mod.verify_simple(A)
        lam = q ** (2 * n - 3)
        _check(report, "oa", strength.ok and strength.index == lam and simple,
               N=A.runs, k=A.factors, v=A.levels, index=strength.index,
               expected_index=lam, simple=simple,
               violations=len(strength.violations))
        _check(report, "row_injectivity", simple)
    except BudgetExceededError as exc:
        _check(report, "oa", False, skipped=str(exc))

    # codes only exist in the n = 3 ambient with q > 4
    if n == 3 and q > 4:
        try:
            ec = codes_mod.build_code(params, budget=spec.budget)
        except BudgetExceededError as exc:
            _check(report, "code", False, skipped=str(exc))
        else:
            c = codes_mod.scale_to_fq(ec)
            d = codes_mod.min_distance(c)
            rs = codes_mod.rs_equivalence_check(c, ec.omega)
            dx = codes_mod.doubly_extend(ec)
            d2 = codes_mod.min_distance(dx)
            naive_d = naive_min_weight(c.codewords)
            _check(report, "code",
                   c.dimension == 5 and d == q - 4 and c.is_mds
                   and rs.two_sided and naive_d == d
                   and dx.dimension == 5 and d2 == q - 3 and dx.is_mds,
                   dimension=c.dimension, distance=d, extended_distance=d2,
                   rs_two_sided=rs.two_sided)

    report["ok"] = all(c["ok"] for c in report["checks"].values())
    return report


def run_grid(spec: GridSpec = DEFAULT_GRID) -> dict:
    """Machine-readable pass/fail per claim per instance."""
    instances = [run_instance(inst, spec) for inst in spec.instances]
    return {
        "instances": instances,
        "ok": all(i["ok"] for i in instances),
        "budgets": {"points": spec.budget, "cells": spec.budget},
    }
