"""Independent brute-force oracles and the verification grid.

Everything here re-derives results from first principles: group elements act
through dense matrix multiplication, forms are evaluated monomial by
monomial with generic exponentiation, tuples are counted with dictionaries.
None of it shares evaluation code with the optimized paths it checks.

The grid's brute-force zero sets (``zero_set_masks``) run the scalar
formulas on numpy arrays for a block of members at a time: every point goes
through the whole dense matrix, folded one point axis at a time, and every
table is filled from the scalar field ops.  A failing mutual-mu or oracle
check names its first witness pair, and the oracle check a point where the
form and its brute-force zero set disagree.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from . import codes as codes_mod
from . import geometry as geo
from . import oa as oa_mod
from ._record import record
from .collineations import Collineation, build_R, to_matrix
from .intersecting_family import AffineForm, family, intersection_count
from .fields import DEFAULT_BUDGET, BudgetExceededError, FieldCtx, field_context
from .params import BMParams, ParameterError


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


def _power_tables(F, order: int, exponents) -> dict:
    """x -> x^e for each exponent e, from scalar ``F.pow``."""
    return {e: np.array([F.pow(x, e) for x in range(order)], dtype=np.int32)
            for e in exponents}


@lru_cache(maxsize=8)
def _scalar_tables(F) -> tuple[np.ndarray, np.ndarray]:
    """Read-only add_flat and times, filled once per field from scalar
    ``F.add`` and ``F.mul``: add(u, v) = add_flat[u order + v]; times[c] is
    the row x -> x c."""
    elems = range(F.order)
    add_flat = np.array([F.add(x, y) for x in elems for y in elems],
                        dtype=np.int32)
    times = np.array([[F.mul(x, c) for x in elems] for c in elems],
                     dtype=np.int32)
    add_flat.flags.writeable = times.flags.writeable = False
    return add_flat, times


#: members per block times q^{2n} points stays at most this many cells
#: (at least one member per block), so each block's index arrays stay small
ORACLE_BLOCK_CELLS = 2**14


def _image_coordinate(add_flat: np.ndarray, times: np.ndarray, m: np.ndarray,
                      j: int) -> np.ndarray:
    """Coordinate j of (1, x_1..x_n) m for every matrix m of the block and
    every point, one row per matrix, points in ``product`` order: the sum
    x_0 m_0j + ... + x_n m_nj folded one point axis at a time."""
    q2 = len(times)
    # x_0 = 1 at every point: one value per matrix
    acc = add_flat.take(times[m[:, 0, j], 1])[:, None]
    for i in range(1, m.shape[1]):
        acc = add_flat.take((acc * q2)[:, :, None] + times[m[:, i, j]][:, None, :])
        acc = acc.reshape(len(m), -1)
    return acc


def zero_set_masks(params: BMParams, R, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Zero sets of F^g for every g in R, as a len(R) x q^{2n} boolean mask.

    Column j is the j-th affine point of ``product(range(q^2), repeat=n)``.
    The formulas are ``naive_form_value``'s, run on numpy arrays for a block
    of members at a time: each point (1, x_1..x_n) goes through the dense
    ``to_matrix(g)`` as a row times the whole matrix, and the base equation
    is a sum of one-coordinate terms.  x_i varies only along axis i of the
    point grid, so x_i m_ij is a table row broadcast along that axis, and
    image coordinate j is folded one axis at a time; only the last step
    works on the whole grid.  Every table is filled from the scalar field
    ops.  Raises ``BudgetExceededError`` when len(R) * q^{2n} evaluations
    exceed the budget.
    """
    ctx, n = params.ctx, params.n
    F, q, q2 = ctx.Fq2, ctx.q, ctx.q2
    evals = len(R) * q2**n
    if evals > budget:
        raise BudgetExceededError(f"oracle zero sets would take {evals} form "
                                  f"evaluations, budget is {budget}")
    elems = range(q2)
    add_flat, times = _scalar_tables(F)
    power = _power_tables(F, q2, (q, 2 * q, 2, q + 1))
    aq, bq = F.pow(params.a, q), F.pow(params.b, q)
    bq_b = F.sub(bq, params.b)
    # the base equation is last(y_n) + Sum_{i<n} head(y_i)
    last = np.array([F.add(power[q][y], F.neg(y)) for y in elems],
                    dtype=np.int32)
    head = np.array([F.add(F.add(F.mul(aq, power[2 * q][y]),
                                 F.neg(F.mul(params.a, power[2][y]))),
                           F.neg(F.mul(bq_b, power[q + 1][y])))
                     for y in elems], dtype=np.int32)
    mats = np.array([to_matrix(g) for g in R], dtype=np.intp).reshape(
        len(R), n + 1, n + 1)
    masks = np.empty((len(R), q2**n), dtype=bool)
    step = max(1, ORACLE_BLOCK_CELLS // q2**n)
    for start in range(0, len(R), step):
        m = mats[start:start + step]
        assert (_image_coordinate(add_flat, times, m, 0) == 1).all()
        val = last.take(_image_coordinate(add_flat, times, m, n))
        for j in range(1, n):
            y = _image_coordinate(add_flat, times, m, j)
            val = add_flat.take(val * q2 + head.take(y))
        masks[start:start + step] = val == 0
    return masks


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
    products = sum(q2**k for k in range(n + 1)) * max(len(S), 1)
    if products > budget:
        raise BudgetExceededError(f"naive hyperplane spectrum would take "
                                  f"{products} dot products, budget is {budget}")
    spectrum: Counter = Counter()
    for last in range(n + 1):
        for head in product(range(q2), repeat=last):
            h = head + (1,) + (0,) * (n - last)
            count = 0
            for x in S.points.tolist():
                acc = 0
                for hi, xi in zip(h, x):
                    acc = F.add(acc, F.mul(hi, xi))
                count += acc == 0
            spectrum[count] += 1
    return spectrum


def naive_strength_violations(entries, v: int, t: int) -> list:
    """Dictionary-counting re-check of the strength property."""
    columns = [tuple(int(x) for x in col) for col in zip(*entries)]
    N = len(entries)
    lam, rem = divmod(N, v**t)
    if rem:
        return [("unbalanced", N, v**t)]
    keys = list(product(range(v), repeat=t))
    bad = []
    for cols in combinations(range(len(columns)), t):
        counts = Counter(zip(*(columns[c] for c in cols)))
        for key in keys:
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

@record(frozen=True)
class GridInstance:
    n: int
    q: int
    a: int | None = None     # None: first admissible by lexicographic scan
    b: int | None = None


@record(frozen=True)
class GridSpec:
    instances: tuple[GridInstance, ...]
    budget: int = DEFAULT_BUDGET   # bounds every enumeration of an instance

    @staticmethod
    def of(*nq_pairs, **kwargs) -> "GridSpec":
        return GridSpec(tuple(GridInstance(n, q) for n, q in nq_pairs), **kwargs)


DEFAULT_GRID = GridSpec.of((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))


def _check(report: dict, name: str, ok: bool, **info) -> None:
    report["checks"][name] = {"ok": bool(ok), **info}


def _first_pair(bad: np.ndarray) -> list[int]:
    """The first [i, j] in row-major order where ``bad`` holds."""
    return list(divmod(int(np.flatnonzero(bad)[0]), bad.shape[1]))


def _oracle_witness(params: BMParams, forms, masks: np.ndarray,
                    mu_matrix: np.ndarray, oracle: np.ndarray) -> dict:
    """The first pair whose counts differ, and for the first of its members
    whose form and brute-force zero set differ, the first affine point (in
    ``product`` order) in one zero set and not in the other.  The member's
    form is evaluated by the scalar ``AffineForm.evaluate``."""
    i, j = _first_pair(oracle != mu_matrix)
    witness = {"pair": [i, j], "count": int(mu_matrix[i, j]),
               "oracle_count": int(oracle[i, j])}
    u, v = forms
    points = list(product(range(params.ctx.q2), repeat=params.n))
    for member in sorted({i, j}):
        form = AffineForm(params, tuple(u[member].tolist()),
                          tuple(v[member].tolist()), 0)
        for pt, in_oracle in zip(points, masks[member].tolist()):
            if (form.evaluate(pt) == 0) != in_oracle:
                return {**witness, "member": member, "point": list(pt),
                        "in_oracle_zero_set": in_oracle}
    return witness


def _check_family(report: dict, params: BMParams, spec: GridSpec) -> tuple | None:
    """family_size, mutual_mu and oracle_agreement; a stage over budget is
    recorded as skipped, together with every check that needs it.  Returns
    the family's (u, v), or None when it was skipped."""
    n, q = params.n, params.ctx.q
    try:
        forms = family(params, budget=spec.budget)
    except BudgetExceededError as exc:
        _check(report, "family_size", False, skipped=str(exc))
        for name in ("mutual_mu", "oracle_agreement"):
            _check(report, name, False, skipped="the family was skipped")
        return None
    k = len(forms[0])
    mu = q ** (2 * n - 2)
    _check(report, "family_size", k == mu, size=k, expected=mu)
    try:
        mu_matrix = intersection_count(params, *forms, spec.budget)
    except BudgetExceededError as exc:
        # the oracle is compared against the matrix, so it goes too
        for name in ("mutual_mu", "oracle_agreement"):
            _check(report, name, False, skipped=str(exc))
        return forms
    # histogram of the k(k-1)/2 counts above the diagonal, in count order
    tally = np.bincount(mu_matrix[np.triu_indices(k, 1)])
    counts = {int(c): int(tally[c]) for c in np.flatnonzero(tally)}
    mu_ok = set(counts) <= {mu}
    witness = {}
    if not mu_ok:
        i, j = _first_pair(np.triu(mu_matrix != mu, 1))
        witness["witness"] = {"pair": [i, j], "count": int(mu_matrix[i, j]),
                              "expected": mu}
    _check(report, "mutual_mu", mu_ok,
           histogram={str(c): v for c, v in counts.items()},
           expected_mu=mu, **witness)
    R = build_R(params, spec.budget)  # the oracle's dense matrices
    try:
        masks = zero_set_masks(params, R, spec.budget)
    except BudgetExceededError as exc:
        _check(report, "oracle_agreement", False, skipped=str(exc))
        return forms
    # zero-set incidence, forms x affine points; its Gram matrix counts every
    # common zero, the diagonal included (floats take the BLAS path; every
    # count is at most q^{2n}, exact in float32 below 2^24, else in float64)
    exact = np.float32 if masks.shape[1] < 2**24 else np.float64
    incidence = masks.astype(exact)
    oracle = incidence @ incidence.T
    agree = np.array_equal(oracle, mu_matrix)
    witness = {} if agree else {"witness": _oracle_witness(
        params, forms, masks, mu_matrix, oracle)}
    _check(report, "oracle_agreement", agree, pairs_checked=k * (k - 1) // 2,
           **witness)
    return forms


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
            spectrum = geo.character_spectrum(S, ctx, budget=spec.budget,
                                              params=params)
            support = set(spectrum)
            expected_support = geo.expected_spectrum_support(n, q)
            _check(report, "two_character", support == expected_support,
                   support=sorted(support),
                   expected=sorted(expected_support))
        except BudgetExceededError as exc:
            _check(report, "two_character", False, skipped=str(exc))

    forms = _check_family(report, params, spec)

    # orthogonal array
    try:
        A = oa_mod.build_oa(params, budget=spec.budget, forms=forms)
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
    except RuntimeError as exc:
        # the array is built from the checked family: a member that takes a
        # value outside the trace-zero set fails the check, naming its cell
        _check(report, "oa", False, error=str(exc))

    # codes only exist in the n = 3 ambient with q > 4
    if n == 3 and q > 4:
        try:
            ec = codes_mod.build_code(params, budget=spec.budget)
        except BudgetExceededError as exc:
            _check(report, "code", False, skipped=str(exc))
        else:
            dx = codes_mod.doubly_extend(ec)
            c = codes_mod.puncture(dx)
            d = codes_mod.min_distance(c, spec.budget)
            rs = codes_mod.rs_equivalence_check(c, ec.omega)
            d2 = codes_mod.min_distance(dx, spec.budget)
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
