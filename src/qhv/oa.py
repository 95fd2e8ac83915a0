"""Orthogonal arrays from the intersecting family, with exhaustive checks.

Rows are the reference grid W (x_0 = 1, x_n in the transversal), columns the
family forms in R order, entries the trace-zero form values relabelled
0..q-1 by canonical element order.  The result is a simple
OA(q^{2n-1}, q^{2n-2}, q, 2) of index q^{2n-3}.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .intersecting_family import family, form_values, w_set
from .fields import DEFAULT_BUDGET, BudgetExceededError
from .geometry import BMParams
from .linalg import distinct_rows

#: verify_strength stops listing violations after this many
MAX_VIOLATIONS = 1000


@dataclass
class OrthogonalArray:
    runs: int                 # N
    factors: int              # k
    levels: int               # v
    strength: int             # t
    index: int                # lambda = N / v^t
    entries: np.ndarray       # N x k over 0..v-1
    level_map: tuple[int, ...]  # level i <-> trace-zero element level_map[i]
    params: BMParams | None = None


@dataclass
class StrengthReport:
    strength: int
    index: int | None
    subsets_checked: int
    violations: list[tuple[tuple[int, ...], tuple[int, ...], int]]

    @property
    def ok(self) -> bool:
        return self.index is not None and not self.violations


def verify_strength(A: OrthogonalArray, t: int) -> StrengthReport:
    """Count symbol tuples in every N x t column subset.

    The array has strength t iff every tuple appears exactly N / v^t times.
    The subsets are taken a (t-1)-column prefix at a time, in lexicographic
    order: with key = the prefix symbols read base v, one bincount over
    (j - last - 1) v^t + key v + E[:, j] counts every t-subset that extends
    the prefix by a later column j.  Violations are reported, not raised, in
    (columns, symbol tuple) order, up to ``MAX_VIOLATIONS``.
    """
    if not 1 <= t <= A.factors:
        raise ValueError("strength must lie between 1 and the number of columns")
    N, k, v = A.runs, A.factors, A.levels
    if N % v**t:
        return StrengthReport(t, None, 0, [((), (), N)])
    lam = N // v**t
    entries = np.asarray(A.entries)
    weights = v ** np.arange(t - 2, -1, -1)
    violations = []
    checked = 0
    for prefix in combinations(range(k - 1), t - 1):
        last = prefix[-1] if prefix else -1
        later = entries[:, last + 1:]
        m = later.shape[1]
        cells = (entries[:, list(prefix)] @ weights * v)[:, None] + later
        cells += np.arange(m) * v**t
        counts = np.bincount(cells.ravel(), minlength=m * v**t)
        for pos in np.flatnonzero(counts != lam).tolist():
            j, sym = divmod(pos, v**t)
            tup = tuple(sym // v**i % v for i in range(t - 1, -1, -1))
            violations.append((prefix + (last + 1 + j,), tup, int(counts[pos])))
            if len(violations) >= MAX_VIOLATIONS:
                return StrengthReport(t, lam, checked + j + 1, violations)
        checked += m
    return StrengthReport(t, lam, checked, violations)


def verify_simple(A: OrthogonalArray) -> bool:
    """True iff no two rows coincide."""
    return distinct_rows(A.entries) == A.runs


def build_oa(params: BMParams, budget: int = DEFAULT_BUDGET) -> OrthogonalArray:
    """Construct the array for these parameters; ``verify_strength`` and
    ``verify_simple`` check it."""
    ctx, n, q = params.ctx, params.n, params.ctx.q
    N = q ** (2 * n - 1)
    k = q ** (2 * n - 2)
    if N * k > budget:
        raise BudgetExceededError(
            f"array would have {N * k} cells, budget is {budget}")
    values = form_values(family(params), w_set(ctx, n))
    level = np.full(ctx.q2, -1, dtype=np.int16)
    level[list(ctx.t0)] = np.arange(q)
    entries = level[values]
    if np.any(entries < 0):
        i, j = np.argwhere(entries < 0)[0]
        raise RuntimeError(
            f"form value {values[i, j]} at row {i}, column {j} is not "
            "trace-zero; arithmetic bug")
    return OrthogonalArray(
        runs=N,
        factors=k,
        levels=q,
        strength=2,
        index=q ** (2 * n - 3),
        entries=entries,
        level_map=ctx.t0,
        params=params,
    )


# ---------------------------------------------------------------------------
# interchange format: CSV entries + JSON sidecar, byte-identical across runs
# ---------------------------------------------------------------------------

def oa_csv_bytes(A: OrthogonalArray) -> bytes:
    lines = [",".join(map(str, row)) for row in A.entries.tolist()]
    return ("\n".join(lines) + "\n").encode()


def oa_sidecar(A: OrthogonalArray, csv: bytes, strength: StrengthReport,
               simple: bool, extra_meta: dict | None = None) -> dict:
    """Metadata for the array and its CSV bytes, recording the caller's
    verification verdicts."""
    ctx = A.params.ctx if A.params is not None else None
    digest = hashlib.sha256(csv).hexdigest()
    sidecar = {
        "N": A.runs,
        "k": A.factors,
        "v": A.levels,
        "t": A.strength,
        "lambda": A.index,
        "simple": simple,
        "strength_ok": strength.ok and strength.index == A.index,
        "level_map": [
            {"level": i, "element": ctx.format_element(x) if ctx else x,
             "code": x}
            for i, x in enumerate(A.level_map)
        ],
        "row_order": "W lexicographic (x_n by transversal order)",
        "col_order": "R lexicographic in (alpha_1..alpha_{n-1})",
        "csv_sha256": digest,
    }
    if A.params is not None and ctx is not None:
        sidecar["field"] = ctx.to_json()
        sidecar["params"] = {
            "n": A.params.n,
            "a": A.params.a,
            "b": A.params.b,
            "a_digits": list(ctx.element_digits(A.params.a)),
            "b_digits": list(ctx.element_digits(A.params.b)),
            "condition": A.params.condition,
        }
    if extra_meta:
        sidecar["config"] = extra_meta
    return sidecar


def write_oa(A: OrthogonalArray, base_path: str, strength: StrengthReport,
             simple: bool, extra_meta: dict | None = None) -> tuple[str, str]:
    """Write <base>.csv and <base>.json; returns the two paths."""
    csv_path = base_path + ".csv"
    json_path = base_path + ".json"
    csv = oa_csv_bytes(A)
    with open(csv_path, "wb") as fh:
        fh.write(csv)
    with open(json_path, "w") as fh:
        json.dump(oa_sidecar(A, csv, strength, simple, extra_meta), fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
