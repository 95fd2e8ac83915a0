"""Orthogonal arrays from the intersecting family, with exhaustive checks.

Rows are the reference grid W (x_0 = 1, x_n in the transversal), columns the
family forms in R order, entries the trace-zero form values relabelled
0..q-1 by canonical element order.  The result is a simple
OA(q^{2n-1}, q^{2n-2}, q, 2) of index q^{2n-3}.
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np

from . import linalg
from ._record import record
from .intersecting_family import family, w_values
from .fields import DEFAULT_BUDGET, BudgetExceededError, format_rows
from .params import BMParams

#: verify_strength stops listing violations after this many
MAX_VIOLATIONS = 1000


@record
class OrthogonalArray:
    runs: int                 # N
    factors: int              # k
    levels: int               # v
    strength: int             # t
    index: int                # lambda = N / v^t
    entries: np.ndarray       # N x k over 0..v-1
    level_map: tuple[int, ...]  # level i <-> trace-zero element level_map[i]
    params: BMParams | None = None


@record
class StrengthReport:
    strength: int
    index: int | None
    subsets_checked: int
    violations: list[tuple[tuple[int, ...], tuple[int, ...], int]]

    @property
    def ok(self) -> bool:
        return self.index is not None and not self.violations


def verify_strength(A: OrthogonalArray, t: int) -> StrengthReport:
    """Check that every tuple of symbols appears exactly N / v^t times in
    every N x t column subset.

    For t = 2, an array built over GF(q) first gets a linear-code
    certificate (`_is_linear_code_array`); when it holds, every pair of
    columns is balanced and the report is the clean one the count would
    give.  Otherwise the tuples are counted (`_count_strength`), which alone
    names violations.
    """
    if t == 2 and 2 <= A.factors and _is_linear_code_array(A):
        k = A.factors
        return StrengthReport(2, A.runs // A.levels**2, k * (k - 1) // 2, [])
    return _count_strength(A, t)


def _is_linear_code_array(A: OrthogonalArray) -> bool:
    """Whether the rows are the codewords of a GF(q)-linear code, each once,
    whose generator columns are nonzero and pairwise non-proportional.

    Such an array has strength 2 with index N / q^2: for independent
    generator columns g_i, g_j the map m -> (m g_i, m g_j) from GF(q)^rank
    onto GF(q)^2 is linear and onto, so each pair of symbols has
    q^(rank-2) preimages (Delsarte's theorem at dual distance 3).  Level i
    must stand for theta c i, for one c != 0, as in every built array; the
    entries, read as GF(q) codes, are then c^-1 theta^-1 times the values
    and span the same code as the rescaled values the codes span.
    `linalg.row_space` proves every row lies in the span; the rows are then
    the whole code, each once, exactly when their pivot keys are
    `linalg.whole_span`: q^rank of them, none repeated.
    """
    if A.params is None or A.levels != A.params.ctx.q:
        return False
    ctx, q = A.params.ctx, A.levels
    fq = ctx.over_theta(np.asarray(A.level_map))
    if fq[1] == 0 or not np.array_equal(fq, ctx.Fq.np_mul_table()[fq[1]]):
        return False
    span = linalg.row_space(ctx.Fq, A.entries)
    return (linalg.whole_span(span.keys, q, span.rank)
            and _projective_columns(ctx.Fq, span.matrix()))


def _projective_columns(F, G: np.ndarray) -> bool:
    """Whether the columns of G are nonzero and pairwise non-proportional:
    each column scaled to lead with 1 is a distinct base-q key."""
    nonzero = G != 0
    if not nonzero.any(axis=0).all():
        return False
    q = F.order
    inverse = np.array([0] + [F.inv(x) for x in range(1, q)], dtype=np.intp)
    lead = G[np.argmax(nonzero, axis=0), np.arange(G.shape[1])]
    scaled = F.np_mul_table()[inverse[lead], G]
    keys = np.sort(linalg.pivot_keys(scaled.T, range(len(G)), q))
    return bool(np.all(keys[1:] != keys[:-1]))


def _count_strength(A: OrthogonalArray, t: int) -> StrengthReport:
    """Count symbol tuples in every N x t column subset.

    The array has strength t iff every tuple appears exactly N / v^t times.
    Every count is an entry of a Gram matrix: with X the one-hot matrix of
    the entries (symbol a of column i is column i v + a of X), block (i, j)
    of X^T X counts the symbol pairs of columns i and j, and the diagonal of
    block (i, i) counts column i's symbols.  For t >= 3 the rows are split
    by the symbols they read on a (t-2)-column prefix, and the Gram of each
    part's later columns counts the tuples that extend the prefix by two of
    them.  ``linalg.gram_blocks`` forms the blocks with i <= j a band at a
    time, and a clean band is accepted with one comparison.  Violations are
    listed only on failure, in (columns, symbol tuple) order, up to
    ``MAX_VIOLATIONS``.
    """
    if not 1 <= t <= A.factors:
        raise ValueError("strength must lie between 1 and the number of columns")
    N, k, v = A.runs, A.factors, A.levels
    if N % v**t:
        return StrengthReport(t, None, 0, [((), (), N)])
    lam = N // v**t
    entries = np.asarray(A.entries)
    depth = max(t - 2, 0)
    width = max(linalg.GRAM_BLOCK // v, 1)  # columns per band
    violations = []
    checked = 0
    for prefix in combinations(range(k - 2), depth):
        first = prefix[-1] + 1 if prefix else 0
        later = entries[:, first:]
        m = later.shape[1]
        key = entries[:, list(prefix)] @ v ** np.arange(depth - 1, -1, -1)
        grams = [linalg.gram_blocks(_one_hot(later, key == s, v), m * v,
                                    width * v)
                 for s in range(v**depth)]
        for bands in zip(*grams):
            lo = bands[0][0] // v
            # per prefix symbol tuple: counts by (column i, a, column j, b)
            C = [G.reshape(-1, v, m - lo, v) for _, G in bands]
            i, j = np.indices((len(C[0]), m - lo))
            mask = i == j if t == 1 else i < j
            if t > 1 and not any(np.any((c != lam).any(axis=(1, 3)) & mask)
                                 for c in C):
                checked += int(np.count_nonzero(mask))
                continue
            counts = np.stack([c.transpose(0, 2, 1, 3)[mask] for c in C], axis=1)
            counts = (counts[:, 0, range(v), range(v)] if t == 1
                      else counts.reshape(len(counts), -1))
            subsets = first + lo + np.argwhere(mask)[:, :t]
            bad = np.argwhere(counts != lam)[:MAX_VIOLATIONS - len(violations)]
            for sub, tup in bad.tolist():
                symbols = np.unravel_index(tup, (v,) * t)
                violations.append((prefix + tuple(subsets[sub].tolist()),
                                   tuple(map(int, symbols)),
                                   int(counts[sub, tup])))
                if len(violations) >= MAX_VIOLATIONS:
                    return StrengthReport(t, lam, checked + sub + 1, violations)
            checked += len(counts)
    return StrengthReport(t, lam, checked, violations)


def _one_hot(entries: np.ndarray, rows: np.ndarray, v: int):
    """Column bands of the one-hot matrix of the selected rows, in
    ``gram_dtype``: symbol a of column i is column i v + a; band bounds are
    multiples of v."""
    def band(lo, hi):
        cells = entries[rows, lo // v:hi // v]
        X = np.zeros((len(cells), cells.shape[1] * v),
                     dtype=linalg.gram_dtype(len(cells)))
        at = np.arange(0, cells.shape[1] * v, v) + cells
        np.put_along_axis(X, at, 1, axis=1)
        return X
    return band


def verify_simple(A: OrthogonalArray) -> bool:
    """True iff no two rows coincide."""
    return linalg.distinct_rows(A.entries) == A.runs


def w_intersections(A: OrthogonalArray) -> np.ndarray:
    """k x k matrix of the points of W that each pair of members share.

    A row is a point of W and an entry of level 0 marks the field's 0
    (``level_map[0] == 0``), so this is the (level 0, level 0) block of the
    one-hot Gram: q^{2n-2} on the diagonal and, for the family, exactly
    q^{2n-3} between distinct members.
    """
    if A.level_map[0] != 0:
        raise ValueError("level 0 must stand for the field's 0")
    return linalg.gram(np.asarray(A.entries) == 0)


def build_oa(params: BMParams, budget: int = DEFAULT_BUDGET,
             forms: tuple[np.ndarray, np.ndarray] | None = None) -> OrthogonalArray:
    """Construct the array for these parameters; ``verify_strength`` and
    ``verify_simple`` check it.  ``forms`` is ``family(params)`` when the
    caller has already built it."""
    ctx, n, q = params.ctx, params.n, params.ctx.q
    N = q ** (2 * n - 1)
    k = q ** (2 * n - 2)
    if N * k > budget:
        raise BudgetExceededError(
            f"array would have {N * k} cells, budget is {budget}")
    if forms is None:
        forms = family(params, budget=budget)
    values = w_values(params, *forms)
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
    """One line per row, the levels in decimal, comma-separated."""
    return format_rows(A.entries, [str(x) for x in range(A.levels)], ",")


def oa_sidecar(A: OrthogonalArray, csv: bytes, strength: StrengthReport,
               simple: bool, extra_meta: dict | None = None) -> dict:
    """Metadata for the array and its CSV bytes, recording the caller's
    verification verdicts."""
    import hashlib  # loads OpenSSL: only commands that write a digest pay it

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
