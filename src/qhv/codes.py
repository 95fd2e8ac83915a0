"""GF(q)-linear [q, 5, q-4] MDS codes from the n = 3 construction.

The q columns are the family forms whose first-row parameters run over the
twisted-cubic index set

    Omega = {(t + eps t^2, t^3 + eps t^4) : t in GF(q)},

evaluated over W = GF(q^2) x GF(q^2) x C.  Values are trace-zero; dividing by
theta = trace(eps) - 2 eps lands them in GF(q).  For q > 4 the resulting code
is a [q, 5, q-4] MDS code equal (after the evaluation-point bookkeeping ψ) to
an extended Reed-Solomon code of dimension 5; appending the degree-4
coefficient of the interpolating polynomial doubly extends it to
[q+1, 5, q-3].
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .fields import DEFAULT_BUDGET, BudgetExceededError, FieldCtx
from .geometry import BMParams, separating_map
from .intersecting_family import family, form_values, w_set


@dataclass(frozen=True)
class OmegaSet:
    """Twisted-cubic pairs in psi order: index 0 is t = 0, index i is omega^i."""

    pairs: tuple[tuple[int, int], ...]
    psi: tuple[int, ...]       # evaluation points psi(i) as GF(q) codes

    def __len__(self) -> int:
        return len(self.pairs)


def omega_set(ctx: FieldCtx) -> OmegaSet:
    """The q parameter pairs (t + eps t^2, t^3 + eps t^4)."""
    if ctx.q <= 4:
        warnings.warn(
            f"q = {ctx.q} <= 4: the code is constructible but the MDS and "
            "Reed-Solomon contracts require q > 4",
            stacklevel=2,
        )
    F, Fq = ctx.Fq2, ctx.Fq
    psi = [0] + [Fq.pow(ctx.omega, i) for i in range(1, ctx.q)]
    pairs = []
    for t in psi:
        t2 = Fq.mul(t, t)
        t3 = Fq.mul(t2, t)
        t4 = Fq.mul(t3, t)
        w1 = F.add(t, F.mul(ctx.epsilon, t2))
        w2 = F.add(t3, F.mul(ctx.epsilon, t4))
        pairs.append((w1, w2))
    return OmegaSet(tuple(pairs), tuple(psi))


def check_luc1(ctx: FieldCtx, omega: OmegaSet, indices) -> bool:
    """Whether the five rows (1, w1, w2, w1^q, w2^q) are linearly independent."""
    rows = []
    for i in indices:
        w1, w2 = omega.pairs[i]
        rows.append([1, w1, w2, ctx.frob[w1], ctx.frob[w2]])
    if len(rows) != 5:
        raise ValueError("exactly five indices required")
    span = linalg.SpanBuilder(ctx.Fq2, 5)
    return all(span.add(row) for row in rows)


@dataclass
class EvalCode:
    """Raw evaluation code: q^5 words over the trace-zero set, length q."""

    params: BMParams
    omega: OmegaSet
    domain: np.ndarray      # q^5 x 3 triples (x, y, z), z in the transversal
    codewords: np.ndarray   # q^5 x q over GF(q^2) codes, all trace-zero

    def __len__(self) -> int:
        return len(self.codewords)


def build_code(params: BMParams, omega: OmegaSet | None = None,
               budget: int = DEFAULT_BUDGET) -> EvalCode:
    """Evaluate the q twisted-cubic forms over W, in W order."""
    ctx = params.ctx
    if params.n != 3:
        raise ValueError("the code construction lives in PG(3, q^2)")
    q = ctx.q
    if q**5 * q > budget:
        raise BudgetExceededError(
            f"codeword table would have {q**5 * q} cells, budget is {budget}")
    if omega is None:
        omega = omega_set(ctx)
    # column i is the family form pulled back along the i-th Omega pair
    domain = w_set(ctx, 3)
    words = form_values(params, *family(params, omega.pairs), domain)
    return EvalCode(params, omega, domain, words)


@dataclass
class FqLinearCode:
    """Codeword list over GF(q) with its dimension and generator matrix."""

    q: int
    length: int
    codewords: np.ndarray          # |C| x length over GF(q) codes
    dimension: int
    generator: np.ndarray          # dimension x length, reduced echelon form
    min_dist: int | None = None
    is_mds: bool | None = None


def _fq_code(ctx: FieldCtx, words: np.ndarray) -> FqLinearCode:
    """Divide by theta, check every entry lands in GF(q), and span the rows."""
    scaled = ctx.over_theta(words)
    if not np.all(scaled < ctx.q):
        raise RuntimeError(
            "a rescaled coordinate fell outside GF(q); the trace-zero "
            "invariant is violated")
    builder = linalg.row_space(ctx.Fq, scaled)
    return FqLinearCode(ctx.q, scaled.shape[1], scaled, builder.rank,
                        builder.matrix())


def scale_to_fq(code: EvalCode) -> FqLinearCode:
    """The GF(q)-code theta^{-1} C, with Gauss-computed dimension."""
    return _fq_code(code.params.ctx, code.codewords)


def min_distance(code: FqLinearCode,
                 budget: int = DEFAULT_BUDGET) -> int:
    """Minimum Hamming weight over the nonzero codewords (the code is linear)."""
    rows = code.codewords.shape[0]
    if rows > budget:
        raise BudgetExceededError(
            f"codeword scan would read {rows} codewords, budget is {budget}")
    weights = np.count_nonzero(code.codewords, axis=1)
    nz = weights[weights > 0]
    d = int(nz.min())
    code.min_dist = d
    code.is_mds = d == code.length - code.dimension + 1
    return d


@dataclass
class RSReport:
    checked: int
    mismatches: int
    distinct_codewords: int
    expected_codewords: int
    first_mismatch: tuple[int, int] | None   # (codeword row, coordinate)

    @property
    def consistent(self) -> bool:
        """Every codeword interpolates to a polynomial of degree <= 4."""
        return self.mismatches == 0

    @property
    def two_sided(self) -> bool:
        """Code == all degree-<=4 evaluation vectors (counting argument)."""
        return self.consistent and self.distinct_codewords == self.expected_codewords


def rs_equivalence_check(code: FqLinearCode, omega: OmegaSet) -> RSReport:
    """Interpolate through the first five coordinates and check the rest.

    Coordinate i of a codeword sits at evaluation point psi(i); the code is
    the extended Reed-Solomon code of dimension 5 iff every word agrees with
    its degree-<=4 interpolant everywhere and all q^5 words are distinct.
    Two distinct words of minimum distance q-4 cannot agree on five
    coordinates, so consistency plus the count q^5 settles both inclusions.
    """
    from .fields import field_context

    q = code.q
    Fq = field_context(q).Fq
    psi = omega.psi
    vand = [[Fq.pow(psi[i], k) for k in range(5)] for i in range(5)]
    # value at psi(j) of the interpolant through words[:, :5], for j >= 5
    powers = [[Fq.pow(psi[j], k) for j in range(5, q)] for k in range(5)]
    interpolate = linalg.linear_image(
        Fq, np.transpose(linalg.inv_matrix(Fq, vand)), powers)
    words = np.asarray(code.codewords)
    bad = words[:, 5:] != linalg.linear_image(Fq, words[:, :5], interpolate)
    mismatches = int(np.count_nonzero(bad))
    first = None
    if mismatches:
        row, col = divmod(int(np.argmax(bad)), bad.shape[1])
        first = (row, 5 + col)
        distinct = linalg.distinct_rows(words)
    else:  # every word is fixed by its first five coordinates, a base-q key
        key = np.zeros(len(words), dtype=np.int32)
        for j in range(5):
            key *= q
            key += words[:, j]
        seen = np.zeros(q**5, dtype=bool)
        seen[key] = True
        distinct = int(np.count_nonzero(seen))
    return RSReport(
        checked=len(words),
        mismatches=mismatches,
        distinct_codewords=distinct,
        expected_codewords=q**5,
        first_mismatch=first,
    )


def doubly_extend(code: EvalCode) -> FqLinearCode:
    """Append the degree-4 coefficient coordinate, rescale and span.

    On the polynomial side every codeword is a degree-<=4 polynomial in t;
    the appended coordinate is its leading coefficient (the evaluation "at
    infinity"), which as a function on W equals

        L(eps)^q y^q - L(eps) y,    L = ``separating_map``,

    up to the usual theta rescaling.  The result is a [q+1, 5, q-3] code,
    and ``puncture`` of it is ``scale_to_fq(code)`` without a second span.
    """
    params = code.params
    ctx = params.ctx
    F = ctx.Fq2
    c2 = separating_map(params, ctx.epsilon)
    c1 = ctx.frob[c2]
    ext = np.array([F.sub(F.mul(c1, ctx.frob[y]), F.mul(c2, y)) for y in range(ctx.q2)],
                   dtype=np.int32)
    return _fq_code(ctx, np.column_stack([code.codewords, ext[code.domain[:, 1]]]))


def puncture(code: FqLinearCode) -> FqLinearCode:
    """The code with its last coordinate deleted, read off the generator.

    In an RREF the last column is either no pivot, or its pivot row is the
    unit vector there and every other row is 0 in it; so the rows with a
    pivot before the last column, cut to the first length - 1 columns, are
    the RREF of the punctured code, and no elimination is needed.
    """
    gen = code.generator[code.generator[:, :-1].any(axis=1), :-1]
    return FqLinearCode(code.q, code.length - 1, code.codewords[:, :-1],
                        len(gen), gen)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def generator_matrix_text(code: FqLinearCode) -> str:
    lines = [" ".join(map(str, row)) for row in code.generator.tolist()]
    return "\n".join(lines) + "\n"


def code_metadata(code: FqLinearCode, eval_code: EvalCode, genmat: str,
                  rs_report: RSReport | None = None,
                  extra_meta: dict | None = None) -> dict:
    """Metadata for the code and its generator matrix text ``genmat``."""
    import hashlib  # loads OpenSSL: only commands that write a digest pay it

    ctx = eval_code.params.ctx
    meta = {
        "q": code.q,
        "length": code.length,
        "dimension": code.dimension,
        "min_distance": code.min_dist,
        "mds": code.is_mds,
        "codewords": int(code.codewords.shape[0]),
        "field": ctx.to_json(),
        "params": {
            "n": eval_code.params.n,
            "a": eval_code.params.a,
            "b": eval_code.params.b,
            "condition": eval_code.params.condition,
        },
        "theta": ctx.theta,
        "omega_pairs": [list(p) for p in eval_code.omega.pairs],
        "evaluation_points": list(eval_code.omega.psi),
        "generator_sha256": hashlib.sha256(genmat.encode()).hexdigest(),
    }
    if rs_report is not None:
        meta["rs_equivalence"] = {
            "consistent": rs_report.consistent,
            "two_sided": rs_report.two_sided,
            "checked": rs_report.checked,
            "mismatches": rs_report.mismatches,
        }
    if extra_meta:
        meta["config"] = extra_meta
    return meta


def write_code(code: FqLinearCode, eval_code: EvalCode, base_path: str,
               rs_report: RSReport | None = None,
               extra_meta: dict | None = None,
               dump_codewords: bool = False) -> list[str]:
    paths = []
    gen_path = base_path + ".genmat.txt"
    genmat = generator_matrix_text(code)
    with open(gen_path, "w") as fh:
        fh.write(genmat)
    paths.append(gen_path)
    json_path = base_path + ".json"
    with open(json_path, "w") as fh:
        json.dump(code_metadata(code, eval_code, genmat, rs_report, extra_meta),
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(json_path)
    if dump_codewords:
        words_path = base_path + ".codewords.txt"
        with open(words_path, "w") as fh:
            for row in code.codewords.tolist():
                fh.write(" ".join(map(str, row)) + "\n")
        paths.append(words_path)
    return paths
