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

import warnings

import numpy as np

from . import linalg
from ._record import record
from .fields import (DEFAULT_BUDGET, FieldCtx, check_budget, field_context,
                     format_rows, write_json)
from .params import BMParams, separating_map
from .intersecting_family import family, w_values


@record(frozen=True)
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


@record
class EvalCode:
    """Raw evaluation code: q^5 words over the trace-zero set, length q.

    Row r is the point of ``w_set(ctx, 3)`` with x = r // q^3,
    y = (r // q) mod q^2 and z the (r mod q)-th transversal element.
    """

    params: BMParams
    omega: OmegaSet
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
    check_budget(q**5 * q, budget, "codeword table would have", "cells")
    if omega is None:
        omega = omega_set(ctx)
    # column i is the family form pulled back along the i-th Omega pair
    words = w_values(params, *family(params, omega.pairs))
    return EvalCode(params, omega, words)


@record
class FqLinearCode:
    """Codeword list over GF(q) with its dimension and generator matrix.

    ``whole`` is ``row_space``'s proof that the codewords are every vector
    of the generator's span, each once.
    """

    q: int
    length: int
    codewords: np.ndarray          # |C| x length over GF(q) codes
    dimension: int
    generator: np.ndarray          # dimension x length, reduced echelon form
    min_dist: int | None = None
    is_mds: bool | None = None
    whole: bool = False


def _fq_code(ctx: FieldCtx, scaled: np.ndarray) -> FqLinearCode:
    """Check that every theta-rescaled entry lands in GF(q), and span the
    rows, keeping whether they are the whole span, each vector once."""
    if scaled.size and scaled.max() >= ctx.q:
        raise RuntimeError(
            "a rescaled coordinate fell outside GF(q); the trace-zero "
            "invariant is violated")
    builder = linalg.row_space(ctx.Fq, scaled)
    return FqLinearCode(ctx.q, scaled.shape[1], scaled, builder.rank,
                        builder.basis, whole=builder.whole)


def scale_to_fq(code: EvalCode) -> FqLinearCode:
    """The GF(q)-code theta^{-1} C, with Gauss-computed dimension."""
    ctx = code.params.ctx
    return _fq_code(ctx, ctx.over_theta(code.codewords))


def min_distance(code: FqLinearCode,
                 budget: int = DEFAULT_BUDGET) -> int:
    """Minimum Hamming weight over the nonzero codewords (the code is linear)."""
    rows = code.codewords.shape[0]
    check_budget(rows, budget, "codeword scan would read", "codewords")
    # a column's nonzero flags at a time: a row-wise count over a few
    # columns is slower
    weights = np.zeros(rows, dtype=np.min_scalar_type(code.length))
    for column in code.codewords.T:
        weights += column != 0
    d = int(weights[weights > 0].min())
    code.min_dist = d
    code.is_mds = d == code.length - code.dimension + 1
    return d


@record
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
        seen = np.zeros(q**5, dtype=bool)
        seen[linalg.pivot_keys(words, range(5), q)] = True
        distinct = int(np.count_nonzero(seen))
    return RSReport(
        checked=len(words),
        mismatches=mismatches,
        distinct_codewords=distinct,
        expected_codewords=q**5,
        first_mismatch=first,
    )


def rs_certificate(code: FqLinearCode, omega: OmegaSet) -> RSReport | None:
    """``rs_equivalence_check``'s report and the minimum distance, proved
    from the generator alone; None, with nothing set, when the proof fails.

    It applies to the [q, 5] code and its doubly extended [q+1, 5] form.
    ``row_space`` proved the words every vector of the span of the
    generator G, each once (``whole``).  Let V be the generalized
    Vandermonde matrix: column i is (1, t, t^2, t^3, t^4) at t = psi(i),
    and the extension's column q, the degree-4 coefficient, is
    (0, 0, 0, 0, 1).  If G and V together have rank 5, then
    span(G) = span(V): each word evaluates a polynomial of degree <= 4
    (none mismatches its interpolant) and each such polynomial gives a word
    (all q^5 occur).  Any 5 columns of V on distinct points are
    independent, so a nonzero word has at most 4 zeros: d = length - 4 and
    the code is MDS.
    """
    q, psi = code.q, omega.psi
    if (code.dimension != 5 or code.length - q not in (0, 1)
            or len(set(psi)) != q or not code.whole):
        return None
    # G, an RREF, seeds the basis and only V's rows are added; a row that
    # reduces to 0 lies in span(G) whatever G is, so the proof needs no check
    Fq = field_context(q).Fq
    span = linalg.SpanBuilder(Fq, code.length, code.generator)
    for k in range(5):
        span.add([Fq.pow(t, k) for t in psi] + [int(k == 4)] * (code.length - q))
    if span.rank != 5:
        return None
    code.min_dist, code.is_mds = code.length - 4, True
    return RSReport(checked=q**5, mismatches=0, distinct_codewords=q**5,
                    expected_codewords=q**5, first_mismatch=None)


def check_code(code: FqLinearCode, omega: OmegaSet,
               budget: int = DEFAULT_BUDGET) -> RSReport | None:
    """Set the minimum distance and MDS flag, and return the Reed-Solomon
    report: ``rs_certificate`` when it holds, else ``min_distance`` and, for
    the [q, 5] code, ``rs_equivalence_check``, which name what fails."""
    report = rs_certificate(code, omega)
    if report is None:
        min_distance(code, budget)
        if code.length == code.q:
            report = rs_equivalence_check(code, omega)
    return report


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
    words = code.codewords
    scaled = np.empty((len(words), words.shape[1] + 1), dtype=np.int16)
    rows = max(linalg.IMAGE_CELLS // ctx.q, 1)  # no full-size temporary
    for lo in range(0, len(words), rows):
        scaled[lo:lo + rows, :-1] = ctx.over_theta(words[lo:lo + rows])
    # row r has y = (r // q) mod q^2: the column is ext over y, each value
    # repeated q times, the whole repeated for each x
    scaled[:, -1].reshape(-1, ctx.q2, ctx.q)[...] = ctx.over_theta(ext)[:, None]
    return _fq_code(ctx, scaled)


def puncture(code: FqLinearCode) -> FqLinearCode:
    """The code with its last coordinate deleted, read off the generator.

    In an RREF the last column is either no pivot, or its pivot row is the
    unit vector there and every other row is 0 in it; so the rows with a
    pivot before the last column, cut to the first length - 1 columns, are
    the RREF of the punctured code, and no elimination is needed.  When
    the last column is no pivot, puncturing is one-to-one on the span, so
    the words stay the whole span, each once, if they were.
    """
    gen = code.generator[code.generator[:, :-1].any(axis=1), :-1]
    return FqLinearCode(code.q, code.length - 1, code.codewords[:, :-1],
                        len(gen), gen,
                        whole=code.whole and len(gen) == code.dimension)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def generator_matrix_text(code: FqLinearCode) -> bytes:
    """The generator, one row per line, its symbols space-separated."""
    return format_rows(code.generator, [str(x) for x in range(code.q)], " ")


def code_metadata(code: FqLinearCode, eval_code: EvalCode, genmat: bytes,
                  rs_report: RSReport | None = None,
                  extra_meta: dict | None = None) -> dict:
    """Metadata for the code and the bytes ``genmat`` of its generator matrix."""
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
        "generator_sha256": hashlib.sha256(genmat).hexdigest(),
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
    with open(gen_path, "wb") as fh:
        fh.write(genmat)
    paths.append(gen_path)
    json_path = base_path + ".json"
    write_json(json_path, code_metadata(code, eval_code, genmat, rs_report,
                                        extra_meta))
    paths.append(json_path)
    if dump_codewords:
        words_path = base_path + ".codewords.txt"
        with open(words_path, "wb") as fh:
            fh.write(format_rows(code.codewords, [str(x) for x in range(code.q)],
                                 " "))
        paths.append(words_path)
    return paths
