"""The parameter layer: admissible (a, b) and the base form's tables.

A pair (a, b) of GF(q^2) codes fixes the degree-2q variety of ``geometry``
and the base affine form

    X_n^q - X_n + a^q (X_1^{2q}+...+X_{n-1}^{2q}) - a (X_1^2+...+X_{n-1}^2)
        - (b^q - b)(X_1^{q+1}+...+X_{n-1}^{q+1})

that the family, the orthogonal array and the code pull back.  This module
chooses and labels the pair (``scan_params`` is the one selection routine),
and evaluates the base form, scalar and as per-coordinate tables; it holds
no point set, so the array and code commands need nothing else from the
geometry.
"""

from __future__ import annotations

import numpy as np

from ._record import record
from .fields import BudgetExceededError, FieldCtx, absolute_trace


class ParameterError(ValueError):
    """Rejected variety parameters."""


@record(frozen=True)
class BMParams:
    """Validated parameters (a, b) for the degree-2q variety in PG(n, q^2).

    ``condition`` records what certifies the pair: one of QH1..QH4 (the
    two-character conditions), "classical" (a = 0), or "affine" (only the
    separation property below holds; enough for the intersecting family,
    orthogonal array and code constructions, but two-character behaviour is
    not promised).
    """

    ctx: FieldCtx
    n: int
    a: int
    b: int
    condition: str

    @property
    def q(self) -> int:
        return self.ctx.q


def separation_value(ctx: FieldCtx, a: int, b: int) -> int:
    """4 a^{q+1} + (b^q - b)^2, an element of GF(q).

    Nonzero iff ``separating_map`` is injective, which is what makes distinct
    family members distinct and the row map injective.  For even q it is
    (b^q - b)^2 != 0 automatically.
    """
    F = ctx.Fq2
    four = 4 % ctx.p
    bqmb = F.sub(ctx.frob[b], b)
    return F.add(F.mul(four, ctx.norm(a)), F.mul(bqmb, bqmb))


def separating_map(params: BMParams, u: int) -> int:
    """L(u) = 2 a u + (b^q - b) u^q, GF(q)-linear; see ``separation_value``.

    Pulling the base form back along alpha shifts its coefficients by L(alpha);
    the stabilizer's betas are -L(alpha).
    """
    ctx = params.ctx
    F = ctx.Fq2
    bqmb = F.sub(ctx.frob[params.b], params.b)
    return F.add(F.mul(F.mul(2 % ctx.p, params.a), u), F.mul(bqmb, ctx.frob[u]))


def _check_b(ctx: FieldCtx, b: int) -> None:
    if not 0 <= b < ctx.q2:
        raise ParameterError(f"b = {b} is not a GF(q^2) code")
    if ctx.in_subfield(b):
        raise ParameterError(f"b = {b} lies in GF(q); b^q - b would vanish")


def validate_params(ctx: FieldCtx, n: int, a: int, b: int) -> BMParams:
    """Label (a, b) with the first satisfied two-character condition.

    QH1: n, q odd and 4 a^{q+1} + (b^q-b)^2 != 0.
    QH2: n even, q odd and 4 a^{q+1} + (b^q-b)^2 a non-square of GF(q).
    QH3: n, q even and the GF(2)-trace of a^{q+1}/(b^q+b)^2 vanishes.
    QH4: n odd, q even.

    The parities of n and q select exactly one candidate condition; if its
    arithmetic predicate fails the pair is rejected.  QH3 uses the absolute
    trace GF(q) -> GF(2): the relative trace of a GF(q) element is
    identically zero in even characteristic, and the exhaustive pair sweep
    in the test suite confirms the absolute trace is the discriminating one.
    """
    if n < 2:
        raise ParameterError("ambient dimension n must be >= 2")
    if a == 0:
        raise ParameterError("a = 0 is the classical case; use classical_params")
    if not 0 < a < ctx.q2:
        raise ParameterError(f"a = {a} is not a nonzero GF(q^2) code")
    _check_b(ctx, b)
    q = ctx.q
    n_odd, q_odd = n % 2 == 1, q % 2 == 1
    if q_odd:
        val = separation_value(ctx, a, b)
        if n_odd:
            if val != 0:
                return BMParams(ctx, n, a, b, "QH1")
            raise ParameterError("QH1 fails: 4 a^{q+1} + (b^q-b)^2 = 0")
        if val != 0 and ctx.Fq.pow(val, (q - 1) // 2) != 1:
            return BMParams(ctx, n, a, b, "QH2")
        raise ParameterError("QH2 fails: 4 a^{q+1} + (b^q-b)^2 is a square in GF(q)")
    if n_odd:
        return BMParams(ctx, n, a, b, "QH4")
    trb = ctx.trace(b)
    ratio = ctx.Fq.div(ctx.norm(a), ctx.Fq.mul(trb, trb))
    if absolute_trace(ctx.Fq, ratio) == 0:
        return BMParams(ctx, n, a, b, "QH3")
    raise ParameterError("QH3 fails: Tr(a^{q+1}/(b^q+b)^2) != 0")


def classical_params(ctx: FieldCtx, n: int, b: int) -> BMParams:
    """Parameters with a = 0: the classical (Hermitian) point set."""
    if n < 2:
        raise ParameterError("ambient dimension n must be >= 2")
    _check_b(ctx, b)
    return BMParams(ctx, n, 0, b, "classical")


def family_params(ctx: FieldCtx, n: int, a: int, b: int) -> BMParams:
    """Parameters admissible for the family / array / code constructions.

    Tries the two-character conditions first.  When none applies (this
    happens, e.g., for every pair at n = 2, q in {2, 3}) the pair is still
    accepted provided the separation value is nonzero, labelled "affine".
    The QH conditions are sufficient for two characters, not necessary: at
    (n, q) = (2, 2) all 6 "affine" pairs are two-character sets (QH3 never
    holds at q = 2, where the absolute trace is the identity), while at
    (2, 3) none of the 24 is.
    """
    if n < 2:
        raise ParameterError("ambient dimension n must be >= 2")
    try:
        return validate_params(ctx, n, a, b)
    except ParameterError:
        pass
    if a == 0:
        return classical_params(ctx, n, b)
    _check_b(ctx, b)
    if not 0 < a < ctx.q2:
        raise ParameterError(f"a = {a} is not a nonzero GF(q^2) code")
    if separation_value(ctx, a, b) == 0:
        raise ParameterError(
            "4 a^{q+1} + (b^q-b)^2 = 0: distinct group elements would yield "
            "identical forms"
        )
    return BMParams(ctx, n, a, b, "affine")


def scan_params(ctx: FieldCtx, n: int, mode: str = "variety",
                a: int | None = None, b: int | None = None) -> BMParams:
    """First admissible (a, b) in lexicographic code order.

    mode "quasi_hermitian": QH-labelled pairs only (raises if none exist).
    mode "variety": QH pairs, falling back to classical a = 0.
    mode "family": QH pairs, falling back to "affine" separating pairs.
    Supplying a or b pins that code during the scan.  A fully pinned pair is
    not scanned: it goes to ``validate_params`` in mode "quasi_hermitian", to
    ``classical_params`` (a = 0) or ``validate_params`` in mode "variety", and
    to ``family_params`` (a = 0 there meaning classical) in mode "family".
    An n below 2 is rejected before any pair is tried.
    """
    if n < 2:
        raise ParameterError("ambient dimension n must be >= 2")
    if a is not None and b is not None:
        if mode == "family":
            return family_params(ctx, n, a, b)
        if mode == "variety" and a == 0:
            return classical_params(ctx, n, b)
        return validate_params(ctx, n, a, b)
    a_range = [a] if a is not None else list(range(1, ctx.q2))
    b_range = [b] if b is not None else list(range(ctx.q, ctx.q2))  # not in GF(q)
    for aa, bb in ((x, y) for x in a_range for y in b_range):
        try:
            return validate_params(ctx, n, aa, bb)
        except ParameterError:
            continue
    if mode == "variety" and (a is None or a == 0) and b_range:
        return classical_params(ctx, n, b_range[0])
    if mode == "family":
        for aa, bb in ((x, y) for x in a_range for y in b_range):
            try:
                return family_params(ctx, n, aa, bb)
            except ParameterError:
                continue
    raise ParameterError(
        f"no admissible (a, b) for n={n}, q={ctx.q} in mode {mode!r}")


def lex_grid(shape) -> np.ndarray:
    """Every integer vector below ``shape`` as int32 rows, lexicographically."""
    return np.indices(shape, dtype=np.int32).reshape(len(shape), -1).T


def check_R_budget(params: BMParams, budget: int) -> None:
    """Raise ``BudgetExceededError`` when R's q^{2n-2} members exceed the budget."""
    k = params.ctx.q2 ** (params.n - 1)
    if k > budget:
        raise BudgetExceededError(
            f"R would have {k} members, budget is {budget}")


def bab_affine_eval(params: BMParams, x) -> int:
    """Value of the affine equation at x = (x_1, ..., x_n); trace-zero."""
    ctx = params.ctx
    F = ctx.Fq2
    frob = ctx.frob
    *head, xn = x
    s2 = 0
    sn = 0
    for xi in head:
        s2 = F.add(s2, F.mul(xi, xi))
        sn = F.add(sn, F.mul(xi, frob[xi]))
    aq = frob[params.a]
    bqmb = F.sub(frob[params.b], params.b)
    val = F.sub(frob[xn], xn)
    val = F.add(val, F.mul(aq, frob[s2]))
    val = F.sub(val, F.mul(params.a, s2))
    val = F.sub(val, F.mul(bqmb, sn))
    return val


def coordinate_tables(params: BMParams) -> tuple[np.ndarray, np.ndarray]:
    """Z and H, the base form at (0, ..., 0, x) and at (x, 0, ..., 0): the
    Frobenius map is additive, so the form is Z(x_n) + Sum_{i<n} H(x_i).
    ``bab_affine_eval``'s formula, run on the dense tables for every x."""
    ctx = params.ctx
    F = ctx.Fq2
    add, mul, neg = F.np_add_table(), F.np_mul_table(), F.np_neg_table()
    frob = ctx.np_frob()
    x = np.arange(ctx.q2)
    s2 = mul[x, x]
    bqmb = F.sub(ctx.frob[params.b], params.b)
    H = add[mul[ctx.frob[params.a], frob[s2]], neg[mul[params.a, s2]]]
    H = add[H, neg[mul[bqmb, mul[x, frob]]]]
    return add[frob, neg[x]], H
