"""Points of PG(n, q^2), the degree-2q variety, and hyperplane characters.

The central object is the point set M_{a,b}: the affine zero set of

    X_n^q - X_n + a^q (X_1^{2q}+...+X_{n-1}^{2q}) - a (X_1^2+...+X_{n-1}^2)
        - (b^q - b)(X_1^{q+1}+...+X_{n-1}^{q+1})

glued with the Hermitian cone over the first n-1 coordinates at infinity
(vertex (0,...,0,1)).  For admissible parameters this is a two-character set
with the same hyperplane intersection numbers as the Hermitian variety.

Note the cone ranges over X_1..X_{n-1} only.  A cone including X_n would put
q+1 points at infinity for n = 2 instead of the single point a unital needs;
the point-count oracle (|M| must equal the Hermitian count) arbitrates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product

import numpy as np

from .fields import DEFAULT_BUDGET, BudgetExceededError, FieldCtx, absolute_trace


class ParameterError(ValueError):
    """Rejected variety parameters."""


@dataclass(frozen=True)
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

    Nonzero iff the map u -> 2 a u + (b^q - b) u^q is injective, which is what
    makes distinct family members distinct and the row map injective.  For
    even q it is (b^q - b)^2 != 0 automatically.
    """
    F = ctx.Fq2
    four = 4 % ctx.p
    bqmb = F.sub(ctx.frob[b], b)
    return F.add(F.mul(four, ctx.norm(a)), F.mul(bqmb, bqmb))


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
    identically zero in even characteristic, and the exhaustive unital scans
    in the test suite confirm the absolute trace is the discriminating one.
    """
    if n < 2:
        raise ParameterError("ambient dimension n must be >= 2")
    if a == 0:
        raise ParameterError("a = 0 is the classical case; use classical_params")
    if not 0 < a < ctx.q2:
        raise ParameterError(f"a = {a} is not a nonzero GF(q^2) code")
    _check_b(ctx, b)
    q = ctx.q
    F = ctx.Fq2
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
    """
    if a is not None and b is not None:
        if mode == "family":
            return family_params(ctx, n, a, b)
        if mode == "variety" and a == 0:
            return classical_params(ctx, n, b)
        return validate_params(ctx, n, a, b)
    a_range = [a] if a is not None else list(range(1, ctx.q2))
    b_range = [b] if b is not None else [
        x for x in range(ctx.q2) if not ctx.in_subfield(x)]
    for aa in a_range:
        for bb in b_range:
            try:
                return validate_params(ctx, n, aa, bb)
            except ParameterError:
                continue
    if mode == "variety" and (a is None or a == 0):
        for bb in b_range:
            return classical_params(ctx, n, bb)
    if mode == "family":
        for aa in a_range:
            for bb in b_range:
                try:
                    return family_params(ctx, n, aa, bb)
                except ParameterError:
                    continue
    raise ParameterError(
        f"no admissible (a, b) for n={n}, q={ctx.q} in mode {mode!r}")


# ---------------------------------------------------------------------------
# counting formulas (Hermitian numerology)
# ---------------------------------------------------------------------------

def hermitian_size(n: int, q: int) -> int:
    """(q^{n+1} + (-1)^n)(q^n - (-1)^n) / (q^2 - 1)."""
    s = (q ** (n + 1) + (-1) ** n) * (q**n - (-1) ** n)
    assert s % (q * q - 1) == 0
    return s // (q * q - 1)


def nontangent_hyperplane_size(n: int, q: int) -> int:
    s = (q**n + (-1) ** (n - 1)) * (q ** (n - 1) - (-1) ** (n - 1))
    assert s % (q * q - 1) == 0
    return s // (q * q - 1)


def tangent_hyperplane_size(n: int, q: int) -> int:
    s = (q ** (n - 1) + (-1) ** n) * (q ** (n - 2) - (-1) ** n)
    assert s % (q * q - 1) == 0
    return 1 + q * q * (s // (q * q - 1))


def expected_spectrum_support(n: int, q: int) -> set[int]:
    return {nontangent_hyperplane_size(n, q), tangent_hyperplane_size(n, q)}


# ---------------------------------------------------------------------------
# points and the variety
# ---------------------------------------------------------------------------

def normalize_point(F, coords) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1."""
    coords = tuple(coords)
    lead = next((c for c in coords if c != 0), None)
    if lead is None:
        raise ValueError("the zero vector is not a projective point")
    if lead == 1:
        return coords
    inv = F.inv(lead)
    return tuple(F.mul(inv, c) for c in coords)


def projective_points(F, n: int):
    """All normalized points of PG(n, order(F)), leading 1 first."""
    for lead in range(n + 1):
        for tail in product(range(F.order), repeat=n - lead):
            yield (0,) * lead + (1,) + tail


def num_projective_points(order: int, n: int) -> int:
    return (order ** (n + 1) - 1) // (order - 1)


@dataclass(frozen=True)
class PointSet:
    """Duplicate-free, sorted set of normalized points of PG(n, q^2)."""

    n: int
    points: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.points)

    def export_lines(self, ctx: FieldCtx) -> list[str]:
        """One point per line; elements as comma-joined GF(p) digit vectors."""
        names = [ctx.format_element(c) for c in range(ctx.q2)]
        return [" ".join([names[c] for c in pt]) for pt in self.points]


def point_set(n: int, pts) -> PointSet:
    uniq = sorted(set(map(tuple, pts)))
    return PointSet(n, tuple(uniq))


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


def affine_rhs(params: BMParams, head) -> int:
    """d with X_n^q - X_n = d characterising affine points over the tuple head."""
    ctx = params.ctx
    return ctx.Fq2.neg(bab_affine_eval(params, tuple(head) + (0,)))


def affine_points(params: BMParams, budget: int = DEFAULT_BUDGET):
    """The q^{2n-1} affine points of the variety, lexicographic in (x_1..x_n)."""
    ctx, n = params.ctx, params.n
    if ctx.q ** (2 * n - 1) > budget:
        raise BudgetExceededError("affine point enumeration over budget")
    pts = []
    for head in product(range(ctx.q2), repeat=n - 1):
        d = affine_rhs(params, head)
        roots = ctx.artin_schreier_roots(d)
        if len(roots) != ctx.q:
            raise RuntimeError("trace-zero invariant violated")  # pragma: no cover
        for xn in sorted(roots):
            pts.append(head + (xn,))
    return pts


def cone_at_infinity(ctx: FieldCtx, n: int) -> list[tuple[int, ...]]:
    """Hermitian cone in the hyperplane at infinity, vertex (0,...,0,1)."""
    out = []
    for pt in projective_points(ctx.Fq2, n - 1):
        s = 0
        for xi in pt[: n - 1]:
            s = ctx.Fq2.add(s, ctx.norm(xi))
        if s == 0:
            out.append((0,) + pt)
    return out


def bm_variety(params: BMParams, budget: int = DEFAULT_BUDGET) -> PointSet:
    """Affine zero set glued with the cone at infinity, as projective points."""
    affine = [(1,) + pt for pt in affine_points(params, budget)]
    return point_set(params.n, affine + cone_at_infinity(params.ctx, params.n))


# ---------------------------------------------------------------------------
# hyperplane characters
# ---------------------------------------------------------------------------

def _prefix_sums(cols, add, mul, order: int):
    """s = sum_{i<n} h_i x_i for every normalized dual prefix (h_0..h_{n-1}).

    ``cols`` are the n coordinate columns x_0..x_{n-1} of the points.  The
    prefixes are walked depth first, so each partial sum is computed once and
    shared by every prefix that extends it.
    """
    n = len(cols)

    def walk(i, s):
        if i == n:
            yield s
            return
        yield from walk(i + 1, s)
        for c in range(1, order):
            yield from walk(i + 1, add[s, mul[c][cols[i]]])

    for lead in range(n):
        yield from walk(lead + 1, cols[lead])


def character_spectrum(S: PointSet, ctx: FieldCtx,
                       budget: int = DEFAULT_BUDGET) -> Counter:
    """Multiset {|S meet H| : H hyperplane of PG(n, q^2)} as a Counter.

    Hyperplanes h, in dual coordinates normalized like points, are grouped
    by their prefix (h_0..h_{n-1}); h_n is free within a group.  With
    s = sum_{i<n} h_i x_i, a point with x_n != 0 lies on exactly one
    hyperplane of the group, the one with h_n = -s/x_n, so one bincount
    counts all q^2 of them; a point with x_n = 0 lies on every one of them
    when s = 0 and on none otherwise.  The zero prefix leaves the single
    hyperplane (0, ..., 0, 1).  Every hyperplane gets an exact count from
    every point.
    """
    n, q2 = S.n, ctx.q2
    if num_projective_points(q2, n) > budget:
        raise BudgetExceededError("hyperplane enumeration over budget")
    F = ctx.Fq2
    add, mul, neg = F.np_add_table(), F.np_mul_table(), F.np_neg_table()
    pts = np.array(S.points, dtype=np.intp).reshape(len(S), n + 1)
    pts = pts[np.argsort(pts[:, n] == 0, kind="stable")]  # x_n != 0 first
    m = int(np.count_nonzero(pts[:, n]))
    inv = np.array([0] + [F.inv(x) for x in range(1, q2)])
    slope = neg[inv[pts[:m, n]]]  # h_n = s * (-1/x_n)
    spectrum = Counter({len(pts) - m: 1})  # the hyperplane (0, ..., 0, 1)
    cols = [pts[:, i] for i in range(n)]
    for s in _prefix_sums(cols, add, mul, q2):
        counts = np.bincount(mul[s[:m], slope], minlength=q2)
        counts += np.count_nonzero(s[m:] == 0)
        spectrum.update(counts.tolist())
    return spectrum
