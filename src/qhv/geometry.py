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
from functools import reduce

import numpy as np

from ._record import record
from .fields import DEFAULT_BUDGET, BudgetExceededError, FieldCtx, absolute_trace


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
    """
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


# ---------------------------------------------------------------------------
# counting formulas (Hermitian numerology)
# ---------------------------------------------------------------------------

def hermitian_size(n: int, q: int) -> int:
    """(q^{n+1} + (-1)^n)(q^n - (-1)^n) / (q^2 - 1)."""
    s = (q ** (n + 1) + (-1) ** n) * (q**n - (-1) ** n)
    assert s % (q * q - 1) == 0
    return s // (q * q - 1)


def nontangent_hyperplane_size(n: int, q: int) -> int:
    """A non-tangent section is a Hermitian variety of PG(n-1, q^2)."""
    return hermitian_size(n - 1, q)


def tangent_hyperplane_size(n: int, q: int) -> int:
    """A tangent section is a cone, vertex plus q^2 points over each point of a
    Hermitian variety of PG(n-2, q^2) (none for n = 2)."""
    return 1 + q * q * hermitian_size(n - 2, q)


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
    return tuple(F.mul(F.inv(lead), c) for c in coords)


def lex_grid(shape) -> np.ndarray:
    """Every integer vector below ``shape`` as int32 rows, lexicographically."""
    return np.indices(shape, dtype=np.int32).reshape(len(shape), -1).T


def check_R_budget(params: BMParams, budget: int) -> None:
    """Raise ``BudgetExceededError`` when R's q^{2n-2} members exceed the budget."""
    k = params.ctx.q2 ** (params.n - 1)
    if k > budget:
        raise BudgetExceededError(
            f"R would have {k} members, budget is {budget}")


def projective_points(F, n: int, first: int = 0) -> np.ndarray:
    """The normalized points of PG(n, order(F)) whose leading 1 is at position
    ``first`` or later, as int32 rows: by that position, then lexicographically."""
    unit, order = np.eye(n + 1, dtype=np.int32), F.order
    return np.concatenate([unit[i] + lex_grid((1,) * (i + 1) + (order,) * (n - i))
                           for i in range(first, n + 1)])


def num_projective_points(order: int, n: int) -> int:
    return (order ** (n + 1) - 1) // (order - 1)


@record(frozen=True, eq=False)
class PointSet:
    """Duplicate-free set of normalized points of PG(n, q^2): a read-only
    |S| x (n+1) int32 array whose rows are in lexicographic order."""

    n: int
    points: np.ndarray

    def __post_init__(self):
        self.points.flags.writeable = False

    def __len__(self) -> int:
        return len(self.points)

    def export_lines(self, ctx: FieldCtx) -> list[str]:
        """One point per line; elements as comma-joined GF(p) digit vectors."""
        names = np.array([ctx.format_element(c) for c in range(ctx.q2)],
                         dtype=object)
        return [" ".join(pt) for pt in names[self.points].tolist()]


def point_set(n: int, pts) -> PointSet:
    rows = np.asarray(pts, dtype=np.int32).reshape(-1, n + 1)
    # sorted, duplicates dropped; asking for the inverse keeps np.unique off
    # its masked-array check, which imports numpy.ma (about 15 ms cold)
    return PointSet(n, np.unique(rows, axis=0, return_inverse=True)[0])


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


def affine_rhs(params: BMParams, heads) -> np.ndarray:
    """d = -Sum_i H(x_i), with X_n^q - X_n = d characterising the affine
    points over each head (x_1..x_{n-1}) along the last axis of ``heads``."""
    F = params.ctx.Fq2
    add = F.np_add_table()
    terms = np.moveaxis(coordinate_tables(params)[1][np.asarray(heads)], -1, 0)
    return F.np_neg_table()[reduce(lambda s, x: add[s, x], terms)]


def affine_points(params: BMParams, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """The q^{2n-1} affine points of the variety as int32 rows (x_1..x_n),
    in lexicographic order: each head with the sorted roots of its d."""
    ctx, n = params.ctx, params.n
    count = ctx.q ** (2 * n - 1)
    if count > budget:
        raise BudgetExceededError(
            f"affine enumeration would give {count} points, budget is {budget}")
    heads = lex_grid((ctx.q2,) * (n - 1))
    roots = ctx.as_roots[affine_rhs(params, heads)]
    if (roots < 0).any():
        raise RuntimeError("trace-zero invariant violated")  # pragma: no cover
    return np.column_stack([np.repeat(heads, ctx.q, axis=0), roots.ravel()])


def cone_at_infinity(ctx: FieldCtx, n: int) -> np.ndarray:
    """Hermitian cone in the hyperplane at infinity, vertex (0,...,0,1), as
    int32 rows in lexicographic order."""
    F = ctx.Fq2
    add = F.np_add_table()
    norm = F.np_mul_table()[np.arange(ctx.q2), ctx.np_frob()]
    pts = projective_points(F, n, first=1)  # the hyperplane x_0 = 0
    cone = pts[reduce(lambda s, x: add[s, x], norm[pts[:, 1:n]].T) == 0]
    return cone[np.lexsort(cone.T[::-1])]


def bm_variety(params: BMParams, budget: int = DEFAULT_BUDGET) -> PointSet:
    """Affine zero set glued with the cone at infinity, as projective points:
    the sorted cone (x_0 = 0) above the sorted affine points (x_0 = 1)."""
    affine = affine_points(params, budget)  # checks the budget before the cone
    cone = cone_at_infinity(params.ctx, params.n)
    ones = np.ones((len(affine), 1), dtype=np.int32)
    return PointSet(params.n, np.concatenate([cone, np.hstack([ones, affine])]))


# ---------------------------------------------------------------------------
# hyperplane characters
# ---------------------------------------------------------------------------

def _prefix_sums(cols, add, mul, order: int):
    """s = sum_i h_i x_i for every normalized dual prefix (h_0..h_{k-1}).

    ``cols`` are the k coordinate columns x_0..x_{k-1} of the points.  The
    prefixes are walked depth first in ``projective_points`` order, so each
    partial sum is computed once and shared by every prefix that extends
    it; one sum is yielded per prefix.
    """
    k = len(cols)

    def walk(i, s):
        if i == k:
            yield s
            return
        yield from walk(i + 1, s)
        for c in range(1, order):
            yield from walk(i + 1, add[s, mul[c][cols[i]]])

    for lead in range(k):
        yield from walk(lead + 1, cols[lead])


#: most cells of the gather index of ``_hyperplane_counts``: with tail width
#: t it has q^{2t} q^{2t} (q^2 + 1), one per (tail coordinates of a point,
#: tail prefix, value of h_n or the slot at infinity)
SPECTRUM_INDEX_CELLS = 2**20


def _gather_cells(q2: int, t: int) -> int:
    return q2**t * q2**t * (q2 + 1)


def _tail_width(n: int, q2: int, npoints: int) -> int:
    """Tail width t in 0..n-1 of the cheapest split of the dual prefix.

    Each of the heads(t) heads costs one bincount over the points and one
    gather of ``_gather_cells(q2, t)`` cells; widths whose index exceeds
    ``SPECTRUM_INDEX_CELLS`` are not considered.  t = 0 is one bincount per
    full prefix.
    """
    def cost(t):
        heads = num_projective_points(q2, n - t - 1) + (t > 0)
        return heads * (npoints + _gather_cells(q2, t))

    return min((t for t in range(n)
                if _gather_cells(q2, t) <= SPECTRUM_INDEX_CELLS), key=cost)


def _tail_index(F, q2: int, t: int) -> np.ndarray:
    """idx[y, r, v]: the joint-histogram cell that tail r reads for value v.

    Tails r and tail coordinates y are t field codes read as base-q^2
    integers, first coordinate most significant.  An affine point with key
    (s, y) has total sum s + r.y, so it has value v when s = v - r.y:
    idx[y, r, v] = (v - r.y) q^{2t} + y for v < q^2.  The slot v = q^2
    reads the points at infinity (keys offset by q^{2t+2}) whose total sum
    vanishes.  Summing the gathered cells over y, the leading axis, adds
    whole contiguous slabs.
    """
    add, mul, neg = F.np_add_table(), F.np_mul_table(), F.np_neg_table()
    y = np.arange(q2**t)
    dot = np.zeros((len(y), len(y)), dtype=np.intp)  # dot[y, r] = r.y
    for j in range(t):
        digit = y // q2 ** (t - 1 - j) % q2
        dot = add[dot, mul[np.ix_(digit, digit)]]
    v = np.arange(q2 + 1)
    return (add[neg[dot][..., None], v % q2] * len(y) + y[:, None, None]
            + v // q2 * (q2 * len(y)))


def _hyperplane_counts(S: PointSet, ctx: FieldCtx, budget: int):
    """|S meet H| for every hyperplane H but (0, ..., 0, 1), head by head;
    raises ``BudgetExceededError`` first when the hyperplanes exceed the budget.

    Hyperplanes h, in dual coordinates normalized like points, are grouped
    by their prefix (h_0..h_{n-1}); h_n is free within a group.  Every point
    with x_n != 0 is rescaled to x_n = 1, so with s = sum_{i<n} h_i x_i it
    lies on exactly one hyperplane of the group, the one with h_n = -s; a
    point with x_n = 0 lies on every one of them when s = 0 and on none
    otherwise.

    The prefix splits into a head, walked by ``_prefix_sums``, and its last
    t coordinates, t from ``_tail_width``.  Per head one bincount over the
    keys (s, x_{n-t}..x_{n-1}, x_n = 0) is the joint histogram, and one
    gather through ``_tail_index`` turns it into the counts of every tail
    and every value of h_n.  The zero head comes last and keeps the
    normalized nonzero tails only, in their own ``projective_points`` order.

    Yields one 2-D block per head; the rows, concatenated, follow the
    prefixes of ``projective_points(F, n - 1)``; column v is the hyperplane
    with h_n = -v.  Every hyperplane gets an exact count from every point.
    """
    n, q2 = S.n, ctx.q2
    hyperplanes = num_projective_points(q2, n)
    if hyperplanes > budget:
        raise BudgetExceededError(f"hyperplane enumeration would take "
                                  f"{hyperplanes} hyperplanes, budget is {budget}")
    F = ctx.Fq2
    add, mul = F.np_add_table(), F.np_mul_table()
    pts = S.points
    at_infinity = pts[:, n] == 0
    scale = np.array([1] + [F.inv(x) for x in range(1, q2)])  # x_n -> 1
    pts = mul[scale[pts[:, n, None]], pts]
    t = _tail_width(n, q2, len(S))
    width = q2**t
    idx = _tail_index(F, q2, t)
    cells = 2 * q2 * width
    point_key = at_infinity * (q2 * width)  # the (y, x_n = 0) part
    for j in range(t):
        point_key += pts[:, n - t + j] * q2 ** (t - 1 - j)

    def counts(s):
        key = np.multiply(s, width, dtype=np.intp)
        key += point_key
        c = np.take(np.bincount(key, minlength=cells), idx).sum(axis=0)
        return c[:, :q2] + c[:, q2:]

    for s in _prefix_sums([pts[:, i] for i in range(n - t)], add, mul, q2):
        yield counts(s)
    if t:  # the normalized tails (0..0, 1, rest) by lead, rest as an integer
        tails = [q2**k + np.arange(q2**k) for k in range(t - 1, -1, -1)]
        yield counts(np.zeros(len(S), dtype=np.int32))[np.concatenate(tails)]


def character_spectrum(S: PointSet, ctx: FieldCtx,
                       budget: int = DEFAULT_BUDGET) -> Counter:
    """Multiset {|S meet H| : H hyperplane of PG(n, q^2)} as a Counter.

    The counts come from ``_hyperplane_counts``; the hyperplane
    (0, ..., 0, 1) holds the points with x_n = 0.
    """
    hist = np.zeros(len(S) + 1, dtype=np.int64)
    hist[np.count_nonzero(S.points[:, -1] == 0)] += 1
    for counts in _hyperplane_counts(S, ctx, budget):
        hist += np.bincount(counts.ravel(), minlength=len(S) + 1)
    seen = np.flatnonzero(hist)
    return Counter(dict(zip(seen.tolist(), hist[seen].tolist())))


def first_hyperplane_outside(S: PointSet, ctx: FieldCtx, support,
                             budget: int = DEFAULT_BUDGET):
    """(h, |S meet h|) for the first hyperplane h, in ``projective_points``
    order, whose count is not in ``support``; None when there is none."""
    n, q2 = S.n, ctx.q2
    allowed = np.isin(np.arange(len(S) + 1), list(support))
    neg = ctx.Fq2.np_neg_table()
    done = 0
    for counts in _hyperplane_counts(S, ctx, budget):
        by_last = counts[:, neg]  # column h_n
        bad = np.flatnonzero(~allowed[by_last])
        if len(bad):
            k, h = divmod(int(bad[0]), q2)
            prefix = projective_points(ctx.Fq2, n - 1)[done + k].tolist()
            return (*prefix, h), int(by_last[k, h])
        done += len(counts)
    at_infinity = np.count_nonzero(S.points[:, -1] == 0)
    if not allowed[at_infinity]:
        return (0,) * n + (1,), at_infinity
    return None
