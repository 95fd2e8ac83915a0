"""Points of PG(n, q^2), the degree-2q variety, and hyperplane characters.

The central object is the point set M_{a,b}: the affine zero set of the
base form of ``params``,

    X_n^q - X_n + a^q (X_1^{2q}+...+X_{n-1}^{2q}) - a (X_1^2+...+X_{n-1}^2)
        - (b^q - b)(X_1^{q+1}+...+X_{n-1}^{q+1}),

glued with the Hermitian cone over the first n-1 coordinates at infinity
(vertex (0,...,0,1)).  For admissible parameters this is a two-character set
with the same hyperplane intersection numbers as the Hermitian variety.

Note the cone ranges over X_1..X_{n-1} only.  A cone including X_n would put
q+1 points at infinity for n = 2 instead of the single point a unital needs;
the point-count oracle (|M| must equal the Hermitian count) arbitrates.

The parameter layer lives in ``params``; this module binds its names as
well, so that ``geometry.scan_params`` and its siblings keep resolving.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce

import numpy as np

from ._record import record
from .fields import DEFAULT_BUDGET, FieldCtx, check_budget, format_rows
from .params import (BMParams, ParameterError, bab_affine_eval,  # noqa: F401
                     check_R_budget, classical_params, coordinate_tables,
                     family_params, lex_grid, scan_params, separating_map,
                     separation_value, validate_params)


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

    def export_bytes(self, ctx: FieldCtx) -> bytes:
        """One point per line; elements as comma-joined GF(p) digit vectors."""
        names = [ctx.format_element(c) for c in range(ctx.q2)]
        return format_rows(self.points, names, " ")


def point_set(n: int, pts) -> PointSet:
    rows = np.asarray(pts, dtype=np.int32).reshape(-1, n + 1)
    # sorted, duplicates dropped; asking for the inverse keeps np.unique off
    # its masked-array check, which imports numpy.ma (about 15 ms cold)
    return PointSet(n, np.unique(rows, axis=0, return_inverse=True)[0])


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
    check_budget(ctx.q ** (2 * n - 1), budget, "affine enumeration would give",
                 "points")
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


def _check_hyperplane_budget(n: int, q2: int, budget: int) -> None:
    check_budget(num_projective_points(q2, n), budget,
                 "hyperplane enumeration would take", "hyperplanes")


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
    _check_hyperplane_budget(n, q2, budget)
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


def _full_spectrum(S: PointSet, ctx: FieldCtx, budget: int) -> Counter:
    """The counts of ``_hyperplane_counts`` as a Counter; the hyperplane
    (0, ..., 0, 1) holds the points with x_n = 0."""
    hist = np.zeros(len(S) + 1, dtype=np.int64)
    hist[np.count_nonzero(S.points[:, -1] == 0)] += 1
    for counts in _hyperplane_counts(S, ctx, budget):
        hist += np.bincount(counts.ravel(), minlength=len(S) + 1)
    seen = np.flatnonzero(hist)
    return Counter(dict(zip(seen.tolist(), hist[seen].tolist())))


def first_uneven_head(S: PointSet, params: BMParams):
    """(head, count) for the first head (x_1..x_{n-1}), in lexicographic
    order, that does not carry exactly q affine points of S; None when every
    head does, as every head of M_{a,b} carries the q roots of its d."""
    n, q2 = S.n, params.ctx.q2
    key = np.ravel_multi_index(S.points[:, 1:n].T, (q2,) * (n - 1))
    key[S.points[:, 0] != 1] = q2 ** (n - 1)  # a last bin for the rest
    per_head = np.bincount(key, minlength=q2 ** (n - 1) + 1)[:-1]
    uneven = np.flatnonzero(per_head != params.q)
    if not len(uneven):
        return None
    head = np.unravel_index(uneven[0], (q2,) * (n - 1))
    return tuple(map(int, head)), int(per_head[uneven[0]])


def _orbit_spectrum(S: PointSet, params: BMParams, budget: int):
    """The spectrum of S from the stabilizer's orbits, or None unless the
    certificate proves S = M_{a,b}.

    Certificate: L = ``separating_map`` is injective (nonzero separation
    value); S, sorted, starts with the cone and has only affine points
    after it; these are zeros of the base form, q over every head, so all
    the roots of each head's Z^q - Z = d, that is M's affine points.  The
    cone is the vertex and q^2 points over each point of its base B, the
    Hermitian variety of PG(n-2, q^2) in (x_1..x_{n-1}).

    h_n != 0, scaled to 1.  The element g of Psi at alpha in M (beta_i =
    -L(alpha_i)) maps the hyperplane h to M(g) h: h_i loses L(alpha_i) for
    0 < i < n, and h_0 gains sum_j alpha_j h_j.  g fixes M: pulled back,
    the base form shifts no coefficient and gains F(alpha) = 0, and at
    infinity g keeps (x_1..x_{n-1}), which define the cone.  So |M meet h|
    is constant on Psi-orbits.  L is bijective: alpha_i = L^{-1}(h_i)
    clears the prefix, alpha_n running over a coset of GF(q), and the
    elements keeping a zero prefix shift h_0 by GF(q).  So each orbit holds
    one (c, 0, ..., 0, 1), c in the transversal, and q^{2n-1} hyperplanes;
    (c, 0, ..., 0, 1) meets M in the affine points with x_n = -c and B.

    h_n = 0.  x_0 = 0 meets M in the cone.  Each other h is (h_0, h', 0),
    h' a point of the dual PG(n-2, q^2) and h_0 any of q^2 values: the
    q^{2n-4} heads on h_0 + h'.x = 0 carry q points each, and the cone
    gives the vertex and q^2 points over each point of B on h'.  So h meets
    M in q^{2n-3} + 1 + q^2 k points, k from B's spectrum (k = 0 at n = 2,
    where B is empty and PG(0) has one hyperplane).
    """
    ctx, n, q = params.ctx, S.n, params.q
    cone = cone_at_infinity(ctx, n)
    affine = S.points[len(cone):]
    if (n != params.n or separation_value(ctx, params.a, params.b) == 0
            or not np.array_equal(S.points[:len(cone)], cone)
            or (affine[:, 0] != 1).any()
            or first_uneven_head(S, params) is not None
            or not np.array_equal(coordinate_tables(params)[0][affine[:, n]],
                                  affine_rhs(params, affine[:, 1:n]))):
        return None
    base = cone[cone[:, n] == 0, 1:n]
    by_last = np.bincount(affine[:, n], minlength=ctx.q2)
    spectrum = Counter({len(cone): 1})
    for c in ctx.transversal:
        spectrum[int(by_last[ctx.Fq2.neg(c)]) + len(base)] += q ** (2 * n - 1)
    ks = _full_spectrum(PointSet(n - 2, base), ctx, budget) if n > 2 else {0: 1}
    for k, m in ks.items():
        spectrum[q ** (2 * n - 3) + 1 + q * q * k] += q * q * m
    return Counter(dict(sorted(spectrum.items())))


def character_spectrum(S: PointSet, ctx: FieldCtx,
                       budget: int = DEFAULT_BUDGET,
                       params: BMParams | None = None) -> Counter:
    """Multiset {|S meet H| : H hyperplane of PG(n, q^2)} as a Counter.

    With the ``params`` that ``bm_variety`` built S from, ``_orbit_spectrum``
    counts q hyperplanes and B's spectrum; otherwise, or when its
    certificate fails, ``_full_spectrum`` counts every hyperplane.
    """
    if params is not None:
        _check_hyperplane_budget(S.n, ctx.q2, budget)
        spectrum = _orbit_spectrum(S, params, budget)
        if spectrum is not None:
            return spectrum
    return _full_spectrum(S, ctx, budget)


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
