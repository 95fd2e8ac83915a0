"""The mutually intersecting family of varieties indexed by the section R.

Pulling the base affine form back along a group element only shifts the
coefficients of X_i^q and X_i (i < n) and the constant; an ``AffineForm``
stores exactly that coefficient table.  For elements of R the constant
vanishes, every value on an affine point is trace-zero, and any two distinct
members share exactly q^{2n-2} affine points.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .collineations import Collineation, RSet, build_R, identity
from .geometry import BMParams, bab_affine_eval
from .fields import FieldCtx


@dataclass(frozen=True)
class AffineForm:
    """Base affine form plus Sum u_i X_i^q + Sum v_i X_i + w."""

    params: BMParams
    g: Collineation
    u: tuple[int, ...]
    v: tuple[int, ...]
    w: int

    def evaluate(self, x) -> int:
        """Value at the affine point x = (x_1, ..., x_n)."""
        ctx = self.params.ctx
        F = ctx.Fq2
        val = bab_affine_eval(self.params, x)
        for ui, vi, xi in zip(self.u, self.v, x):
            if ui:
                val = F.add(val, F.mul(ui, ctx.frob[xi]))
            if vi:
                val = F.add(val, F.mul(vi, xi))
        return F.add(val, self.w)

    def __call__(self, x) -> int:
        return self.evaluate(x)


def base_form(params: BMParams) -> AffineForm:
    n = params.n
    return AffineForm(params, identity(n), (0,) * (n - 1), (0,) * (n - 1), 0)


def act_on_form(g: Collineation, form: AffineForm) -> AffineForm:
    """The pullback F^g with (F^g)(P) = F(g applied to P) for affine P."""
    params = form.params
    if g.n != params.n:
        raise ValueError("dimension mismatch")
    ctx = params.ctx
    F = ctx.Fq2
    frob = ctx.frob
    a, b = params.a, params.b
    two = 2 % ctx.p
    two_a = F.mul(two, a)
    two_aq = F.mul(two, frob[a])
    bqmb = F.sub(frob[b], b)
    u, v = [], []
    for ui, vi, alpha, beta in zip(form.u, form.v, g.alphas[:-1], g.betas):
        du = F.sub(F.mul(two_aq, frob[alpha]), F.mul(bqmb, alpha))
        du = F.add(du, frob[beta])
        dv = F.add(F.mul(two_a, alpha), F.mul(bqmb, frob[alpha]))
        dv = F.neg(F.add(dv, beta))
        u.append(F.add(ui, du))
        v.append(F.add(vi, dv))
    w = F.add(form.w, bab_affine_eval(params, g.alphas))
    for ui, vi, alpha in zip(form.u, form.v, g.alphas[:-1]):
        w = F.add(w, F.mul(ui, frob[alpha]))
        w = F.add(w, F.mul(vi, alpha))
    return AffineForm(params, g, tuple(u), tuple(v), w)


def family(params: BMParams, rset: RSet | None = None) -> list[AffineForm]:
    """The q^{2n-2} pullbacks of the base form, in R order."""
    if rset is None:
        rset = build_R(params)
    base = base_form(params)
    forms = [act_on_form(g, base) for g in rset]
    for f in forms:
        if f.w != 0:
            raise RuntimeError("R-form has nonzero constant")  # pragma: no cover
    return forms


@dataclass(frozen=True)
class WSet:
    """Reference grid: x_0 = 1, x_1..x_{n-1} free, x_n in the transversal."""

    n: int
    points: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def w_set(ctx: FieldCtx, n: int) -> WSet:
    """All q^{2n-1} rows in lexicographic order (x_n by transversal order)."""
    pts = tuple(
        head + (xn,)
        for head in product(range(ctx.q2), repeat=n - 1)
        for xn in ctx.transversal
    )
    return WSet(n, pts)


def form_values(forms: list[AffineForm], points) -> np.ndarray:
    """Values of every form at every affine point, len(points) x len(forms).

    The Frobenius map is additive, so each form splits coordinatewise as
    Z(x_n) + Sum_{i<n} [H(x_i) + u_i x_i^q + v_i x_i] + w, with Z and H the
    base form restricted to one coordinate.  Every coordinate thus becomes a
    length-q^2 table per form, and a value is a sum of table lookups.
    ``AffineForm.evaluate`` is the scalar reference for this.
    """
    params = forms[0].params
    ctx, n = params.ctx, params.n
    add, mul = ctx.Fq2.np_add_table(), ctx.Fq2.np_mul_table()
    frob = ctx.np_frob()
    zeros = (0,) * (n - 1)
    Z = np.array([bab_affine_eval(params, zeros + (x,)) for x in range(ctx.q2)],
                 dtype=np.int32)
    H = np.array([bab_affine_eval(params, (x,) + zeros) for x in range(ctx.q2)],
                 dtype=np.int32)
    u = np.array([f.u for f in forms], dtype=np.int32)
    v = np.array([f.v for f in forms], dtype=np.int32)
    w = np.array([f.w for f in forms], dtype=np.int32)
    pts = np.asarray(points, dtype=np.int32).reshape(-1, n)
    values = Z[pts[:, -1], None]
    for i in range(n - 1):
        table = add[add[H, mul[u[:, i]][:, frob]], mul[v[:, i]]]
        values = add[values, table[:, pts[:, i]].T]
    return add[values, w]


@lru_cache(maxsize=512)
def _tail_profile(form: AffineForm) -> tuple[int, ...]:
    """Values of the x_n-free part over all (x_1..x_{n-1}), fixed order.

    For each head the affine solutions in x_n form the Artin-Schreier coset
    determined by this value, so two forms agree on a head's fibre exactly
    when the profiles match there.
    """
    ctx, n = form.params.ctx, form.params.n
    heads = [head + (0,) for head in product(range(ctx.q2), repeat=n - 1)]
    return tuple(form_values([form], heads)[:, 0].tolist())


def intersection_count(f1: AffineForm, f2: AffineForm) -> int:
    """Number of common affine zeros, via the coset-matching reduction.

    Equals q^{2n-1} when the forms coincide and q^{2n-2} for distinct family
    members.
    """
    if f1.params is not f2.params and f1.params != f2.params:
        raise ValueError("forms must share parameters")
    q = f1.params.ctx.q
    p1, p2 = _tail_profile(f1), _tail_profile(f2)
    return q * sum(a == b for a, b in zip(p1, p2))


def pairwise_counts(forms: list[AffineForm]) -> Counter:
    """Histogram of ``intersection_count`` over all unordered pairs."""
    return Counter(intersection_count(f1, f2) for f1, f2 in combinations(forms, 2))


def s_coefficients(params: BMParams, g: Collineation, g2: Collineation) -> tuple[int, ...]:
    """2 a (alpha_i - alpha'_i) + (b^q - b)(alpha_i^q - alpha'_i^q), i < n."""
    ctx = params.ctx
    F = ctx.Fq2
    two_a = F.mul(2 % ctx.p, params.a)
    bqmb = F.sub(ctx.frob[params.b], params.b)
    out = []
    for x, y in zip(g.alphas[:-1], g2.alphas[:-1]):
        d = F.sub(x, y)
        dq = F.sub(ctx.frob[x], ctx.frob[y])
        out.append(F.add(F.mul(two_a, d), F.mul(bqmb, dq)))
    return tuple(out)


def separating_g(params: BMParams, P, P2,
                 forms: list[AffineForm] | None = None) -> Collineation:
    """First R-member whose form takes different values at P and P2."""
    if tuple(P) == tuple(P2):
        raise ValueError("points must be distinct")
    if forms is None:
        forms = family(params)
    for f in forms:
        if f.evaluate(P) != f.evaluate(P2):
            return f.g
    raise RuntimeError(
        "no separating form exists; the separation property is violated"
    )  # pragma: no cover
