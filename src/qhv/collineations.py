"""The collineation group fixing (0,...,0,1) and its variety stabilizer.

Group elements are stored by their parameter vectors (alpha_1..alpha_n,
beta_1..beta_{n-1}); the corresponding matrix is upper unitriangular with the
alphas across the first row and the betas down the last column.  Composition
and inversion are done symbolically from that block structure; ``to_matrix``
rebuilds the dense form for cross-checks, and ``act_on_form`` pulls an
``AffineForm`` back along an element.
"""

from __future__ import annotations

from itertools import product

from ._record import record
from .fields import DEFAULT_BUDGET, FieldCtx
from .geometry import affine_points, affine_rhs, normalize_point
from .params import (BMParams, bab_affine_eval, check_R_budget, lex_grid,
                     separating_map)
from .intersecting_family import AffineForm


@record(frozen=True)
class Collineation:
    alphas: tuple[int, ...]
    betas: tuple[int, ...]

    def __post_init__(self):
        if len(self.betas) != len(self.alphas) - 1:
            raise ValueError("need n alphas and n-1 betas")

    @property
    def n(self) -> int:
        return len(self.alphas)


def identity(n: int) -> Collineation:
    return Collineation((0,) * n, (0,) * (n - 1))


def to_matrix(g: Collineation) -> list[list[int]]:
    """Dense (n+1)x(n+1) matrix representative (row-vector action)."""
    n = g.n
    m = [[1 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
    for j, a in enumerate(g.alphas, start=1):
        m[0][j] = a
    for i, b in enumerate(g.betas, start=1):
        m[i][n] = b
    return m


def apply(ctx: FieldCtx, g: Collineation, point) -> tuple[int, ...]:
    """Row-vector-times-matrix action on a projective point, renormalized."""
    if len(point) != g.n + 1:
        raise ValueError("dimension mismatch")
    F = ctx.Fq2
    n = g.n
    x0 = point[0]
    out = [x0]
    for j in range(1, n):
        out.append(F.add(point[j], F.mul(x0, g.alphas[j - 1])))
    yn = F.add(point[n], F.mul(x0, g.alphas[n - 1]))
    for i in range(1, n):
        yn = F.add(yn, F.mul(point[i], g.betas[i - 1]))
    out.append(yn)
    return normalize_point(F, out)


def compose(ctx: FieldCtx, g1: Collineation, g2: Collineation) -> Collineation:
    """The element with matrix M(g1) M(g2); applying it is g1 then g2."""
    if g1.n != g2.n:
        raise ValueError("dimension mismatch")
    F = ctx.Fq2
    n = g1.n
    alphas = [F.add(a, b) for a, b in zip(g1.alphas[:-1], g2.alphas[:-1])]
    an = F.add(g1.alphas[-1], g2.alphas[-1])
    for i in range(n - 1):
        an = F.add(an, F.mul(g1.alphas[i], g2.betas[i]))
    betas = tuple(F.add(a, b) for a, b in zip(g1.betas, g2.betas))
    return Collineation(tuple(alphas) + (an,), betas)


def act_on_form(g: Collineation, form: AffineForm) -> AffineForm:
    """The pullback F^g with (F^g)(P) = F(g applied to P) for affine P.

    With shift_i = L(alpha_i) + beta_i (L = ``separating_map``), u_i gains
    shift_i^q, v_i loses shift_i, and the constant becomes F(alpha).
    """
    params = form.params
    if g.n != params.n:
        raise ValueError("dimension mismatch")
    F = params.ctx.Fq2
    frob = params.ctx.frob
    u, v = [], []
    for ui, vi, alpha, beta in zip(form.u, form.v, g.alphas[:-1], g.betas):
        shift = F.add(separating_map(params, alpha), beta)
        u.append(F.add(ui, frob[shift]))
        v.append(F.sub(vi, shift))
    return AffineForm(params, tuple(u), tuple(v), form.evaluate(g.alphas))


def inverse(ctx: FieldCtx, g: Collineation) -> Collineation:
    F = ctx.Fq2
    n = g.n
    alphas = [F.neg(a) for a in g.alphas[:-1]]
    an = F.neg(g.alphas[-1])
    for i in range(n - 1):
        an = F.add(an, F.mul(g.alphas[i], g.betas[i]))
    betas = tuple(F.neg(b) for b in g.betas)
    return Collineation(tuple(alphas) + (an,), betas)


def all_collineations(ctx: FieldCtx, n: int):
    """The whole group, all q^{2(2n-1)} elements (desk scale only)."""
    for vec in product(range(ctx.q2), repeat=2 * n - 1):
        yield Collineation(vec[:n], vec[n:])


def centre_element(n: int, alpha_n: int) -> Collineation:
    """Translation along the last coordinate only."""
    return Collineation((0,) * (n - 1) + (alpha_n,), (0,) * (n - 1))


def _beta_constraint(params: BMParams, alpha: int) -> int:
    """-L(alpha), with L = ``separating_map``."""
    return params.ctx.Fq2.neg(separating_map(params, alpha))


def in_psi(params: BMParams, g: Collineation) -> bool:
    """Membership in the stabilizer of the variety.

    Requires beta_i = (b - b^q) alpha_i^q - 2 a alpha_i for every i (note
    2a = 0 in even characteristic) and that the alpha vector satisfies the
    affine equation itself.
    """
    if g.n != params.n:
        raise ValueError("dimension mismatch")
    return (all(beta == _beta_constraint(params, alpha)
                for alpha, beta in zip(g.alphas[:-1], g.betas))
            and bab_affine_eval(params, g.alphas) == 0)


def psi_group(params: BMParams) -> list[Collineation]:
    """All q^{2n-1} stabilizer elements: one per affine point of the variety,
    in the order of ``affine_points``."""
    return [Collineation(tuple(pt), tuple(_beta_constraint(params, a)
                                          for a in pt[:-1]))
            for pt in affine_points(params).tolist()]


def build_R(params: BMParams,
            budget: int = DEFAULT_BUDGET) -> tuple[Collineation, ...]:
    """One collineation per alpha head (alpha_1..alpha_{n-1}), in
    lexicographic order: no betas, and alpha_n the transversal root that puts
    alpha on the variety, so distinct members differ by an element outside
    the stabilizer and index distinct varieties."""
    check_R_budget(params, budget)
    heads = lex_grid((params.ctx.q2,) * (params.n - 1))
    try:
        an = params.ctx.transversal_roots(affine_rhs(params, heads))
    except ValueError:
        raise RuntimeError(
            "right-hand side has nonzero trace; arithmetic bug") from None
    return tuple(Collineation((*head, a), (0,) * (params.n - 1))
                 for head, a in zip(heads.tolist(), an.tolist()))
