"""The mutually intersecting family of varieties indexed by the section R.

Pulling the base affine form back along a group element only shifts the
coefficients of X_i^q and X_i (i < n) and the constant; an ``AffineForm``
stores exactly that coefficient table.  For elements of R the constant
vanishes, so the family is two k x (n-1) arrays (u, v) of coefficients,
every value on an affine point is trace-zero, and any two distinct members
share exactly q^{2n-2} affine points.
"""

from __future__ import annotations

import numpy as np

from ._record import record
from .params import (BMParams, bab_affine_eval, check_R_budget,
                     coordinate_tables, lex_grid, separating_map)
from .fields import DEFAULT_BUDGET, BudgetExceededError, FieldCtx
from .linalg import gram


@record(frozen=True)
class AffineForm:
    """Base affine form plus Sum u_i X_i^q + Sum v_i X_i + w."""

    params: BMParams
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


def base_form(params: BMParams) -> AffineForm:
    zeros = (0,) * (params.n - 1)
    return AffineForm(params, zeros, zeros, 0)


def family(params: BMParams, heads=None,
           budget: int = DEFAULT_BUDGET) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) of the pullback along the R-member over each alpha head of
    ``heads``, k x (n-1) int32: u = L(alpha)^q, v = -L(alpha) (L =
    ``separating_map``; R has no betas and w = 0, so alpha_n is not needed).
    ``heads`` defaults to all q^{2n-2}, in R order, within the budget."""
    ctx = params.ctx
    if heads is None:
        check_R_budget(params, budget)
        heads = lex_grid((ctx.q2,) * (params.n - 1))
    L = np.array([separating_map(params, x) for x in range(ctx.q2)],
                 dtype=np.int32)
    s = L[np.asarray(heads, dtype=np.intp)]
    return ctx.np_frob()[s], ctx.Fq2.np_neg_table()[s]


def w_set(ctx: FieldCtx, n: int) -> np.ndarray:
    """Reference grid x_0 = 1, x_n in the transversal: q^{2n-1} x n, int32,
    its rows lexicographic in (x_1, ..., x_{n-1}), x_n in transversal order."""
    heads = lex_grid((ctx.q2,) * (n - 1))
    C = np.array(ctx.transversal, dtype=np.int32)
    return np.column_stack([np.repeat(heads, len(C), axis=0),
                            np.tile(C, len(heads))])


def form_values(params: BMParams, u: np.ndarray, v: np.ndarray,
                points) -> np.ndarray:
    """Values of the forms with coefficient rows (u, v) and constant 0 at
    every affine point, len(points) x len(u).

    Each form splits coordinatewise as Z(x_n) + Sum_{i<n} [H(x_i) +
    u_i x_i^q + v_i x_i], with Z and H from ``coordinate_tables``.  Every
    coordinate thus becomes a length-q^2 table per form, and a value is a sum
    of table lookups.  ``AffineForm.evaluate`` is the scalar reference for
    this.
    """
    ctx, n = params.ctx, params.n
    add, mul = ctx.Fq2.np_add_table(), ctx.Fq2.np_mul_table()
    frob = ctx.np_frob()
    Z, H = coordinate_tables(params)
    pts = np.asarray(points, dtype=np.int32).reshape(-1, n)
    values = Z[pts[:, -1], None]
    for i in range(n - 1):
        table = add[add[H, mul[u[:, i]][:, frob]], mul[v[:, i]]]
        values = add[values, table[:, pts[:, i]].T]
    return values


def _head_values(params: BMParams, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``form_values`` at the q^{2n-2} heads (x_1, ..., x_{n-1}, 0), in
    lexicographic order; Z(0) = 0, so these are the x_n-free parts."""
    return form_values(params, u, v,
                       lex_grid((params.ctx.q2,) * (params.n - 1) + (1,)))


def w_values(params: BMParams, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``form_values(params, u, v, w_set(ctx, n))``, q^{2n-1} x len(u).

    A point of W is a head and x_n in the transversal, and every form is
    Z(x_n) plus its value at the head with x_n = 0.  So only the q^{2n-2}
    heads go through ``form_values``; each row of head values is then added
    to the q values of Z on the transversal in one broadcast.
    """
    ctx = params.ctx
    heads = _head_values(params, u, v)
    Z = coordinate_tables(params)[0][list(ctx.transversal)]
    values = ctx.Fq2.np_add_table()[Z[:, None], heads[:, None, :]]
    return values.reshape(-1, len(u))


def intersection_count(params: BMParams, u: np.ndarray, v: np.ndarray,
                       budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """k x k matrix of common affine zeros of the forms (u, v), via the
    coset-matching reduction.

    For each head (x_1..x_{n-1}) the affine solutions in x_n form the
    Artin-Schreier coset determined by the x_n-free part of the form, so two
    forms share a head's q zeros exactly when their tail profiles agree
    there.  With P the heads x forms matrix of profiles, entry (i, j) is q
    times the number of heads where columns i and j agree, that is
    q Sum_c (P = c)^T (P = c): the Gram matrix of the 0/1 matrix with rows
    indexed by (head, value).  Only the pairs that occur get a row, as the
    others hold no 1.  It reads q^{2n-1} on the diagonal and q^{2n-2}
    between distinct family members.  Values are trace-zero, so the 0/1
    matrix has at most q rows for each of the q^{2n-2} heads, q k^2 cells
    for the whole family; raises ``BudgetExceededError`` when its cells
    exceed the budget.
    """
    ctx = params.ctx
    k = len(u)
    cells = ctx.q * ctx.q2 ** (params.n - 1) * k
    if cells > budget:
        raise BudgetExceededError(
            f"the {k} x {k} intersection matrix would take {cells} one-hot "
            f"cells, budget is {budget}")
    profiles = _head_values(params, u, v)
    pairs = np.arange(len(profiles))[:, None] * ctx.q2 + profiles
    rows, row_of = np.unique(pairs, return_inverse=True)
    hits = np.zeros((len(rows), k), dtype=bool)
    hits[row_of.reshape(pairs.shape), np.arange(k)] = True
    return ctx.q * gram(hits)


def separating_member(params: BMParams, P, P2, forms=None) -> int:
    """Index of the first family member whose form takes different values at
    P and P2; ``forms`` is ``family(params)`` when the caller has already
    built it."""
    if tuple(P) == tuple(P2):
        raise ValueError("points must be distinct")
    if forms is None:
        forms = family(params)
    values = form_values(params, *forms, [P, P2])
    differ = np.flatnonzero(values[0] != values[1])
    if len(differ):
        return int(differ[0])
    raise RuntimeError(
        "no separating form exists; the separation property is violated"
    )  # pragma: no cover
