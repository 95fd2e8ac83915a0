import random

import numpy as np
import pytest

from qhv import collineations as col
from qhv import geometry as geo
from qhv.fields import field_context


def test_identity_and_centre_action():
    ctx = field_context(3)
    g = col.identity(2)
    for pt in [(1, 4, 7), (0, 1, 3), (0, 0, 1)]:
        assert col.apply(ctx, g, pt) == pt
    # centre element: (1, x1, x2) -> (1, x1, x2 + alpha_n)
    c = col.centre_element(2, 5)
    for x1 in range(9):
        for x2 in range(9):
            img = col.apply(ctx, c, (1, x1, x2))
            assert img == (1, x1, ctx.Fq2.add(x2, 5))


def test_apply_fixes_infinity():
    ctx = field_context(2)
    p_inf = (0, 0, 1)
    for g in col.all_collineations(ctx, 2):
        assert col.apply(ctx, g, p_inf) == p_inf
        img = col.apply(ctx, g, (0, 1, 3))
        assert img[0] == 0  # the hyperplane at infinity is stabilized


def test_apply_dimension_mismatch():
    ctx = field_context(2)
    with pytest.raises(ValueError):
        col.apply(ctx, col.identity(2), (1, 0, 0, 0))


def test_matrix_reconstruction_matches_compose():
    ctx = field_context(3)
    F = ctx.Fq2
    rng = random.Random(3)

    def matmul(A, B):
        n = len(A)
        return [[_dot(F, A[i], [B[k][j] for k in range(n)]) for j in range(n)]
                for i in range(n)]

    def _dot(F, u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = F.add(acc, F.mul(x, y))
        return acc

    for _ in range(30):
        g = col.Collineation(tuple(rng.randrange(9) for _ in range(3)),
                             tuple(rng.randrange(9) for _ in range(2)))
        h = col.Collineation(tuple(rng.randrange(9) for _ in range(3)),
                             tuple(rng.randrange(9) for _ in range(2)))
        assert matmul(col.to_matrix(g), col.to_matrix(h)) == \
            col.to_matrix(col.compose(ctx, g, h))
        assert matmul(col.to_matrix(g), col.to_matrix(col.inverse(ctx, g))) == \
            col.to_matrix(col.identity(3))


def test_group_order_exhaustive_2_2():
    ctx = field_context(2)
    elems = list(col.all_collineations(ctx, 2))
    assert len(elems) == len(set(elems)) == 2 ** (2 * (2 * 2 - 1))


def test_action_associativity_random():
    ctx = field_context(4)
    rng = random.Random(11)
    for _ in range(40):
        g = col.Collineation(tuple(rng.randrange(16) for _ in range(2)),
                             (rng.randrange(16),))
        h = col.Collineation(tuple(rng.randrange(16) for _ in range(2)),
                             (rng.randrange(16),))
        pt = (1, rng.randrange(16), rng.randrange(16))
        assert col.apply(ctx, h, col.apply(ctx, g, pt)) == \
            col.apply(ctx, col.compose(ctx, g, h), pt)


# -- the stabilizer -----------------------------------------------------------

def test_identity_in_psi():
    ctx = field_context(2)
    params = geo.scan_params(ctx, 2, mode="family")
    assert col.in_psi(params, col.identity(2))


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3)])
def test_psi_count_exhaustive(n, q):
    ctx = field_context(q)
    params = geo.scan_params(ctx, n, mode="family")
    count = sum(col.in_psi(params, g) for g in col.all_collineations(ctx, n))
    assert count == q ** (2 * n - 1)
    assert len(col.psi_group(params)) == count


def test_psi_permutes_affine_points_2_2():
    ctx = field_context(2)
    params = geo.scan_params(ctx, 2, mode="family")
    aff = {(1, *pt) for pt in geo.affine_points(params).tolist()}
    for g in col.psi_group(params):
        assert {col.apply(ctx, g, p) for p in aff} == aff


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3)])
def test_psi_sharply_transitive(n, q):
    ctx = field_context(q)
    params = geo.scan_params(ctx, n, mode="family")
    psi = col.psi_group(params)
    origin = (1,) + (0,) * n
    images = [col.apply(ctx, g, origin) for g in psi]
    aff = {(1, *pt) for pt in geo.affine_points(params).tolist()}
    assert len(set(images)) == len(images)       # free
    assert set(images) == aff                    # transitive


# -- the section R ------------------------------------------------------------

def test_build_r_basics():
    ctx = field_context(3)
    params = geo.scan_params(ctx, 2, mode="family")
    R = col.build_R(params)
    assert len(R) == 9
    assert col.identity(2) in R
    C = set(ctx.transversal)
    for g in R:
        assert g.betas == (0,)
        assert g.alphas[-1] in C
    # lexicographic ordering by the alpha head
    heads = [g.alphas[:-1] for g in R]
    assert heads == sorted(heads)


def test_r_zero_head_is_identity():
    for q in (2, 3, 4):
        ctx = field_context(q)
        params = geo.scan_params(ctx, 2, mode="family")
        R = col.build_R(params)
        assert R[0] == col.identity(2)


def test_r_cosets_avoid_psi_2_3():
    ctx = field_context(3)
    params = geo.scan_params(ctx, 2, mode="family")
    R = col.build_R(params)
    for g in R:
        for g2 in R:
            gg = col.compose(ctx, g, col.inverse(ctx, g2))
            assert col.in_psi(params, gg) == (g == g2)


def test_build_r_is_tuple_of_distinct_heads():
    ctx = field_context(2)
    params = geo.scan_params(ctx, 2, mode="family")
    R = col.build_R(params)
    assert isinstance(R, tuple) and len(R) == 4
    assert len({g.alphas for g in R}) == 4


def test_r_element_reports_nonzero_trace_as_arithmetic_bug(monkeypatch):
    ctx = field_context(3)
    params = geo.scan_params(ctx, 2, mode="family")
    d = next(x for x in range(ctx.q2) if ctx.trace(x) != 0)
    monkeypatch.setattr(col, "affine_rhs",
                        lambda params, heads: np.full(len(heads), d))
    with pytest.raises(RuntimeError, match="nonzero trace; arithmetic bug"):
        col.build_R(params)


def test_apply_commutes_with_scalar_rescaling():
    ctx = field_context(3)
    F = ctx.Fq2
    import random as _r

    rng = _r.Random(17)
    for _ in range(30):
        g = col.Collineation(tuple(rng.randrange(9) for _ in range(2)),
                             (rng.randrange(9),))
        pt = (rng.randrange(1, 9), rng.randrange(9), rng.randrange(9))
        for s in range(1, 9):
            scaled = tuple(F.mul(s, c) for c in pt)
            assert col.apply(ctx, g, scaled) == col.apply(ctx, g, pt)


def test_centre_subgroup_semiregular():
    # translations by alpha_n in GF(q) along the last coordinate: no fixed
    # affine points, and every line through (0,...,0,1) is preserved
    ctx = field_context(3)
    for an in range(1, 3):
        c = col.centre_element(2, an)
        for x1 in range(9):
            for x2 in range(9):
                img = col.apply(ctx, c, (1, x1, x2))
                assert img != (1, x1, x2)
                assert img[1] == x1  # stays on the line x1 = const
