"""The mutually intersecting family: q^{2n-2} varieties, pairwise meeting in
exactly q^{2n-2} affine points.
"""

from qhv import (
    act_on_form,
    base_form,
    build_R,
    family,
    field_context,
    intersection_count,
    scan_params,
    separating_member,
    w_set,
)

n, q = 2, 3
ctx = field_context(q)
params = scan_params(ctx, n, mode="family")
print(f"parameters: a={params.a}, b={params.b}, condition {params.condition}")

R = build_R(params)
print(f"|R| = {len(R)}; every member has betas = 0 and alpha_n in the "
      f"transversal {list(ctx.transversal)}")
for g in R[:4]:
    print(f"  alphas {g.alphas}")
print("  ...")
print()

u, v = family(params)
print("the family as coefficient arrays: member m is the base form plus "
      "Sum u[m, i] X_i^q + v[m, i] X_i")
print(f"  u = {u[:, 0].tolist()}\n  v = {v[:, 0].tolist()}")
counts = intersection_count(params, u, v)
print("affine intersection counts, member by member:")
print(counts)
print(f"off the diagonal all = q^(2n-2) = {q**(2*n-2)}; on it the affine "
      f"point count q^(2n-1) = {q**(2*n-1)}")
print()

# the separation property behind simplicity of the orthogonal array
W = [tuple(row) for row in w_set(ctx, n).tolist()]
P, P2 = W[0], W[1]
m = separating_member(params, P, P2, (u, v))
f = act_on_form(R[m], base_form(params))   # the scalar pullback, one member
assert (f.u, f.v, f.w) == (tuple(u[m].tolist()), tuple(v[m].tolist()), 0)
print(f"points {P} and {P2} are separated by member {m}, with alphas "
      f"{R[m].alphas}: values {f.evaluate(P)} vs {f.evaluate(P2)}")
