"""The mutually intersecting family: q^{2n-2} varieties, pairwise meeting in
exactly q^{2n-2} affine points.
"""

from qhv import (
    build_R,
    family,
    field_context,
    intersection_count,
    scan_params,
    separating_g,
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

forms = family(params, R)
counts = intersection_count(forms)
print("affine intersection counts, member by member:")
print(counts)
print(f"off the diagonal all = q^(2n-2) = {q**(2*n-2)}; on it the affine "
      f"point count q^(2n-1) = {q**(2*n-1)}")
print()

# the separation property behind simplicity of the orthogonal array
W = [tuple(row) for row in w_set(ctx, n).tolist()]
P, P2 = W[0], W[1]
g = separating_g(params, P, P2, forms)
f = next(f for f in forms if f.g == g)
print(f"points {P} and {P2} are separated by the member with alphas "
      f"{g.alphas}: values {f.evaluate(P)} vs {f.evaluate(P2)}")
