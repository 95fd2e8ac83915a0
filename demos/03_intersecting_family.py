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
from qhv.intersecting_family import pairwise_counts

n, q = 2, 3
ctx = field_context(q)
params = scan_params(ctx, n, mode="family")
print(f"parameters: a={params.a}, b={params.b}, condition {params.condition}")

R = build_R(params)
print(f"|R| = {len(R)}; every member has betas = 0 and alpha_n in the "
      f"transversal {list(ctx.transversal)}")
for g in list(R)[:4]:
    print(f"  alphas {g.alphas}")
print("  ...")
print()

forms = family(params, R)
print(f"pairwise affine intersection counts: {dict(pairwise_counts(forms))} "
      f"(expected all = q^(2n-2) = {q**(2*n-2)})")
print(f"self-intersection (affine point count): "
      f"{intersection_count(forms[0], forms[0])}")
print()

# the separation property behind simplicity of the orthogonal array
W = list(w_set(ctx, n))
P, P2 = W[0], W[1]
g = separating_g(params, P, P2, forms)
f = next(f for f in forms if f.g == g)
print(f"points {P} and {P2} are separated by the member with alphas "
      f"{g.alphas}: values {f.evaluate(P)} vs {f.evaluate(P2)}")
