"""GF(q)-linear [q, 5, q-4] MDS codes and their doubly extended companions."""

import numpy as np

from qhv import (
    build_code,
    doubly_extend,
    field_context,
    min_distance,
    omega_set,
    rs_equivalence_check,
    scale_to_fq,
    scan_params,
)
from qhv.codes import check_luc1

q = 7
ctx = field_context(q)
params = scan_params(ctx, 3, mode="quasi_hermitian")
print(f"q = {q}: parameters a={params.a}, b={params.b} ({params.condition})")

om = omega_set(ctx)
print(f"twisted-cubic pairs (t + eps t^2, t^3 + eps t^4) at evaluation "
      f"points psi = {list(om.psi)}:")
for t, pair in zip(om.psi, om.pairs):
    print(f"  t = {t}: {pair}")
from itertools import combinations

all_ok = all(check_luc1(ctx, om, idx) for idx in combinations(range(q), 5))
print(f"every 5-subset nonsingular (arc condition): {all_ok}")
print()

ec = build_code(params)
print(f"evaluation code: {len(ec)} = q^5 codewords of length {q}, "
      f"entries trace-zero")
code = scale_to_fq(ec)
d = min_distance(code)
print(f"after dividing by theta: GF({q})-linear, dimension {code.dimension}, "
      f"minimum distance {d} -> [{code.length}, {code.dimension}, {d}], "
      f"MDS: {code.is_mds}")
print("generator matrix:")
print(np.asarray(code.generator))
print()

rs = rs_equivalence_check(code, ec.omega)
print(f"Reed-Solomon equivalence: every codeword interpolates to a degree<=4 "
      f"polynomial ({rs.mismatches} mismatches) and all {rs.distinct_codewords} "
      f"evaluation vectors occur -> two-sided: {rs.two_sided}")
print()

dx = doubly_extend(ec)
d2 = min_distance(dx)
print(f"doubly extended (append the degree-4 coefficient): "
      f"[{dx.length}, {dx.dimension}, {d2}], MDS: {dx.is_mds}")
