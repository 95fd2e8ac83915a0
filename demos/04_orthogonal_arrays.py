"""Simple orthogonal arrays OA(q^{2n-1}, q^{2n-2}, q, 2) of index q^{2n-3}."""

import numpy as np

from qhv import build_oa, field_context, scan_params, verify_simple, verify_strength
from qhv.oa import oa_csv_bytes, oa_sidecar, write_oa

n, q = 2, 3
params = scan_params(field_context(q), n, mode="family")
A = build_oa(params)
print(f"OA({A.runs}, {A.factors}, {A.levels}, {A.strength}), "
      f"index {A.index}")
print(f"level map (level -> trace-zero element): "
      f"{dict(enumerate(A.level_map))}")
print()
print("the array:")
print(np.asarray(A.entries))
print()

report = verify_strength(A, 2)
print(f"strength 2: every symbol pair appears exactly {report.index} times "
      f"in each of the {report.subsets_checked} column pairs "
      f"-> ok = {report.ok}")
simple = verify_simple(A)
print(f"simple (no repeated rows): {simple}")

# strength 3 carries no contract; see what happens experimentally
r3 = verify_strength(A, 3)
print(f"strength 3 (experimental, no claim): ok = {r3.ok}")
print()

paths = write_oa(A, "oa_demo", report, simple)
print("wrote:", *paths)
print("sidecar keys:", sorted(oa_sidecar(A, oa_csv_bytes(A), report, simple)))

# a bigger instance, still exact
params = scan_params(field_context(3), 3, mode="family")
A = build_oa(params)
print(f"\nn = 3: OA({A.runs}, {A.factors}, {A.levels}, 2), index {A.index}, "
      f"verified strength 2 and simplicity on construction")
