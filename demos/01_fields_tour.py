"""Tour of the field layer: GF(q) inside GF(q^2), trace, norm, transversal.

Elements are plain ints; the context object carries all the structure.
"""

from qhv import field_context

ctx = field_context(3)
F = ctx.Fq2

print(f"GF({ctx.q}) inside GF({ctx.q2}), p = {ctx.p}, h = {ctx.h}")
print(f"modulus of GF(q):   {ctx.modulus_q}  (coefficients, constant first)")
print(f"modulus of GF(q^2): {ctx.modulus_q2}  (over GF(q))")
print(f"epsilon = {ctx.epsilon}  digits {ctx.element_digits(ctx.epsilon)}")
print(f"theta   = {ctx.theta}   (trace-zero set = theta * GF(q))")
print()

# trace and norm map onto the subfield
print("x, x^q, trace(x), norm(x):")
for x in range(ctx.q2):
    print(f"  {x:2d}  {ctx.frob[x]:2d}  {ctx.trace(x):2d}  {ctx.norm(x):2d}")
print()

print(f"trace-zero set T0 = {list(ctx.t0)}")
print(f"transversal C     = {list(ctx.transversal)} (coset reps of GF(q))")
print()

# Artin-Schreier equations Z^q - Z = d: solvable exactly on T0
for d in range(ctx.q2):
    roots = [z for z in ctx.as_roots[d].tolist() if z >= 0]  # -1: no root
    if roots:
        in_c = int(ctx.transversal_roots(d))
        print(f"Z^q - Z = {d}: roots {roots}, transversal root {in_c}")
print()

# arithmetic is exact and table-backed
a, b = 5, 7
print(f"{a} * {b} = {F.mul(a, b)}, {a}^-1 = {F.inv(a)}, "
      f"{a}^10 = {F.pow(a, 10)}")
print(f"extended-Euclid inverse agrees: {F.inv_euclid(a) == F.inv(a)}")
