"""Basic invariants of the reflection groups and their exact Jacobians.

Power sums (A family), even power sums (B/C), and even power sums plus the
coordinate product (D) generate the invariant rings.  The degree product
equals the group order, invariance is checked symbolically, and the
Jacobian criterion certifies algebraic independence; for the B/C suite the
Jacobian is exactly 2^n n! x_1..x_n prod(x_j^2 - x_i^2).
"""

import math

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec
from liealg.invariants import (
    build_suite,
    check_invariance,
    constant_ratio,
    full_product,
    jacobian,
    vandermonde_squares,
)
from liealg.families import weyl_order_formula
from liealg.weyl import simple_reflections

for family, n in [
    (AlgebraFamily.SL, 3),
    (AlgebraFamily.SP, 3),
    (AlgebraFamily.SO_EVEN, 3),
    (AlgebraFamily.SO_ODD, 3),
]:
    spec = AlgebraSpec(family, n)
    rd = L.cartan_decompose(L.build(spec))
    suite = build_suite(family, spec.lie_rank)
    print(f"== {spec.name} (Weyl rank {spec.lie_rank}, {suite.nvars} variables)")
    for i, p in enumerate(suite.polys, start=1):
        print(f"  f{i} = {p}")
    print(f"  degrees {suite.degrees}, product {suite.degree_product()}, "
          f"|W| = {weyl_order_formula(spec)}")
    print(f"  invariant under simple reflections: "
          f"{check_invariance(suite, simple_reflections(rd))}")
    J = jacobian(suite)
    print(f"  jacobian nonzero: {not J.is_zero()} (degree {J.degree()})")
    print()

print("closed form of the B/C-family Jacobian:")
for n in (2, 3):
    suite = build_suite(AlgebraFamily.SP, n)
    closed = full_product(n) * vandermonde_squares(n)
    print(f"  n={n}: J / (x_1..x_n prod(x_j^2-x_i^2)) = "
          f"{constant_ratio(jacobian(suite), closed)} "
          f"(2^n n! = {2 ** n * math.factorial(n)})")
