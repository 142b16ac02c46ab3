"""Weyl groups as signed permutations, enumerated from simple reflections.

The reflection in a fundamental root acts on the diagonal coordinates as a
signed permutation, printed as its window (w_1, ..., w_n): w_k = +i or -i
means e_k -> +e_i or -e_i.  Breadth-first closure under composition
recovers the full group, whose order matches the classical product
formulas, and whose action permutes the root system.
"""

from math import prod

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec
from liealg.families import weyl_order_formula
from liealg.weyl import apply, generate, simple_reflections

for family, n in [
    (AlgebraFamily.SL, 4),
    (AlgebraFamily.SP, 3),
    (AlgebraFamily.SO_EVEN, 4),
    (AlgebraFamily.SO_ODD, 3),
]:
    spec = AlgebraSpec(family, n)
    rd = L.cartan_decompose(L.build(spec))
    gens = simple_reflections(rd)
    print(f"== {spec.name}")
    for root, g in zip(rd.fundamental_roots, gens):
        print(f"  S_{{{L.format_weight(root)}}}: window {g}")
    group = generate(gens)
    print(f"  enumerated order {len(group)}, closed form {weyl_order_formula(spec)}")
    closed = all(tuple(apply(g, w)) in set(rd.roots) for g in gens for w in rd.roots)
    print(f"  generators permute the root system: {closed}")
    if family is AlgebraFamily.SO_EVEN:
        print(f"  only even sign changes occur: "
              f"{all(prod(1 if v > 0 else -1 for v in g) == 1 for g in group)}")
    print()

b = generate(simple_reflections(L.cartan_decompose(L.build(AlgebraSpec(AlgebraFamily.SO_ODD, 3)))))
c = generate(simple_reflections(L.cartan_decompose(L.build(AlgebraSpec(AlgebraFamily.SP, 3)))))
print("B_3 and C_3 generate the same signed-permutation group:", b == c)
