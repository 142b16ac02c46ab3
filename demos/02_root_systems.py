"""Root systems of all four classical families at rank 3.

Each family is built as matrices, the roots are read off the adjoint action
of the diagonal Cartan subalgebra, and the defining root-system axioms are
verified with the Killing-induced inner product.
"""

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec

for family, n in [
    (AlgebraFamily.SL, 4),
    (AlgebraFamily.SP, 3),
    (AlgebraFamily.SO_EVEN, 3),
    (AlgebraFamily.SO_ODD, 3),
]:
    spec = AlgebraSpec(family, n)
    rd = L.cartan_decompose(L.build(spec))
    print(f"== {spec.name}: {len(rd.roots)} roots "
          f"(closed form {L.root_count(spec)})")
    print("  positive:", ", ".join(L.format_weight(w) for w in rd.positive_roots))
    print("  fundamental:", ", ".join(L.format_weight(w) for w in rd.fundamental_roots))
    print("  fundamental weights:",
          "; ".join("(" + ", ".join(str(c) for c in w) + ")" for w in rd.fundamental_weights))

    report = L.verify_root_axioms(
        rd.roots, L.weight_inner(rd), expected_dim=spec.lie_rank
    )
    for check in report.results:
        print(f"  axiom {check.name}: {check.status.upper()}")
    print()
