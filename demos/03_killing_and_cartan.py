"""Killing coefficients, Cartan matrices, and Dynkin diagrams per family.

On the diagonal Cartan subalgebra the Killing form is a fixed multiple of
sum_i x_i y_i; the multiple is 2n, 4(n+1), 4(n-1), 4n-2 for sl_n, sp_2n,
so_2n, so_2n+1.  The Cartan matrix comes in two transposed conventions;
both are printed here, and the diagram arrows point at the shorter root.
"""

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec


def show(family, n):
    spec = AlgebraSpec(family, n)
    rd = L.cartan_decompose(L.build(spec))
    coeffs = L.killing_coefficients(rd)
    print(f"== {spec.name}")
    print(f"  kappa(x,y) = {coeffs.sigma} * sum(x_i y_i) = {coeffs.trace} * tr(xy)")

    A = L.cartan_matrix(rd)
    P = L.coroot_pairing_matrix(rd)
    print("  cartan matrix (printed convention):", A.entries)
    print("  coroot pairing (Serre convention): ", P.entries)
    diagram = L.build_diagram(A)
    names = "+".join(L.classify(diagram))
    print(f"  dynkin diagram {names}:")
    for line in L.ascii_diagram(diagram).splitlines():
        print("    " + line)
    print()


for family, n in [
    (AlgebraFamily.SL, 4),
    (AlgebraFamily.SP, 3),
    (AlgebraFamily.SO_EVEN, 4),
    (AlgebraFamily.SO_ODD, 3),
]:
    show(family, n)
