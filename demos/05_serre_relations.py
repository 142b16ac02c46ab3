"""Serre presentations checked inside the matrix realizations.

The generators are the fundamental root vectors X_i, their opposite root
vectors Y_i rescaled so that [X_i, Y_i] = H_i, and the coroots H_i.  The
relation coefficients come from the coroot pairing matrix a_j(h_i); note
the depth-3 nilpotency relations wherever that matrix has a -2 entry.
"""

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec
from liealg.dynkin import serre_presentation, verify_serre

for family, n in [(AlgebraFamily.SP, 2), (AlgebraFamily.SO_ODD, 3)]:
    spec = AlgebraSpec(family, n)
    rd = L.cartan_decompose(L.build(spec))
    pairing = L.coroot_pairing_matrix(rd)
    print(f"== {spec.name}, pairing matrix {pairing.entries}")
    presentation = serre_presentation(pairing)
    report = verify_serre(rd, presentation)
    for check in report.results:
        print(f"  {check.name}: {check.status.upper()}")
    print(f"  all relations hold: {report.all_passed}\n")

print("Transposing the pairing matrix breaks the verification on sp_4:")
rd = L.cartan_decompose(L.build(AlgebraSpec(AlgebraFamily.SP, 2)))
display = L.cartan_matrix(rd)  # the transpose of the pairing matrix
report = verify_serre(rd, serre_presentation(display))
print("  failures:", [check.name for check in report.failures()])
