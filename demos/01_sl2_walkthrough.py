"""The smallest interesting algebra, worked end to end.

Builds sl_2 as 2x2 traceless matrices, shows the bracket relations of its
basis, reads off the roots from the adjoint action, normalizes the coroot,
and evaluates the Killing form, which for sl_2 is exactly 4 tr(xy).
"""

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec
from liealg.edges import mat_bracket

spec = AlgebraSpec(AlgebraFamily.SL, 2)
r = L.build(spec)
rd = L.cartan_decompose(r)

print(f"== {spec.name}: dimension {r.dimension}, Cartan subalgebra of size "
      f"{len(r.cartan_indices)}")
for label, mat in r.basis:
    rows = tuple(tuple(mat[i, j] for j in range(mat.dim)) for i in range(mat.dim))
    print(f"  {label}: rows {rows}")

(h_label, h), (e_label, e), (f_label, f) = r.basis
print("\nbracket relations:")
print(f"  [{e_label}, {f_label}] == {h_label}:", mat_bracket(e, f) == h)
print(f"  [{h_label}, {e_label}] == 2 {e_label}:", mat_bracket(h, e) == e.scale(2))
print(f"  [{h_label}, {f_label}] == -2 {f_label}:", mat_bracket(h, f) == f.scale(-2))

print("\nroots read off the adjoint action:")
for root in rd.roots:
    print(f"  {L.format_weight(root)}  ->  basis vector {r.basis[rd.root_vectors[root]][0]}")

alpha = rd.fundamental_roots[0]
coroot = rd.coroot(alpha)
print(f"\ncoroot of {L.format_weight(alpha)}: diagonal {r.diag_coords(coroot)}")
print("sl2-triple verified:", L.verify_sl2_triple(rd, alpha))

print("\nKilling form on the Cartan:")
kappa = L.killing_form_ad(r, h, h)
print(f"  kappa(h, h) = {kappa},  4*tr(h^2) = {4 * (h @ h).trace()}")
coeffs = L.killing_coefficients(rd)
print(f"  kappa = {coeffs.trace} * tr(xy) on the Cartan")
