"""Exact-arithmetic engine for the classical Lie algebras.

Builds sl_n, sp_2n, so_2n, and so_2n+1 as concrete matrix algebras over the
rationals and derives their root systems, coroots, fundamental weights,
Killing forms, Cartan matrices, Dynkin diagrams, Weyl groups, Serre
presentations, and basic invariant polynomials, all in exact arithmetic.
"""

from .catalog import (
    AlgebraRealization,
    Check,
    CheckReport,
    InternalConsistencyError,
    build,
    check_membership,
    format_weight,
    structure_constants,
)
from .digraph import opposite_antimorphism
from .dynkin import (
    DynkinDiagram,
    SerrePresentation,
    ascii_diagram,
    build_diagram,
    check_positive_definite,
    classify,
    serre_presentation,
    verify_serre,
)
from .exact import format_rational, parse_rational
from .families import AlgebraFamily, AlgebraSpec
from .forms import (
    CartanMatrix,
    cartan_matrix,
    coroot_pairing_matrix,
    killing_coefficients,
    killing_form_ad,
    killing_form_roots,
    root_lengths,
    weight_inner,
)
from .invariants import (
    InvariantSuite,
    build_suite,
    check_invariance,
    jacobian,
    jacobian_criterion,
)
from .matrices import EdgeMatrix, mat_bracket
from .polynomials import MultiPoly, poly_det
from .roots import (
    RootDatum,
    cartan_decompose,
    root_count,
    verify_root_axioms,
    verify_sl2_triple,
    weight_of,
)
from .weyl import (
    WeylOverflowError,
    apply,
    compose,
    generate,
    simple_reflections,
    weyl_order_formula,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraFamily",
    "AlgebraRealization",
    "AlgebraSpec",
    "CartanMatrix",
    "Check",
    "CheckReport",
    "DynkinDiagram",
    "EdgeMatrix",
    "InternalConsistencyError",
    "InvariantSuite",
    "MultiPoly",
    "RootDatum",
    "SerrePresentation",
    "WeylOverflowError",
    "apply",
    "ascii_diagram",
    "build",
    "build_diagram",
    "build_suite",
    "cartan_decompose",
    "cartan_matrix",
    "check_invariance",
    "check_membership",
    "check_positive_definite",
    "classify",
    "compose",
    "coroot_pairing_matrix",
    "format_rational",
    "format_weight",
    "generate",
    "jacobian",
    "jacobian_criterion",
    "killing_coefficients",
    "killing_form_ad",
    "killing_form_roots",
    "mat_bracket",
    "opposite_antimorphism",
    "parse_rational",
    "poly_det",
    "root_count",
    "root_lengths",
    "serre_presentation",
    "simple_reflections",
    "structure_constants",
    "verify_root_axioms",
    "verify_serre",
    "verify_sl2_triple",
    "weight_inner",
    "weight_of",
    "weyl_order_formula",
]
