"""Exact-arithmetic engine for the classical Lie algebras.

Builds sl_n, sp_2n, so_2n, and so_2n+1 as concrete matrix algebras over the
rationals and derives their root systems, coroots, fundamental weights,
Killing forms, Cartan matrices, Dynkin diagrams, Weyl groups, Serre
presentations, and basic invariant polynomials, all in exact arithmetic.

Importing the package compiles no library module.  Each one is registered
in ``sys.modules`` and bound here through ``importlib.util.LazyLoader``, and
is compiled and run on its first attribute access; an export such as
``liealg.build`` is looked up in its module on first use (PEP 562).  A
command therefore runs only the modules it calls.  Lazy execution is not
thread-safe before Python 3.12, so this relies on the package not being
first used from several threads at once.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The module that defines each export, written once per name.
_EXPORTS = {
    name: module
    for module, names in {
        "axioms": ("verify_root_axioms", "verify_sl2_triple"),
        "catalog": ("AlgebraRealization", "build", "check_membership"),
        "digraph": ("opposite_antimorphism",),
        "dynkin": ("DynkinDiagram", "SerrePresentation", "ascii_diagram", "build_diagram",
                   "check_positive_definite", "classify", "serre_presentation",
                   "verify_serre"),
        "exact": ("format_rational", "format_weight", "parse_rational"),
        "families": ("AlgebraFamily", "AlgebraSpec", "weyl_order_formula"),
        "forms": ("CartanMatrix", "cartan_matrix", "coroot_pairing_matrix",
                  "killing_coefficients", "killing_form_ad", "killing_form_roots",
                  "root_lengths", "weight_inner"),
        "invariants": ("InvariantSuite", "build_suite", "check_invariance", "jacobian",
                       "jacobian_criterion"),
        "matrices": ("EdgeMatrix", "mat_bracket"),
        "polynomials": ("MultiPoly", "poly_det"),
        "records": ("Check", "CheckReport", "InternalConsistencyError"),
        "roots": ("RootDatum", "cartan_decompose", "root_count", "weight_of"),
        "weyl": ("WeylOverflowError", "apply", "compose", "generate", "simple_reflections"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def _register_lazily(module: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = globals()[module] = lazy
    spec.loader.exec_module(lazy)


for _module in ("records", "families", "exact", "matrices", "digraph", "catalog", "roots",
                "axioms", "forms", "dynkin", "weyl", "polynomials", "invariants"):
    _register_lazily(_module)
del _module


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_EXPORTS[name]], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
