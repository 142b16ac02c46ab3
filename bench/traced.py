"""Run one liealg command with spans around each layer's public functions.

Usage (from the repository root, with PYTHONPATH=src):

    python3 bench/traced.py OUT.json ARG...

runs ``liealg ARG...`` exactly as ``python -m liealg ARG...`` would, and
writes the per-layer self times and counts of that one command to OUT.json.
The wrappers live here, not in the program: each wrapped function is
replaced in every liealg module that holds a reference to it, so calls made
through ``from .module import name`` are seen too.  Spans nest; a layer's
self time is its span duration minus the time covered by its child spans.

Leaf helpers called once per scalar or per group element (``dot``,
``as_fraction``, ``compose``, ``mat_bracket``, formatting) are not wrapped:
their time counts toward the caller's self time, which keeps the tracing
overhead small.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# Functions that get a span; the layer metric is "<module>.<function>_s".
SPANNED = {
    "cli": ("main",),
    "catalog": ("build",),
    "roots": ("cartan_decompose", "verify_root_axioms", "verify_sl2_triple"),
    "forms": ("weight_inner", "cartan_matrix", "root_lengths", "coroot_pairing_matrix",
              "killing_coefficients", "killing_form_ad", "killing_form_roots"),
    "dynkin": ("serre_presentation", "verify_serre", "build_diagram", "classify",
               "ascii_diagram", "check_positive_definite", "lengths_from_cartan"),
    "matrices": ("determinant",),
    "weyl": ("simple_reflections", "generate"),
    "invariants": ("build_suite", "check_invariance", "jacobian_criterion"),
    "polynomials": ("poly_det",),
    "exact": ("parse_rational",),
}
# Functions that are only counted: a span would move their time out of the
# caller whose self time the benchmark predicts.
COUNTED = {"matrices": ("solve_linear",), "invariants": ("jacobian",)}

# The closure returned by forms.weight_inner gets its own span.
INNER = "forms.inner"

TIME_METRICS = (
    "cli.self_s", "catalog.build_s", "roots.cartan_decompose_s",
    "roots.verify_root_axioms_s", "roots.verify_sl2_triple_s",
    "forms.weight_inner_s", "forms.inner_s", "forms.cartan_matrix_s", "forms.root_lengths_s",
    "forms.coroot_pairing_matrix_s", "forms.killing_coefficients_s",
    "forms.killing_form_ad_s", "forms.killing_form_roots_s",
    "dynkin.serre_presentation_s", "dynkin.verify_serre_s", "dynkin.build_diagram_s",
    "dynkin.classify_s", "dynkin.ascii_diagram_s", "dynkin.check_positive_definite_s",
    "dynkin.lengths_from_cartan_s", "matrices.determinant_s",
    "weyl.simple_reflections_s", "weyl.generate_s",
    "invariants.build_suite_s", "invariants.check_invariance_s",
    "invariants.jacobian_criterion_s", "polynomials.poly_det_s", "exact.parse_rational_s",
)
COUNT_METRICS = (
    "catalog.basis_elements", "roots.roots", "roots.axiom_pairs", "roots.sl2_triples",
    "forms.inner_calls", "forms.killing_form_ad_calls", "dynkin.serre_relations",
    "matrices.span_solver_builds", "matrices.solve_linear_calls",
    "weyl.elements", "weyl.elements_discarded", "invariants.jacobian_calls",
    "exact.parse_rational_calls",
)


class Tracer:
    """In-memory spans (name, start, end, parent index) and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.current = -1
        self.counts: Counter[str] = Counter()

    def span(self, name: str, fn, on_exit=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.current
            index = len(self.spans)
            self.spans.append(None)
            self.current = index
            self.counts[name + "_calls"] += 1
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                self.spans[index] = (name, start, end, parent)
                self.current = parent
                if on_exit is not None:
                    on_exit(args, kwargs, result, error)

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + "_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> Counter[str]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        out: Counter[str] = Counter()
        for index, span in enumerate(self.spans):
            if span is not None:
                out[span[0] + "_s"] += span[2] - span[1] - covered[index]
        return out


def _argument(fn, args, kwargs, name: str):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def install(tracer: Tracer) -> None:
    """Wrap the functions named in SPANNED and COUNTED in every liealg module."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "liealg" or key.startswith("liealg."))]
    weyl = sys.modules["liealg.weyl"]
    counts = tracer.counts

    def after_build(args, kwargs, result, error):
        if error is None:
            counts["catalog.basis_elements"] += len(result.basis)

    def after_decompose(args, kwargs, result, error):
        if error is None:
            counts["roots.roots"] += len(result.roots)

    def after_axioms(args, kwargs, result, error):
        roots = _argument(original["roots.verify_root_axioms"], args, kwargs, "roots")
        counts["roots.axiom_pairs"] += len({tuple(w) for w in roots}) ** 2

    def after_serre(args, kwargs, result, error):
        if error is None:
            counts["dynkin.serre_relations"] += len(result.results)

    def after_generate(args, kwargs, result, error):
        if error is None:
            counts["weyl.elements"] += len(result)
        elif isinstance(error, weyl.WeylOverflowError):
            cap = _argument(original["weyl.generate"], args, kwargs, "cap")
            counts["weyl.elements_discarded"] += cap + 1

    hooks = {
        "catalog.build": after_build,
        "roots.cartan_decompose": after_decompose,
        "roots.verify_root_axioms": after_axioms,
        "dynkin.verify_serre": after_serre,
        "weyl.generate": after_generate,
    }
    original: dict[str, object] = {}

    def replace(old, new) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)

    for module_name, functions in SPANNED.items():
        module = sys.modules["liealg." + module_name]
        for function in functions:
            name = f"{module_name}.{function}"
            fn = getattr(module, function)
            original[name] = fn
            target = _inner_spanned(tracer, fn) if name == "forms.weight_inner" else fn
            replace(fn, tracer.span(name, target, hooks.get(name)))
    for module_name, functions in COUNTED.items():
        module = sys.modules["liealg." + module_name]
        for function in functions:
            fn = getattr(module, function)
            replace(fn, tracer.counted(f"{module_name}.{function}", fn))

    solver = sys.modules["liealg.matrices"].SpanSolver
    init = solver.__init__

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        counts["matrices.span_solver_builds"] += 1
        init(self, *args, **kwargs)

    solver.__init__ = counted_init


def _inner_spanned(tracer: Tracer, weight_inner):
    """weight_inner handing back its inner-product closure under a span."""

    @functools.wraps(weight_inner)
    def wrapper(*args, **kwargs):
        return tracer.span(INNER, weight_inner(*args, **kwargs))

    return wrapper


# Metrics read from a differently named span or counter.
ALIASES = {
    "cli.self_s": "cli.main_s",
    "roots.sl2_triples": "roots.verify_sl2_triple_calls",
}


def summary(tracer: Tracer, import_s: float) -> dict[str, float]:
    values = tracer.self_times() + tracer.counts
    out = {"cli.import_s": import_s}
    for name in TIME_METRICS + COUNT_METRICS:
        out[name] = values[ALIASES.get(name, name)]
    return out


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import liealg.cli as cli

    import_s = perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code: int | str | None = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit 2 through SystemExit
        code = exc.code
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(summary(tracer, import_s), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
