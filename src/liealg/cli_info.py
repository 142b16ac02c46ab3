"""The ``info`` command: dimensions, roots, Cartan matrix, Dynkin diagram,
Weyl order and Killing coefficients of one classical algebra.

``cli.main`` imports this module only when it runs ``info``.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import dynkin, forms, weyl
from .cli import emit, format_matrix, header, root_datum, spec_from_args
from .exact import Scalar, format_rational, format_weight
from .families import weyl_order_formula


def _vector_strings(vec: Sequence[Scalar]) -> list[str]:
    return [format_rational(c) for c in vec]


def _format_vector(vec: Sequence[Scalar]) -> str:
    return "(" + ", ".join(format_rational(c) for c in vec) + ")"


def cmd_info(args) -> int:
    spec = spec_from_args(args)
    rd = root_datum(spec)
    A = forms.cartan_matrix(rd)
    lengths = forms.root_lengths(rd)
    diagram = dynkin.build_diagram(A, lengths)
    classification = "+".join(dynkin.classify(diagram))
    art = dynkin.ascii_diagram(diagram)
    metric = rd.killing_metric
    order_formula = weyl_order_formula(spec)

    enumerated: int | None = None
    enumeration_note = ""
    if args.enumerate_weyl:
        try:
            enumerated = len(weyl.generate(weyl.simple_reflections(rd), cap=args.max_order))
        except weyl.WeylOverflowError:
            enumeration_note = f"order {order_formula} exceeds --max-order {args.max_order}"

    r = rd.realization
    payload: dict[str, object] = {
        **header("info", spec),
        "algebra": spec.name,
        "realization_dim": spec.realization_dim,
        "lie_rank": spec.lie_rank,
        "dimension": spec.dimension,
        "num_roots": len(rd.roots),
        "positive_roots": [_vector_strings(w) for w in rd.positive_roots],
        "fundamental_roots": [_vector_strings(w) for w in rd.fundamental_roots],
        "fundamental_coroots": [
            _vector_strings(r.diag_coords(h)) for h in rd.fundamental_coroots
        ],
        "fundamental_weights": [_vector_strings(w) for w in rd.fundamental_weights],
        "cartan_matrix": [list(row) for row in A.entries],
        "root_lengths": _vector_strings(lengths),
        "dynkin": {"classification": classification, "diagram": art},
        "weyl_order_formula": order_formula,
        "killing": {
            "sum_coefficient": format_rational(metric.sigma),
            "trace_coefficient": format_rational(metric.trace),
        },
    }
    if args.enumerate_weyl:
        payload["weyl_order_enumerated"] = enumerated
        if enumeration_note:
            payload["weyl_enumeration_note"] = enumeration_note

    lines = [
        f"algebra: {spec.name} (family {spec.family.cli_name}, n={spec.rank})",
        f"realization dim: {spec.realization_dim}",
        f"lie rank: {spec.lie_rank}",
        f"dimension: {spec.dimension}",
        f"roots: {len(rd.roots)}",
        "positive roots: " + ", ".join(format_weight(w) for w in rd.positive_roots),
        "fundamental roots: " + ", ".join(format_weight(w) for w in rd.fundamental_roots),
        "fundamental coroots: "
        + "; ".join(_format_vector(r.diag_coords(h)) for h in rd.fundamental_coroots),
        "fundamental weights: "
        + "; ".join(_format_vector(w) for w in rd.fundamental_weights),
        "cartan matrix:",
        *("  " + row for row in format_matrix(A.entries)),
        f"dynkin diagram: {classification}",
        *art.splitlines(),
        f"weyl order (formula): {order_formula}",
        f"killing form on cartan: {format_rational(metric.sigma)}*sum(x_i*y_i)"
        f" = {format_rational(metric.trace)}*tr(xy)",
    ]
    if args.enumerate_weyl:
        if enumerated is not None:
            lines.append(f"weyl order (enumerated): {enumerated}")
        else:
            lines.append(f"weyl order (enumerated): skipped; {enumeration_note}")
    emit(args, payload, lines)
    return 0
