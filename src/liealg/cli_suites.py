"""The check suites, and the three commands that run them: ``verify``,
``serre`` and ``invariants``.

``cli.main`` imports this module only when it runs one of those commands.
``SUITES`` holds the suites in the order that ``verify ... all`` runs them;
``cli.SELECTORS`` names the same suites, for the parser's help.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import prod

from . import axioms, dynkin, forms, invariants, roots, weyl
from .cli import (
    SELECTORS,
    InputError,
    emit_report,
    format_matrix,
    header,
    root_datum,
    spec_from_args,
)
from .exact import format_rational, format_weight
from .families import AlgebraFamily, weyl_order_formula
from .records import Check, CheckReport

FAMILY_SIGMA_COEFFICIENT = {
    AlgebraFamily.SL: lambda n: 2 * n,
    AlgebraFamily.SP: lambda n: 4 * (n + 1),
    AlgebraFamily.SO_EVEN: lambda n: 4 * (n - 1),
    AlgebraFamily.SO_ODD: lambda n: 4 * n - 2,
}

RELATION_FIELDS = (("relation", "name"), ("status", "status"))


def _checks_axioms(rd: roots.RootDatum) -> Sequence[Check]:
    inner = forms.weight_inner(rd)
    return axioms.verify_root_axioms(rd.roots, inner, expected_dim=rd.spec.lie_rank).results


def _checks_sl2(rd: roots.RootDatum) -> Sequence[Check]:
    return [
        Check.of("sl2", f"triple {format_weight(root)}",
                 axioms.verify_sl2_triple(rd, root), "x, y, h relations and a(h)=2")
        for root in rd.roots
    ]


def _checks_serre(rd: roots.RootDatum, pairing: forms.CartanMatrix) -> Sequence[Check]:
    presentation = dynkin.serre_presentation(pairing)
    return dynkin.verify_serre(rd, presentation).results


def _checks_killing(rd: roots.RootDatum) -> Sequence[Check]:
    spec = rd.spec
    metric = forms.killing_coefficients(rd)
    expected = FAMILY_SIGMA_COEFFICIENT[spec.family](spec.rank)
    agree = forms.cartan_killing_gram_ad(rd.realization) == metric.gram
    return [
        Check.of("killing", "sum coefficient", metric.sigma == expected,
                 f"got {format_rational(metric.sigma)}, expected {expected}"),
        Check.of("killing", "ad-trace route equals root-sum route", agree,
                 "entrywise on the Cartan basis"),
    ]


def _checks_weyl(rd: roots.RootDatum, max_order: int) -> Sequence[Check]:
    formula = weyl_order_formula(rd.spec)
    if formula > max_order:
        return [Check("weyl", "enumeration", "skip",
                      f"order {formula} exceeds --max-order {max_order}")]
    gens = weyl.simple_reflections(rd)
    group = weyl.generate(gens, cap=max_order)
    root_set = set(rd.roots)
    closed = all(tuple(weyl.apply(g, root)) in root_set for g in gens for root in rd.roots)
    checks = [
        Check.of("weyl", "order", len(group) == formula,
                 f"enumerated {len(group)}, closed form {formula}"),
        Check.of("weyl", "root system is permuted", closed,
                 "each generator maps the root set onto itself"),
    ]
    if rd.spec.family is AlgebraFamily.SO_EVEN:
        even = all(prod(1 if v > 0 else -1 for v in g) == 1 for g in group)
        checks.append(Check.of("weyl", "even sign changes only", even,
                               "every element has sign product +1"))
    return checks


def _checks_invariants(
    rd: roots.RootDatum, suite: invariants.InvariantSuite
) -> Sequence[Check]:
    formula = weyl_order_formula(rd.spec)
    fixed = invariants.check_invariance(suite, weyl.simple_reflections(rd))
    checks = [
        Check.of("invariants", "degree product equals weyl order",
                 suite.degree_product() == formula,
                 f"degrees {list(suite.degrees)} multiply to {suite.degree_product()},"
                 f" |W| = {formula}"),
        Check.of("invariants", "invariance under simple reflections", fixed,
                 "symbolic equality after substitution"),
    ]
    if rd.spec.lie_rank <= 4:
        checks.append(Check.of("invariants", "jacobian criterion",
                               invariants.jacobian_criterion(suite),
                               "exact Jacobian determinant is nonzero"))
    else:
        checks.append(Check("invariants", "jacobian criterion", "skip",
                            "rank above 4; skipped for runtime"))
    return checks


# Suite name -> builder of its checks from the root datum and --max-order.
SUITES: dict[str, Callable[[roots.RootDatum, int], Sequence[Check]]] = {
    "axioms": lambda rd, _: _checks_axioms(rd),
    "sl2": lambda rd, _: _checks_sl2(rd),
    "serre": lambda rd, _: _checks_serre(rd, forms.coroot_pairing_matrix(rd)),
    "killing": lambda rd, _: _checks_killing(rd),
    "weyl": _checks_weyl,
    "invariants": lambda rd, _: _checks_invariants(
        rd, invariants.build_suite(rd.spec.family, rd.spec.lie_rank)
    ),
}


def cmd_verify(args) -> int:
    spec = spec_from_args(args)
    if args.suite not in SELECTORS:
        raise InputError(
            f"unknown suite {args.suite!r}; choose from {', '.join(SELECTORS)}"
        )
    rd = root_datum(spec)
    selected = SUITES if args.suite == "all" else (args.suite,)
    report = CheckReport(
        tuple(c for suite in selected for c in SUITES[suite](rd, args.max_order))
    )
    payload = {**header("verify", spec), "suite": args.suite}
    return emit_report(args, payload, [], report, "{suite}: {name}: {status} ({detail})")


def cmd_serre(args) -> int:
    spec = spec_from_args(args)
    rd = root_datum(spec)
    pairing = forms.coroot_pairing_matrix(rd)
    report = CheckReport(tuple(_checks_serre(rd, pairing)))
    payload = {
        **header("serre", spec),
        "cartan_pairing_matrix": [list(row) for row in pairing.entries],
    }
    lines = ["cartan pairing matrix (A_ij = a_j(h_i)):"]
    lines.extend("  " + row for row in format_matrix(pairing.entries))
    return emit_report(
        args, payload, lines, report, "{name}: {status}", "relations", RELATION_FIELDS
    )


def cmd_invariants(args) -> int:
    spec = spec_from_args(args)
    rd = root_datum(spec)
    suite = invariants.build_suite(spec.family, spec.lie_rank)
    report = CheckReport(tuple(_checks_invariants(rd, suite)))
    order = weyl_order_formula(spec)
    payload = {
        **header("invariants", spec),
        "nvars": suite.nvars,
        "degrees": list(suite.degrees),
        "degree_product": suite.degree_product(),
        "weyl_order_formula": order,
        "polynomials": [str(p) for p in suite.polys],
    }
    lines = [
        f"invariant suite for {spec.name}: {suite.nvars} variables",
        "polynomials:",
        *(f"  f{i + 1} = {p}" for i, p in enumerate(suite.polys)),
        f"degrees: {', '.join(str(d) for d in suite.degrees)}",
        f"degree product: {suite.degree_product()}",
        f"weyl order (formula): {order}",
    ]
    return emit_report(args, payload, lines, report, "{name}: {status} ({detail})")
