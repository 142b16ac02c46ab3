"""Command-line surface: info, verify, classify, serre, invariants.

Output is deterministic byte-for-byte: identical invocations produce
identical text.  Exit codes: 0 success / all checks pass, 1 verification
failure, 2 usage or parse error.  JSON output carries a fixed schema tag and
serializes every rational as a "p/q" (or plain integer) string.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Sequence

from . import catalog, dynkin, forms, invariants, roots, weyl
from .exact import format_rational, parse_rational
from .families import AlgebraFamily, AlgebraSpec
from .matrices import dot
from .roots import is_positive

SCHEMA = "liealg/1"

FAMILY_SIGMA_COEFFICIENT = {
    AlgebraFamily.SL: lambda n: 2 * n,
    AlgebraFamily.SP: lambda n: 4 * (n + 1),
    AlgebraFamily.SO_EVEN: lambda n: 4 * (n - 1),
    AlgebraFamily.SO_ODD: lambda n: 4 * n - 2,
}


class InputError(Exception):
    """Bad user input (usage or file parsing); maps to exit code 2."""


def _vector_strings(vec: Sequence[Fraction]) -> list[str]:
    return [format_rational(c) for c in vec]


def _format_vector(vec: Sequence[Fraction]) -> str:
    return "(" + ", ".join(format_rational(c) for c in vec) + ")"


def _format_matrix(rows: Sequence[Sequence[int]]) -> list[str]:
    width = max(len(str(x)) for row in rows for x in row)
    return ["[" + " ".join(f"{x:>{width}}" for x in row) + "]" for row in rows]


def _emit(args, payload: dict[str, Any], text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _spec_from_args(args) -> AlgebraSpec:
    try:
        family = AlgebraFamily.from_name(args.family)
        return AlgebraSpec(family, args.n)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _root_datum(spec: AlgebraSpec) -> roots.RootDatum:
    return roots.cartan_decompose(catalog.build(spec))


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------


def cmd_info(args) -> int:
    spec = _spec_from_args(args)
    rd = _root_datum(spec)
    A = forms.cartan_matrix(rd)
    lengths = forms.root_lengths(rd)
    diagram = dynkin.build_diagram(A, lengths)
    classification = "+".join(dynkin.classify(diagram))
    art = dynkin.ascii_diagram(diagram)
    coeffs = forms.killing_coefficients(rd)
    order_formula = weyl.weyl_order_formula(spec)

    enumerated: int | None = None
    enumeration_note = ""
    if args.enumerate_weyl:
        try:
            enumerated = len(weyl.generate(weyl.simple_reflections(rd), cap=args.max_order))
        except weyl.WeylOverflowError:
            enumeration_note = f"order {order_formula} exceeds --max-order {args.max_order}"

    r = rd.realization
    payload: dict[str, Any] = {
        "schema": SCHEMA,
        "command": "info",
        "family": spec.family.cli_name,
        "n": spec.rank,
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
            "sum_coefficient": format_rational(coeffs.sigma),
            "trace_coefficient": format_rational(coeffs.trace),
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
        "positive roots: "
        + ", ".join(catalog.format_weight(w) for w in rd.positive_roots),
        "fundamental roots: "
        + ", ".join(catalog.format_weight(w) for w in rd.fundamental_roots),
        "fundamental coroots: "
        + "; ".join(_format_vector(r.diag_coords(h)) for h in rd.fundamental_coroots),
        "fundamental weights: "
        + "; ".join(_format_vector(w) for w in rd.fundamental_weights),
        "cartan matrix:",
        *("  " + row for row in _format_matrix(A.entries)),
        f"dynkin diagram: {classification}",
        *art.splitlines(),
        f"weyl order (formula): {order_formula}",
        f"killing form on cartan: {format_rational(coeffs.sigma)}*sum(x_i*y_i)"
        f" = {format_rational(coeffs.trace)}*tr(xy)",
    ]
    if args.enumerate_weyl:
        if enumerated is not None:
            lines.append(f"weyl order (enumerated): {enumerated}")
        else:
            lines.append(f"weyl order (enumerated): skipped; {enumeration_note}")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

SELECTORS = ("axioms", "sl2", "serre", "killing", "weyl", "invariants", "all")


def _checks_axioms(rd: roots.RootDatum) -> list[dict[str, str]]:
    report = roots.verify_root_axioms(
        rd.roots, forms.weight_inner(rd), expected_dim=rd.spec.lie_rank
    )
    return [
        {
            "suite": "axioms",
            "name": check.name,
            "status": "pass" if check.passed else "fail",
            "detail": check.detail,
        }
        for check in report.checks
    ]


def _checks_sl2(rd: roots.RootDatum) -> list[dict[str, str]]:
    out = []
    for root in rd.roots:
        ok = roots.verify_sl2_triple(rd, root)
        out.append(
            {
                "suite": "sl2",
                "name": f"triple {catalog.format_weight(root)}",
                "status": "pass" if ok else "fail",
                "detail": "x, y, h relations and a(h)=2",
            }
        )
    return out


def _checks_serre(rd: roots.RootDatum) -> list[dict[str, str]]:
    pairing = forms.coroot_pairing_matrix(rd)
    presentation = dynkin.serre_presentation(pairing)
    report = dynkin.verify_serre(rd.realization, rd, presentation)
    return [
        {
            "suite": "serre",
            "name": rel.describe(),
            "status": "pass" if ok else "fail",
            "detail": "exact matrix identity",
        }
        for rel, ok in report.results
    ]


def _checks_killing(rd: roots.RootDatum) -> list[dict[str, str]]:
    spec = rd.spec
    coeffs = forms.killing_coefficients(rd)
    expected = FAMILY_SIGMA_COEFFICIENT[spec.family](spec.rank)
    out = [
        {
            "suite": "killing",
            "name": "sum coefficient",
            "status": "pass" if coeffs.sigma == expected else "fail",
            "detail": f"got {format_rational(coeffs.sigma)}, expected {expected}",
        }
    ]
    r = rd.realization
    cartan = r.cartan_basis
    agree = all(
        forms.killing_form_ad(r, x, y) == forms.killing_form_roots(rd, x, y)
        for x in cartan
        for y in cartan
    )
    out.append(
        {
            "suite": "killing",
            "name": "ad-trace route equals root-sum route",
            "status": "pass" if agree else "fail",
            "detail": "entrywise on the Cartan basis",
        }
    )
    return out


def _checks_weyl(rd: roots.RootDatum, max_order: int) -> list[dict[str, str]]:
    spec = rd.spec
    formula = weyl.weyl_order_formula(spec)
    if formula > max_order:
        return [
            {
                "suite": "weyl",
                "name": "enumeration",
                "status": "skip",
                "detail": f"order {formula} exceeds --max-order {max_order}",
            }
        ]
    gens = weyl.simple_reflections(rd)
    group = weyl.generate(gens, cap=max_order)
    out = [
        {
            "suite": "weyl",
            "name": "order",
            "status": "pass" if len(group) == formula else "fail",
            "detail": f"enumerated {len(group)}, closed form {formula}",
        }
    ]
    root_set = set(rd.roots)
    closed = all(
        tuple(weyl.apply(g, root)) in root_set for g in gens for root in rd.roots
    )
    out.append(
        {
            "suite": "weyl",
            "name": "root system is permuted",
            "status": "pass" if closed else "fail",
            "detail": "each generator maps the root set onto itself",
        }
    )
    if spec.family is AlgebraFamily.SO_EVEN:
        even = all(g.sign_product() == 1 for g in group)
        out.append(
            {
                "suite": "weyl",
                "name": "even sign changes only",
                "status": "pass" if even else "fail",
                "detail": "every element has sign product +1",
            }
        )
    return out


def _checks_invariants(rd: roots.RootDatum) -> list[dict[str, str]]:
    spec = rd.spec
    suite = invariants.build_suite(spec.family, spec.lie_rank)
    formula = weyl.weyl_order_formula(spec)
    out = [
        {
            "suite": "invariants",
            "name": "degree product equals weyl order",
            "status": "pass" if suite.degree_product() == formula else "fail",
            "detail": f"degrees {list(suite.degrees)} multiply to {suite.degree_product()},"
            f" |W| = {formula}",
        }
    ]
    gens = weyl.simple_reflections(rd)
    fixed = invariants.check_invariance(suite, gens)
    out.append(
        {
            "suite": "invariants",
            "name": "invariance under simple reflections",
            "status": "pass" if fixed else "fail",
            "detail": "symbolic equality after substitution",
        }
    )
    if spec.lie_rank <= 4:
        nonzero = invariants.jacobian_criterion(suite)
        out.append(
            {
                "suite": "invariants",
                "name": "jacobian criterion",
                "status": "pass" if nonzero else "fail",
                "detail": "exact Jacobian determinant is nonzero",
            }
        )
    else:
        out.append(
            {
                "suite": "invariants",
                "name": "jacobian criterion",
                "status": "skip",
                "detail": "rank above 4; skipped for runtime",
            }
        )
    return out


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    if args.suite not in SELECTORS:
        raise InputError(
            f"unknown suite {args.suite!r}; choose from {', '.join(SELECTORS)}"
        )
    rd = _root_datum(spec)
    checks: list[dict[str, str]] = []
    selected = SELECTORS[:-1] if args.suite == "all" else (args.suite,)
    for suite in selected:
        if suite == "axioms":
            checks.extend(_checks_axioms(rd))
        elif suite == "sl2":
            checks.extend(_checks_sl2(rd))
        elif suite == "serre":
            checks.extend(_checks_serre(rd))
        elif suite == "killing":
            checks.extend(_checks_killing(rd))
        elif suite == "weyl":
            checks.extend(_checks_weyl(rd, args.max_order))
        elif suite == "invariants":
            checks.extend(_checks_invariants(rd))
    all_passed = all(c["status"] != "fail" for c in checks)
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "family": spec.family.cli_name,
        "n": spec.rank,
        "suite": args.suite,
        "checks": checks,
        "all_passed": all_passed,
    }
    lines = [
        f"{c['suite']}: {c['name']}: {c['status'].upper()} ({c['detail']})"
        for c in checks
    ]
    lines.append(f"result: {'PASS' if all_passed else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _parse_vectors(data: Any, path: str) -> list[tuple[Fraction, ...]]:
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: \"vectors\" must be a nonempty list of vectors")
    vectors = []
    width = None
    for row_index, row in enumerate(data, start=1):
        if not isinstance(row, list) or not row:
            raise InputError(f"{path}: vector {row_index} must be a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(f"{path}: vector {row_index} has length {len(row)}, expected {width}")
        coords = []
        for col_index, cell in enumerate(row, start=1):
            if isinstance(cell, bool) or not isinstance(cell, (int, str)):
                raise InputError(
                    f"{path}: vector {row_index} entry {col_index} must be an integer"
                    " or a rational string"
                )
            try:
                coords.append(parse_rational(str(cell)))
            except ValueError as exc:
                raise InputError(
                    f"{path}: vector {row_index} entry {col_index}: {exc}"
                ) from exc
        vectors.append(tuple(coords))
    return vectors


def _parse_cartan(data: Any, path: str) -> forms.CartanMatrix:
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: \"cartan\" must be a nonempty square integer matrix")
    for row in data:
        if (
            not isinstance(row, list)
            or len(row) != len(data)
            or any(isinstance(x, bool) or not isinstance(x, int) for x in row)
        ):
            raise InputError(f"{path}: \"cartan\" must be a square integer matrix")
    try:
        return forms.CartanMatrix(tuple(tuple(row) for row in data))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _derive_simple_roots(
    vectors: list[tuple[Fraction, ...]]
) -> list[tuple[Fraction, ...]]:
    """Lex-positive roots that are not sums of two positive roots."""
    positive = {v for v in vectors if is_positive(v)}
    simple = []
    for candidate in sorted(positive, reverse=True):
        decomposable = any(
            tuple(c - q for c, q in zip(candidate, other)) in positive
            for other in positive
            if other != candidate
        )
        if not decomposable:
            simple.append(candidate)
    return simple


def cmd_classify(args) -> int:
    data = _load_json(args.path)
    if not isinstance(data, dict) or not ({"vectors", "cartan"} & set(data)):
        raise InputError(
            f"{args.path}: expected a JSON object with a \"vectors\" or \"cartan\" key"
        )
    lines: list[str] = []
    payload: dict[str, Any] = {
        "schema": SCHEMA,
        "command": "classify",
        "input": "vectors" if "vectors" in data else "cartan",
    }
    failed = False

    if "vectors" in data:
        vectors = _parse_vectors(data["vectors"], args.path)
        report = roots.verify_root_axioms(vectors, dot)
        payload["axioms"] = [
            {
                "name": c.name,
                "status": "pass" if c.passed else "fail",
                "detail": c.detail,
            }
            for c in report.checks
        ]
        for c in report.checks:
            lines.append(
                f"axiom {c.name}: {'PASS' if c.passed else 'FAIL'} ({c.detail})"
            )
        if not report.all_passed:
            failing = ", ".join(c.name for c in report.failures())
            lines.append(f"classification: failed root-system axioms ({failing})")
            payload["classification"] = None
            _emit(args, payload, lines)
            return 1
        simple = _derive_simple_roots(vectors)
        entries = []
        for a in simple:
            row = []
            for b in simple:
                ratio = 2 * dot(a, b) / dot(b, b)
                if ratio.denominator != 1:
                    raise InputError(
                        f"{args.path}: non-integer Cartan ratio {ratio} among simple roots"
                    )
                row.append(int(ratio))
            entries.append(tuple(row))
        try:
            A = forms.CartanMatrix(tuple(entries))
        except ValueError as exc:
            lines.append(f"classification: NotSimple: {exc}")
            payload["classification"] = "NotSimple"
            payload["reason"] = str(exc)
            _emit(args, payload, lines)
            return 1
        lengths = [dot(a, a) for a in simple]
    else:
        A = _parse_cartan(data["cartan"], args.path)
        try:
            lengths = dynkin.lengths_from_cartan(A)
        except ValueError as exc:
            lines.append(f"classification: NotSimple: {exc}")
            payload["classification"] = "NotSimple"
            payload["reason"] = str(exc)
            _emit(args, payload, lines)
            return 1

    payload["cartan_matrix"] = [list(row) for row in A.entries]
    lines.append("cartan matrix:")
    lines.extend("  " + row for row in _format_matrix(A.entries))

    try:
        diagram = dynkin.build_diagram(A, lengths)
    except ValueError as exc:
        lines.append(f"classification: NotSimple: {exc}")
        payload["classification"] = "NotSimple"
        payload["reason"] = str(exc)
        _emit(args, payload, lines)
        return 1

    positive_definite = dynkin.check_positive_definite(diagram, A, lengths)
    if not positive_definite:
        lines.append("classification: NotSimple: positive definiteness fails")
        payload["classification"] = "NotSimple"
        payload["reason"] = "positive definiteness fails"
        _emit(args, payload, lines)
        return 1

    names = dynkin.classify(diagram)
    classification = "+".join(names)
    payload["classification"] = classification
    payload["diagram"] = dynkin.ascii_diagram(diagram)
    lines.append(f"classification: {classification}")
    lines.extend(dynkin.ascii_diagram(diagram).splitlines())
    _emit(args, payload, lines)
    return 0 if dynkin.NOT_SIMPLE not in names else 1


# ---------------------------------------------------------------------------
# serre
# ---------------------------------------------------------------------------


def cmd_serre(args) -> int:
    spec = _spec_from_args(args)
    rd = _root_datum(spec)
    pairing = forms.coroot_pairing_matrix(rd)
    presentation = dynkin.serre_presentation(pairing)
    report = dynkin.verify_serre(rd.realization, rd, presentation)
    payload = {
        "schema": SCHEMA,
        "command": "serre",
        "family": spec.family.cli_name,
        "n": spec.rank,
        "cartan_pairing_matrix": [list(row) for row in pairing.entries],
        "relations": [
            {"relation": rel.describe(), "status": "pass" if ok else "fail"}
            for rel, ok in report.results
        ],
        "all_passed": report.all_passed,
    }
    lines = ["cartan pairing matrix (A_ij = a_j(h_i)):"]
    lines.extend("  " + row for row in _format_matrix(pairing.entries))
    for rel, ok in report.results:
        lines.append(f"{rel.describe()}: {'PASS' if ok else 'FAIL'}")
    lines.append(f"result: {'PASS' if report.all_passed else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def cmd_invariants(args) -> int:
    spec = _spec_from_args(args)
    rd = _root_datum(spec)
    checks = _checks_invariants(rd)
    suite = invariants.build_suite(spec.family, spec.lie_rank)
    payload = {
        "schema": SCHEMA,
        "command": "invariants",
        "family": spec.family.cli_name,
        "n": spec.rank,
        "nvars": suite.nvars,
        "degrees": list(suite.degrees),
        "degree_product": suite.degree_product(),
        "weyl_order_formula": weyl.weyl_order_formula(spec),
        "polynomials": [str(p) for p in suite.polys],
        "checks": checks,
        "all_passed": all(c["status"] != "fail" for c in checks),
    }
    lines = [
        f"invariant suite for {spec.name}: {suite.nvars} variables",
        "polynomials:",
        *(f"  f{i + 1} = {p}" for i, p in enumerate(suite.polys)),
        f"degrees: {', '.join(str(d) for d in suite.degrees)}",
        f"degree product: {suite.degree_product()}",
        f"weyl order (formula): {weyl.weyl_order_formula(spec)}",
    ]
    for c in checks:
        lines.append(f"{c['name']}: {c['status'].upper()} ({c['detail']})")
    all_passed = payload["all_passed"]
    lines.append(f"result: {'PASS' if all_passed else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _order_cap(text: str) -> int:
    """--max-order value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liealg",
        description=(
            "Exact computations with the classical Lie algebras: root systems, "
            "Killing forms, Cartan matrices, Dynkin diagrams, Weyl groups, "
            "Serre relations, and invariant polynomials."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "family",
            help="one of sl, sp, so-even, so-odd",
        )
        p.add_argument(
            "n",
            type=int,
            help="the classical parameter n: sl_n, sp_2n, so_2n, so_2n+1"
            " (for sl the Lie rank is n-1)",
        )
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_info = sub.add_parser("info", help="dimensions, roots, Cartan matrix, diagram")
    add_family_args(p_info)
    p_info.add_argument(
        "--enumerate-weyl",
        action="store_true",
        help="also enumerate the Weyl group (bounded by --max-order)",
    )
    p_info.add_argument("--max-order", type=_order_cap, default=100_000)
    p_info.set_defaults(handler=cmd_info)

    p_verify = sub.add_parser("verify", help="run verification suites")
    add_family_args(p_verify)
    p_verify.add_argument(
        "suite",
        help=f"one of {', '.join(SELECTORS)}",
    )
    p_verify.add_argument("--max-order", type=_order_cap, default=100_000)
    p_verify.set_defaults(handler=cmd_verify)

    p_classify = sub.add_parser(
        "classify", help="classify a root-vector or Cartan-matrix JSON file"
    )
    p_classify.add_argument("path", help="JSON file with a vectors or cartan key")
    p_classify.add_argument("--format", choices=("text", "json"), default="text")
    p_classify.set_defaults(handler=cmd_classify)

    p_serre = sub.add_parser("serre", help="emit and verify the Serre presentation")
    add_family_args(p_serre)
    p_serre.set_defaults(handler=cmd_serre)

    p_invariants = sub.add_parser(
        "invariants", help="basic invariant polynomials and their checks"
    )
    add_family_args(p_invariants)
    p_invariants.set_defaults(handler=cmd_invariants)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
