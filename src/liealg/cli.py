"""Command-line surface: info, verify, classify, serre, invariants.

Output is deterministic byte-for-byte: identical invocations produce
identical text.  Exit codes: 0 success / all checks pass, 1 verification
failure, 2 usage or parse error.  JSON output carries a fixed schema tag and
serializes every rational as a "p/q" (or plain integer) string.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import prod
from typing import Any, Callable, Sequence

from . import catalog, dynkin, forms, invariants, roots, weyl
from .catalog import Check, CheckReport
from .exact import Scalar, format_rational, parse_rational
from .families import AlgebraFamily, AlgebraSpec
from .matrices import dot

SCHEMA = "liealg/1"

FAMILY_SIGMA_COEFFICIENT = {
    AlgebraFamily.SL: lambda n: 2 * n,
    AlgebraFamily.SP: lambda n: 4 * (n + 1),
    AlgebraFamily.SO_EVEN: lambda n: 4 * (n - 1),
    AlgebraFamily.SO_ODD: lambda n: 4 * n - 2,
}

# (JSON key, Check attribute) pairs for each shape a run of checks takes in liealg/1.
Fields = Sequence[tuple[str, str]]
CHECK_FIELDS: Fields = tuple((field, field) for field in ("suite", "name", "status", "detail"))
AXIOM_FIELDS = CHECK_FIELDS[1:]
RELATION_FIELDS = (("relation", "name"), ("status", "status"))

# Digits per classify vector, numerators and denominators summed: a printed Cartan integer
# has at most about four times as many, which stays under Python's 4300-digit str(int) limit.
MAX_VECTOR_DIGITS = 1000
# Vectors per classify file: the reflection axiom checks every ordered pair, so the count
# bounds the work.  It is checked before any entry is parsed.
MAX_VECTORS = 1000


class InputError(Exception):
    """Bad user input (usage or file parsing); maps to exit code 2."""


def _vector_strings(vec: Sequence[Scalar]) -> list[str]:
    return [format_rational(c) for c in vec]


def _format_vector(vec: Sequence[Scalar]) -> str:
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


def _render(
    checks: Sequence[Check], line: str, fields: Fields = CHECK_FIELDS
) -> tuple[list[dict[str, str]], list[str]]:
    """JSON records and text lines for a run of checks.

    ``line`` formats one check from its fields, with the status upper-cased.
    """
    records = [{key: getattr(c, attr) for key, attr in fields} for c in checks]
    lines = [
        line.format(suite=c.suite, name=c.name, status=c.status.upper(), detail=c.detail)
        for c in checks
    ]
    return records, lines


def _emit_report(args, payload: dict[str, Any], lines: list[str], report: CheckReport,
                 line: str, key: str = "checks", fields: Fields = CHECK_FIELDS) -> int:
    """Emit the checks and the overall result after ``lines``; return the exit code."""
    payload[key], check_lines = _render(report.results, line, fields)
    payload["all_passed"] = report.all_passed
    result = "PASS" if report.all_passed else "FAIL"
    _emit(args, payload, [*lines, *check_lines, f"result: {result}"])
    return 0 if report.all_passed else 1


def _spec_from_args(args) -> AlgebraSpec:
    try:
        family = AlgebraFamily.from_name(args.family)
        return AlgebraSpec(family, args.n)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _header(command: str, spec: AlgebraSpec) -> dict[str, Any]:
    """The leading keys of every family command's JSON payload."""
    return {"schema": SCHEMA, "command": command, "family": spec.family.cli_name, "n": spec.rank}


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
    metric = forms.killing_coefficients(rd)
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
        **_header("info", spec),
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
        f"killing form on cartan: {format_rational(metric.sigma)}*sum(x_i*y_i)"
        f" = {format_rational(metric.trace)}*tr(xy)",
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


def _checks_axioms(rd: roots.RootDatum) -> Sequence[Check]:
    inner = forms.weight_inner(rd)
    return roots.verify_root_axioms(rd.roots, inner, expected_dim=rd.spec.lie_rank).results


def _checks_sl2(rd: roots.RootDatum) -> Sequence[Check]:
    return [
        Check.of("sl2", f"triple {catalog.format_weight(root)}",
                 roots.verify_sl2_triple(rd, root), "x, y, h relations and a(h)=2")
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
    formula = weyl.weyl_order_formula(rd.spec)
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
    formula = weyl.weyl_order_formula(rd.spec)
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
SELECTORS = (*SUITES, "all")


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    if args.suite not in SELECTORS:
        raise InputError(
            f"unknown suite {args.suite!r}; choose from {', '.join(SELECTORS)}"
        )
    rd = _root_datum(spec)
    selected = SUITES if args.suite == "all" else (args.suite,)
    report = CheckReport(
        tuple(c for suite in selected for c in SUITES[suite](rd, args.max_order))
    )
    payload = {**_header("verify", spec), "suite": args.suite}
    return _emit_report(args, payload, [], report, "{suite}: {name}: {status} ({detail})")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # the one other failure: Python's int-conversion limit
        raise InputError(
            f"{path}: an integer literal has over {sys.get_int_max_str_digits()} digits"
        ) from exc


def _parse_vectors(data: Any, path: str) -> list[tuple[Scalar, ...]]:
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: \"vectors\" must be a nonempty list of vectors")
    if len(data) > MAX_VECTORS:
        raise InputError(
            f"{path}: \"vectors\" holds {len(data)} vectors; at most {MAX_VECTORS} are accepted"
        )
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
        digits = sum(len(str(c.numerator)) + len(str(c.denominator)) for c in coords)
        if digits > MAX_VECTOR_DIGITS:
            raise InputError(
                f"{path}: vector {row_index} has {digits} digits;"
                f" at most {MAX_VECTOR_DIGITS} are accepted"
            )
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


def cmd_classify(args) -> int:
    data = _load_json(args.path)
    keys = list(data) if isinstance(data, dict) else []
    if keys not in (["vectors"], ["cartan"]):
        raise InputError(
            f"{args.path}: expected a JSON object with exactly one key, \"vectors\" or"
            f" \"cartan\"; got keys: {', '.join(map(json.dumps, keys)) or 'none'}"
        )
    (kind,) = keys
    payload: dict[str, Any] = {"schema": SCHEMA, "command": "classify", "input": kind}
    lines: list[str] = []
    vectors = None
    if kind == "vectors":
        vectors = _parse_vectors(data["vectors"], args.path)
        report = roots.verify_root_axioms(vectors, dot)
        payload["axioms"], lines = _render(
            report.results, "axiom {name}: {status} ({detail})", AXIOM_FIELDS
        )
        if not report.all_passed:
            failing = ", ".join(c.name for c in report.failures())
            lines.append(f"classification: failed root-system axioms ({failing})")
            payload["classification"] = None
            _emit(args, payload, lines)
            return 1

    # Every way the input can fail to be a simple type raises ValueError here.
    try:
        if vectors is None:
            A = _parse_cartan(data["cartan"], args.path)
            lengths = dynkin.lengths_from_cartan(A)
        else:
            simple = roots.simple_roots(vectors)
            A = forms.CartanMatrix(forms.cartan_entries(simple, dot))
            lengths = [dot(a, a) for a in simple]
        payload["cartan_matrix"] = [list(row) for row in A.entries]
        lines.append("cartan matrix:")
        lines.extend("  " + row for row in _format_matrix(A.entries))
        diagram = dynkin.build_diagram(A, lengths)
        if not dynkin.check_positive_definite(A, lengths):
            raise ValueError("positive definiteness fails")
    except ValueError as exc:
        lines.append(f"classification: {dynkin.NOT_SIMPLE}: {exc}")
        payload["classification"] = dynkin.NOT_SIMPLE
        payload["reason"] = str(exc)
        _emit(args, payload, lines)
        return 1

    names = dynkin.classify(diagram)
    classification = "+".join(names)
    payload["classification"] = classification
    payload["diagram"] = dynkin.ascii_diagram(diagram)
    lines.append(f"classification: {classification}")
    lines.extend(payload["diagram"].splitlines())
    _emit(args, payload, lines)
    return 0 if dynkin.NOT_SIMPLE not in names else 1


# ---------------------------------------------------------------------------
# serre
# ---------------------------------------------------------------------------


def cmd_serre(args) -> int:
    spec = _spec_from_args(args)
    rd = _root_datum(spec)
    pairing = forms.coroot_pairing_matrix(rd)
    report = CheckReport(tuple(_checks_serre(rd, pairing)))
    payload = {
        **_header("serre", spec),
        "cartan_pairing_matrix": [list(row) for row in pairing.entries],
    }
    lines = ["cartan pairing matrix (A_ij = a_j(h_i)):"]
    lines.extend("  " + row for row in _format_matrix(pairing.entries))
    return _emit_report(
        args, payload, lines, report, "{name}: {status}", "relations", RELATION_FIELDS
    )


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def cmd_invariants(args) -> int:
    spec = _spec_from_args(args)
    rd = _root_datum(spec)
    suite = invariants.build_suite(spec.family, spec.lie_rank)
    report = CheckReport(tuple(_checks_invariants(rd, suite)))
    order = weyl.weyl_order_formula(spec)
    payload = {
        **_header("invariants", spec),
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
    return _emit_report(args, payload, lines, report, "{name}: {status} ({detail})")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(text: str) -> int:
    """An integer argument: exactly [+-]?[0-9]+, no spaces, underscores or other digits."""
    try:
        if _INTEGER.fullmatch(text):
            return int(text)
    except ValueError:  # over Python's int-conversion digit limit
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _order_cap(text: str) -> int:
    """--max-order value: an integer of at least 1."""
    value = _integer(text)
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

    def command(name: str, handler, help_text: str, family: bool = True):
        p = sub.add_parser(name, help=help_text)
        if family:
            p.add_argument("family", help="one of sl, sp, so-even, so-odd")
            p.add_argument(
                "n",
                type=_integer,
                help="the classical parameter n: sl_n, sp_2n, so_2n, so_2n+1"
                " (for sl the Lie rank is n-1)",
            )
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(handler=handler)
        return p

    p_info = command("info", cmd_info, "dimensions, roots, Cartan matrix, diagram")
    p_info.add_argument(
        "--enumerate-weyl",
        action="store_true",
        help="also enumerate the Weyl group (bounded by --max-order)",
    )
    p_verify = command("verify", cmd_verify, "run verification suites")
    p_verify.add_argument("suite", help=f"one of {', '.join(SELECTORS)}")
    for p in (p_info, p_verify):
        p.add_argument("--max-order", type=_order_cap, default=100_000)
    p_classify = command(
        "classify", cmd_classify, "classify a root-vector or Cartan-matrix JSON file", False
    )
    p_classify.add_argument("path", help="JSON file with a vectors or cartan key")
    command("serre", cmd_serre, "emit and verify the Serre presentation")
    command("invariants", cmd_invariants, "basic invariant polynomials and their checks")
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
