"""Command-line surface: info, verify, classify, serre, invariants.

Output is deterministic byte-for-byte: identical invocations produce
identical text.  Exit codes: 0 success / all checks pass, 1 verification
failure, 2 usage or parse error.  JSON output carries a fixed schema tag and
serializes every rational as a "p/q" (or plain integer) string.

This module holds the parser, the dispatch and the output helpers that the
commands share.  Each command's code lives in its own module, which ``main``
imports only when it runs that command: ``cli_info`` (info), ``cli_suites``
(the check suites, with verify, serre and invariants) and ``cli_classify``
(classify and its JSON parsing).  A run that prints text never loads
``json``.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Sequence

from . import catalog, families, records, roots

SCHEMA = "liealg/1"

# The verify suites in the order `all` runs them; cli_suites.SUITES builds each one.
SELECTORS = ("axioms", "sl2", "serre", "killing", "weyl", "invariants", "all")

# (JSON key, Check attribute) pairs for each shape a run of checks takes in liealg/1.
Fields = Sequence[tuple[str, str]]
CHECK_FIELDS: Fields = tuple((field, field) for field in ("suite", "name", "status", "detail"))

# Digits per classify vector, numerators and denominators summed: a printed Cartan integer
# has at most about four times as many, which stays under Python's 4300-digit str(int) limit.
MAX_VECTOR_DIGITS = 1000
# Vectors per classify file: the reflection axiom checks every ordered pair, so the count
# bounds the work.  It is checked before any entry is parsed.
MAX_VECTORS = 1000


class InputError(Exception):
    """Bad user input (usage or file parsing); maps to exit code 2."""


def format_matrix(rows: Sequence[Sequence[int]]) -> list[str]:
    width = max(len(str(x)) for row in rows for x in row)
    return ["[" + " ".join(f"{x:>{width}}" for x in row) + "]" for row in rows]


def emit(args, payload: dict[str, object], text_lines: list[str]) -> None:
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def render(
    checks: Sequence[records.Check], line: str, fields: Fields = CHECK_FIELDS
) -> tuple[list[dict[str, str]], list[str]]:
    """JSON records and text lines for a run of checks.

    ``line`` formats one check from its fields, with the status upper-cased.
    """
    rows = [{key: getattr(c, attr) for key, attr in fields} for c in checks]
    lines = [
        line.format(suite=c.suite, name=c.name, status=c.status.upper(), detail=c.detail)
        for c in checks
    ]
    return rows, lines


def emit_report(args, payload: dict[str, object], lines: list[str],
                report: records.CheckReport, line: str, key: str = "checks",
                fields: Fields = CHECK_FIELDS) -> int:
    """Emit the checks and the overall result after ``lines``; return the exit code."""
    payload[key], check_lines = render(report.results, line, fields)
    payload["all_passed"] = report.all_passed
    result = "PASS" if report.all_passed else "FAIL"
    emit(args, payload, [*lines, *check_lines, f"result: {result}"])
    return 0 if report.all_passed else 1


def spec_from_args(args) -> families.AlgebraSpec:
    try:
        family = families.AlgebraFamily.from_name(args.family)
        return families.AlgebraSpec(family, args.n)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def header(command: str, spec: families.AlgebraSpec) -> dict[str, object]:
    """The leading keys of every family command's JSON payload."""
    return {"schema": SCHEMA, "command": command, "family": spec.family.cli_name, "n": spec.rank}


def root_datum(spec: families.AlgebraSpec) -> roots.RootDatum:
    return roots.cartan_decompose(catalog.build(spec))


# ---------------------------------------------------------------------------
# parser and dispatch
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

    def command(name: str, help_text: str, family: bool = True):
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
        return p

    p_info = command("info", "dimensions, roots, Cartan matrix, diagram")
    p_info.add_argument(
        "--enumerate-weyl",
        action="store_true",
        help="also enumerate the Weyl group (bounded by --max-order)",
    )
    p_verify = command("verify", "run verification suites")
    p_verify.add_argument("suite", help=f"one of {', '.join(SELECTORS)}")
    for p in (p_info, p_verify):
        p.add_argument("--max-order", type=_order_cap, default=100_000)
    p_classify = command("classify", "classify a root-vector or Cartan-matrix JSON file", False)
    p_classify.add_argument("path", help="JSON file with a vectors or cartan key")
    command("serre", "emit and verify the Serre presentation")
    command("invariants", "basic invariant polynomials and their checks")
    return parser


def _run(args) -> int:
    """Run the parsed command, importing the module that holds its code."""
    if args.command == "info":
        from .cli_info import cmd_info as handler
    elif args.command == "classify":
        from .cli_classify import cmd_classify as handler
    elif args.command == "verify":
        from .cli_suites import cmd_verify as handler
    elif args.command == "serre":
        from .cli_suites import cmd_serre as handler
    else:
        from .cli_suites import cmd_invariants as handler
    return handler(args)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
