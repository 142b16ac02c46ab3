"""Command-line surface: info, verify, classify, serre, invariants.

Output is deterministic byte-for-byte: identical invocations produce
identical text.  Exit codes: 0 success / all checks pass, 1 verification
failure, 2 usage, parse or output error.  JSON output carries a fixed
schema tag and serializes every rational as a "p/q" (or plain integer)
string.

This module holds the table of the commands and their options, the reader
of a well-formed command line, the dispatch, the output helpers that the
commands share and the process's entry point.  A well-formed command line (a
command, its positionals, then its options, each spelled in full) is read by
a few lines here and never imports argparse, which costs more to import and
build than a small command takes to run.  Any other command line goes to
argparse, whose parser of the same table is built in ``cli_argparse``; it
alone writes the help texts and every usage error.  Each command's code
lives in its own module, which ``main`` imports only when it runs that
command: ``cli_info`` (info), ``cli_suites`` (the check suites, with verify,
serre and invariants, and the report of a run of checks) and
``cli_classify`` (classify and its JSON parsing).  A run that prints text
never loads ``json``.
"""

from __future__ import annotations

import gc
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

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
# Vectors per classify file, checked before any entry is parsed.  The count bounds the
# work: the reflection and integrality axioms take about count * d^2 products in dimension
# d, passing or failing, and the one elimination that gives every vector's coordinates
# takes more on long entries.
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


# The command line, which both parsers read: ``_parse_canonical`` and ``cli_argparse``.
# Each command has its help text, its positional arguments in order (n is the one
# integer among them) and its options.
COMMANDS = {
    "info": ("dimensions, roots, Cartan matrix, diagram",
             ("family", "n"), ("--format", "--enumerate-weyl", "--max-order")),
    "verify": ("run verification suites", ("family", "n", "suite"), ("--format", "--max-order")),
    "classify": ("classify a root-vector or Cartan-matrix JSON file", ("path",), ("--format",)),
    "serre": ("emit and verify the Serre presentation", ("family", "n"), ("--format",)),
    "invariants": ("basic invariant polynomials and their checks", ("family", "n"), ("--format",)),
}
# Each option's default and the values it takes: a tuple of choices, None for a switch, or
# an int for an integer of at least that value.
OPTIONS = {
    "--format": ("text", ("text", "json")),
    "--enumerate-weyl": (False, None),
    "--max-order": (100_000, 1),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _integer(text: str) -> int | None:
    """An integer argument: exactly [+-]?[0-9]+, no spaces, underscores or other digits,
    within Python's int-conversion digit limit.  None for any other text."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # over the int-conversion digit limit
            pass
    return None


def _parse_canonical(argv: Sequence[str]) -> SimpleNamespace | None:
    """The attributes that ``cli_argparse.build_parser().parse_args(argv)`` sets, for a
    command line in the canonical order: a command, exactly its positionals, then only its
    options, each spelled in full with its value in the next token.  None for any other
    command line.

    Help, every usage error and any other spelling are left to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, positionals, options = COMMANDS[argv[0]]
    k = 1 + len(positionals)
    if len(argv) < k or any(arg.startswith("-") for arg in argv[1:k]):
        return None
    args = {"command": argv[0], **dict(zip(positionals, argv[1:k]))}
    if "n" in args:
        if (n := _integer(args["n"])) is None:
            return None
        args["n"] = n
    args.update((_dest(flag), OPTIONS[flag][0]) for flag in options)
    rest = iter(argv[k:])
    for flag in rest:
        if flag not in options:
            return None
        takes = OPTIONS[flag][1]
        if takes is None:
            value = True
        elif (value := next(rest, None)) is None:
            return None
        elif isinstance(takes, tuple):
            if value not in takes:
                return None
        elif (value := _integer(value)) is None or value < takes:
            return None
        args[_dest(flag)] = value
    return SimpleNamespace(**args)


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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_canonical(argv)
        if args is None:
            from .cli_argparse import build_parser

            args = build_parser().parse_args(argv)  # --help writes and exits 0 here
        code = _run(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # stdout is closed or full; reading a file raises InputError
        # Point stdout at the null device, so the interpreter's final flush succeeds.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return 2


def entry():
    """The process's entry point, for ``python -m liealg`` and the installed ``liealg``:
    run ``main``, freeze the collector, and exit with ``main``'s code.

    Freezing moves every live object into the collector's permanent generation, so
    the full collections that the interpreter runs at exit have nothing to traverse.
    Streams are still flushed and atexit handlers still run.  A caller of ``main``
    in process keeps a collecting collector.
    """
    try:
        code = main()
    finally:  # argparse's help and usage errors leave by SystemExit
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
