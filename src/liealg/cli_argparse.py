"""argparse's parser of the liealg command line, with its help texts and usage errors.

``cli.main`` imports this module only for a command line that its own reader
does not take: help, any usage error, and any other spelling of a command.
A well-formed command never runs it.
"""

from __future__ import annotations

import argparse
import sys

from .cli import COMMANDS, OPTIONS, SELECTORS, _integer

HELP_TEXTS = {
    "family": "one of sl, sp, so-even, so-odd",
    "n": "the classical parameter n: sl_n, sp_2n, so_2n, so_2n+1"
         " (for sl the Lie rank is n-1)",
    "suite": f"one of {', '.join(SELECTORS)}",
    "path": "JSON file with a vectors or cartan key",
    "--enumerate-weyl": "also enumerate the Weyl group (bounded by --max-order)",
}
DESCRIPTION = (
    "Exact computations with the classical Lie algebras: root systems, "
    "Killing forms, Cartan matrices, Dynkin diagrams, Weyl groups, "
    "Serre relations, and invariant polynomials."
)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that writing the help text raises on failure.

    argparse ignores an ``OSError`` from that write; raised, it reaches
    ``main`` like a failed write of any other output.
    """

    def print_help(self, file=None) -> None:
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def integer(text: str) -> int:
    if (value := _integer(text)) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def at_least(least: int):
    def read(text: str) -> int:
        if (value := integer(text)) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return read


def build_parser() -> argparse.ArgumentParser:
    """The parser of ``cli.COMMANDS`` and ``cli.OPTIONS``."""
    parser = _Parser(prog="liealg", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg, type=integer if arg == "n" else None, help=HELP_TEXTS[arg])
        for flag in options:
            default, takes = OPTIONS[flag]
            if takes is None:
                p.add_argument(flag, action="store_true", help=HELP_TEXTS.get(flag))
            elif isinstance(takes, tuple):
                p.add_argument(flag, choices=takes, default=default, help=HELP_TEXTS.get(flag))
            else:
                p.add_argument(flag, type=at_least(takes), default=default,
                               help=HELP_TEXTS.get(flag))
    return parser
