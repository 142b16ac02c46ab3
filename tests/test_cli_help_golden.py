"""The parser's own texts, byte for byte: help for the program and for each
command, and one usage error per command, with the error of an unknown
``verify`` suite.

Each case runs ``cli.main`` in-process with ``COLUMNS=80``, the width that
argparse wraps to.  ``golden/help_usage.json`` maps each command line to its
stdout, its stderr and its exit code.  The texts are those of Python 3.11's
argparse; a change meant to move them says why and writes the file again
from the commit whose output is the reference:

    PYTHONPATH=src python tests/test_cli_help_golden.py > tests/golden/help_usage.json
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from liealg import cli

GOLDEN = Path(__file__).parent / "golden" / "help_usage.json"
COLUMNS = "80"
CASES = (
    "--help",
    *(f"{command} --help" for command in ("info", "verify", "classify", "serre", "invariants")),
    "",
    "bogus",
    "info sl",
    "verify sl 3",
    "verify sl 3 nope",
    "classify",
    "serre sl x",
    "invariants sl 3 --format xml",
)


def capture(line: str) -> dict:
    """The stdout, stderr and exit code of one in-process run of ``liealg <line>``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(line.split())
        except SystemExit as exc:  # help and usage errors exit through argparse
            code = exc.code
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def test_the_case_list_matches_the_golden():
    assert list(json.loads(GOLDEN.read_text(encoding="utf-8"))) == list(CASES)


@pytest.mark.parametrize("line", CASES)
def test_help_and_usage_texts_match_the_golden(line, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[line]
    assert capture(line) == expected


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    print(json.dumps({line: capture(line) for line in CASES}, indent=1))
