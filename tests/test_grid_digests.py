"""liealg/1 byte identity on the benchmark grid, checked by SHA-256 digests.

The goldens pin whole outputs at Lie rank 2-4.  This test covers the grid
that the benchmark runs: ``info`` for every family at Lie rank 3-7,
``verify ... all`` at Lie rank 2-4, and ``serre`` and ``invariants`` at Lie
rank 2-5, each in text and in JSON.  ``golden/grid_digests.json`` maps each
command line to the SHA-256 of its stdout and of its stderr and to its exit
code.  A change meant to leave the output alone (a scalar or kernel change)
keeps every digest; a change that moves the output on purpose says why and
writes the manifest again from the commit whose output is the reference:

    PYTHONPATH=src python tests/test_grid_digests.py > tests/golden/grid_digests.json
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from liealg import cli

MANIFEST = Path(__file__).parent / "golden" / "grid_digests.json"
FAMILIES = ("sl", "sp", "so-odd", "so-even")


def _argv(command: str, family: str, lie_rank: int, *rest: str) -> list[str]:
    n = lie_rank + 1 if family == "sl" else lie_rank
    return [command, family, str(n), *rest]


def grid() -> list[list[str]]:
    """Every command of the grid, each once in text and once in JSON."""
    commands = []
    for family in FAMILIES:
        commands += [_argv("info", family, k) for k in range(3, 8)]
        commands += [_argv("verify", family, k, "all") for k in range(2, 5)]
        commands += [_argv(c, family, k) for k in range(2, 6) for c in ("serre", "invariants")]
    return [argv + fmt for argv in commands for fmt in ([], ["--format", "json"])]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(argv: list[str]) -> dict:
    """The digests of one in-process run's stdout and stderr, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue()), "exit": code}


def test_grid_output_matches_the_digests():
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert list(expected) == [" ".join(argv) for argv in grid()]
    moved = [line for line, want in expected.items() if digest(line.split()) != want]
    assert not moved, f"{len(moved)} of {len(expected)} commands changed output: {moved}"


if __name__ == "__main__":
    print(json.dumps({" ".join(argv): digest(argv) for argv in grid()}, indent=1))
