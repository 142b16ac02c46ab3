"""What starting a command loads: ``import liealg.cli`` stays off the heavy stdlib.

The interpreter runs as the benchmark runs each command: sources from src/,
no bytecode cache, and an otherwise empty environment.  The check names
modules, not times, so a slow or busy host cannot fail it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The record types are NamedTuples and __slots__ classes, so no command needs these
# (dataclasses alone pulls in inspect, ast, dis and tokenize).
UNWANTED = ("dataclasses", "inspect")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = "import json, sys, liealg.cli; print(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env={"PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(json.loads(result.stdout))
    assert "liealg.cli" in loaded
    assert not loaded.intersection(UNWANTED), sorted(loaded.intersection(UNWANTED))
