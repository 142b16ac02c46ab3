"""What starting a command loads: ``import liealg.cli`` stays off the heavy stdlib.

The interpreter runs as the benchmark runs each command: sources from src/,
no bytecode cache, and an otherwise empty environment.  The check names
modules, not times, so a slow or busy host cannot fail it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The record types are named tuples and __slots__ classes, so no command needs these
# (dataclasses alone pulls in inspect, ast, dis and tokenize).
UNWANTED = ("dataclasses", "inspect")
# The environment of a benchmark child (bench/run.py, CHILD_ENV).
CHILD_ENV = {
    "PATH": os.defpath,
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "LC_ALL": "C.UTF-8",
}
COMMAND_MODULES = {"liealg.cli_info", "liealg.cli_suites", "liealg.cli_classify"}


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


def loaded_by(*argv: str) -> set[str]:
    """The modules that ``liealg ARGV`` imports, read from ``-X importtime``.

    ``-S`` keeps ``site`` from importing modules of its own, which would hide
    whether liealg imports them; the probe itself imports nothing.
    """
    result = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "liealg", *argv],
        cwd=ROOT,
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


@pytest.fixture(scope="module")
def cartan_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("startup") / "b2.json"
    path.write_text('{"cartan": [[2, -1], [-2, 2]]}', encoding="utf-8")
    return str(path)


# (argv, the command module it runs); every command prints text.
COMMANDS = [
    pytest.param(("info", "sl", "3"), "liealg.cli_info", id="info"),
    pytest.param(("verify", "sp", "2", "all"), "liealg.cli_suites", id="verify"),
    pytest.param(("serre", "sp", "2"), "liealg.cli_suites", id="serre"),
    pytest.param(("invariants", "sl", "3"), "liealg.cli_suites", id="invariants"),
    pytest.param(("classify", "@file"), "liealg.cli_classify", id="classify"),
]


@pytest.mark.parametrize("argv,module", COMMANDS)
def test_a_command_loads_its_own_module_and_no_typing(argv, module, cartan_file):
    loaded = loaded_by(*(cartan_file if arg == "@file" else arg for arg in argv))
    assert "liealg.cli" in loaded and module in loaded
    assert not loaded & (COMMAND_MODULES - {module}), sorted(loaded & COMMAND_MODULES)
    assert not loaded & {"typing", *UNWANTED}, sorted(loaded & {"typing", *UNWANTED})
    # classify reads JSON; a command that only prints text never loads json.
    assert ("json" in loaded) == (module == "liealg.cli_classify")


def test_json_output_loads_json():
    assert "json" in loaded_by("info", "sl", "3", "--format", "json")
