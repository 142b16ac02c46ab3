"""What starting a command loads: ``import liealg.cli`` stays off the heavy stdlib,
and a command executes only the library modules it calls.

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
    whether liealg imports them; the probe itself imports nothing.  A library
    module runs on first use, outside the import system, so it is not in that
    log; ``executed_by`` lists those.
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


@pytest.fixture(scope="module")
def vectors_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("startup") / "b2_vectors.json"
    path.write_text('{"vectors": [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1],'
                    ' [1, -1], [-1, 1]]}', encoding="utf-8")
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


# Runs ``liealg ARGV`` in process (or only ``import liealg`` when ARGV is
# empty) and prints the liealg modules it executed.  A registered module that
# has not run yet is still an ``importlib.util._LazyModule``; running it makes
# it a plain module.
EXECUTED_PROBE = """
import sys, types
import liealg
if sys.argv[1:]:
    from liealg.cli import main
    code = main(sys.argv[1:])
    assert code == 0, code
print(" ".join(sorted(name for name, module in sys.modules.items()
                      if name.startswith("liealg.") and type(module) is types.ModuleType)))
"""


def executed_by(*argv: str) -> set[str]:
    """The liealg modules that ``liealg ARGV`` executes, under ``-S``."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", EXECUTED_PROBE, *argv],
        cwd=ROOT,
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def test_importing_the_package_executes_no_library_module():
    assert executed_by() == set()


def test_info_executes_neither_invariants_nor_polynomials():
    executed = executed_by("info", "sl", "3")
    assert "liealg.catalog" in executed
    assert not executed & {"liealg.invariants", "liealg.polynomials"}, sorted(executed)


# Modules that a classify command never calls: it reads vectors or a Cartan matrix
# from its file, so it builds no realization and derives no root datum.
NOT_CLASSIFY = {"liealg.roots", "liealg.catalog", "liealg.digraph", "liealg.families",
                "liealg.weyl", "liealg.invariants", "liealg.polynomials"}


def test_classify_vectors_executes_the_axioms_and_no_derivation(vectors_file):
    executed = executed_by("classify", vectors_file)
    assert "liealg.axioms" in executed
    assert not executed & NOT_CLASSIFY, sorted(executed & NOT_CLASSIFY)


def test_classify_cartan_executes_neither_axioms_nor_derivation(cartan_file):
    executed = executed_by("classify", cartan_file)
    assert "liealg.dynkin" in executed
    unused = NOT_CLASSIFY | {"liealg.axioms"}
    assert not executed & unused, sorted(executed & unused)


def test_info_executes_the_derivation_but_neither_weyl_nor_axioms():
    executed = executed_by("info", "sl", "3")
    assert "liealg.roots" in executed
    assert not executed & {"liealg.weyl", "liealg.axioms"}, sorted(executed)


# Prints each liealg module that ``import liealg`` put in sys.modules unexecuted.
LAZY_PROBE = """
import sys, types
import liealg
print(" ".join(sorted(name for name, module in sys.modules.items()
                      if name.startswith("liealg.") and type(module) is not types.ModuleType)))
"""


def test_importing_the_package_registers_every_library_module_lazily():
    """A library module left out of ``liealg/__init__`` would run on its first
    import instead, and the benchmark tracer would not see it."""
    library = {f"liealg.{path.stem}" for path in (ROOT / "src" / "liealg").glob("*.py")
               if path.stem not in ("__init__", "__main__") and not path.stem.startswith("cli")}
    result = subprocess.run([sys.executable, "-S", "-c", LAZY_PROBE], cwd=ROOT, env=CHILD_ENV,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert set(result.stdout.split()) == library


def test_verify_sl2_executes_only_the_derivation_modules():
    executed = executed_by("verify", "sp", "2", "sl2")
    assert "liealg.roots" in executed
    unused = {"liealg.dynkin", "liealg.forms", "liealg.weyl", "liealg.invariants",
              "liealg.polynomials"}
    assert not executed & unused, sorted(executed & unused)


def test_invariants_executes_invariants_and_polynomials():
    executed = executed_by("invariants", "sl", "3")
    assert {"liealg.invariants", "liealg.polynomials"} <= executed
