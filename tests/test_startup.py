"""What starting a command loads: ``import liealg.cli`` stays off the heavy stdlib,
a well-formed command line never imports argparse or ``cli_argparse``, and a command
executes only the library modules it calls.

The interpreter runs as the benchmark runs each command: sources from src/,
no bytecode cache, and an otherwise empty environment.  The check names
modules, not times, so a slow or busy host cannot fail it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CHILD_ENV

ROOT = Path(__file__).resolve().parent.parent
# The record types are __slots__ classes under records.Record, so no command needs these
# (dataclasses alone pulls in inspect, ast, dis and tokenize).
UNWANTED = ("dataclasses", "inspect")
COMMAND_MODULES = {"liealg.cli_info", "liealg.cli_suites", "liealg.cli_classify"}


def bench_child_env() -> dict[str, str]:
    """``CHILD_ENV`` as ``bench/run.py`` assigns it, read from its source."""
    path = ROOT / "bench" / "run.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [ast.unparse(target) for target in node.targets] == ["CHILD_ENV"]]
    return eval(compile(ast.Expression(value), str(path), "eval"), {"os": os})


def test_the_child_environment_is_the_benchmarks():
    """The probes here and in test_exit_path run as the benchmark's children run."""
    assert CHILD_ENV == bench_child_env()


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


def run_importtime(*argv: str, env=CHILD_ENV) -> tuple[subprocess.CompletedProcess, set[str]]:
    """``liealg ARGV`` run under ``-X importtime``: the finished process, with the
    import log taken out of its stderr, and the modules it imported.

    ``-S`` keeps ``site`` from importing modules of its own, which would hide
    whether liealg imports them; the probe itself imports nothing.  A library
    module runs on first use, outside the import system, so it is not in that
    log; ``executed_by`` lists those.
    """
    result = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "liealg", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = result.stderr.splitlines(keepends=True)
    log = [line for line in lines if line.startswith("import time:")]
    result.stderr = "".join(line for line in lines if not line.startswith("import time:"))
    return result, {line.rsplit("|", 1)[1].strip() for line in log[1:]}


def loaded_by(*argv: str) -> set[str]:
    """The modules that ``liealg ARGV`` imports; the command must exit 0."""
    result, loaded = run_importtime(*argv)
    assert result.returncode == 0, result.stderr
    return loaded


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


# What the argparse fallback loads: cli_argparse imports argparse, which imports gettext,
# which imports locale at the first message that argparse translates, when it builds the
# parser.
PARSER_MODULES = {"liealg.cli_argparse", "argparse", "gettext", "locale"}


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("argv,module", COMMANDS)
def test_a_well_formed_command_loads_no_argparse(argv, module, output, cartan_file):
    argv = [cartan_file if arg == "@file" else arg for arg in argv]
    loaded = loaded_by(*argv, "--format", output)
    assert module in loaded
    assert not loaded & PARSER_MODULES, sorted(loaded & PARSER_MODULES)


HELP_GOLDEN = ROOT / "tests" / "golden" / "help_usage.json"


@pytest.mark.parametrize("line", ["--help", "serre sl x"])
def test_help_and_usage_errors_still_come_from_argparse(line):
    """The help golden's texts and exit codes, from a fresh process that loads argparse."""
    expected = json.loads(HELP_GOLDEN.read_text(encoding="utf-8"))[line]
    result, loaded = run_importtime(*line.split(), env={**CHILD_ENV, "COLUMNS": "80"})
    assert {"liealg.cli_argparse", "argparse"} <= loaded
    assert (result.stdout, result.stderr, result.returncode) == (
        expected["stdout"], expected["stderr"], expected["exit"])


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


def modules(names: str) -> set[str]:
    return {f"liealg.{name}" for name in names.split()}


# Exactly what each command executes, as ROADMAP's "What a command runs" lists it.
CLASSIFY_CARTAN = modules("cli cli_classify dynkin exact matrices records")
EXECUTED = [
    pytest.param(("info", "sl", "3"), modules(
        "catalog cli cli_info dynkin edges exact families forms matrices records roots"),
        id="info"),
    pytest.param(("classify", "@vectors"), CLASSIFY_CARTAN | modules("axioms"),
                 id="classify-vectors"),
    pytest.param(("classify", "@cartan"), CLASSIFY_CARTAN, id="classify-cartan"),
    pytest.param(("verify", "sp", "2", "all"), modules(
        "axioms catalog cli cli_suites dynkin edges exact families forms invariants matrices"
        " polynomials records roots weyl"), id="verify"),
    pytest.param(("invariants", "sl", "3"), modules(
        "catalog cli cli_suites edges exact families invariants matrices polynomials records"
        " roots weyl"), id="invariants"),
]


@pytest.mark.parametrize("argv,expected", EXECUTED)
def test_a_command_executes_exactly_its_modules(argv, expected, cartan_file, vectors_file):
    files = {"@cartan": cartan_file, "@vectors": vectors_file}
    assert executed_by(*(files.get(arg, arg) for arg in argv)) == expected


# Modules that a classify command never calls: it reads vectors or a Cartan matrix
# from its file, so it builds no realization and no matrix, derives no root datum
# and measures no Killing form.
NOT_CLASSIFY = {"liealg.roots", "liealg.forms", "liealg.catalog", "liealg.edges",
                "liealg.families", "liealg.weyl", "liealg.invariants", "liealg.polynomials"}


def test_classify_vectors_executes_the_axioms_and_no_derivation(vectors_file):
    executed = executed_by("classify", vectors_file)
    assert {"liealg.axioms", "liealg.matrices"} <= executed
    assert not executed & NOT_CLASSIFY, sorted(executed & NOT_CLASSIFY)


def test_classify_cartan_executes_neither_axioms_nor_derivation(cartan_file):
    executed = executed_by("classify", cartan_file)
    assert "liealg.dynkin" in executed
    unused = NOT_CLASSIFY | {"liealg.axioms"}
    assert not executed & unused, sorted(executed & unused)


def test_info_executes_the_derivation_but_neither_weyl_nor_axioms():
    executed = executed_by("info", "sl", "3")
    assert {"liealg.roots", "liealg.edges"} <= executed
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
