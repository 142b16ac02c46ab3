"""How a liealg process ends: every entry point runs ``cli.entry``, which freezes
the garbage collector after ``cli.main`` returns or raises, and exits with its code.

A probe registers an atexit hook that prints ``gc.get_freeze_count()`` and runs
the package as ``python -m liealg`` does, in the environment of a benchmark
child.  The count is above 0 whatever the exit: a pass, a failed check, a bad
file, a usage error and help.  A caller of ``cli.main`` in process keeps a
collecting collector with nothing frozen.
"""

import ast
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from conftest import CHILD_ENV
from liealg import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liealg"

EXIT_PROBE = """
import atexit, gc, runpy
atexit.register(lambda: print(f"freeze count: {gc.get_freeze_count()}"))
runpy.run_module("liealg", run_name="__main__")
"""


def exit_of(*argv: str) -> tuple[int, int]:
    """The exit code of ``python -m liealg ARGV`` and the collector's freeze count at exit."""
    result = subprocess.run([sys.executable, "-c", EXIT_PROBE, *argv], cwd=ROOT,
                            env=CHILD_ENV, capture_output=True, text=True)
    assert "Traceback" not in result.stderr, result.stderr
    last = result.stdout.splitlines()[-1]
    assert last.startswith("freeze count: "), result.stdout
    return result.returncode, int(last.removeprefix("freeze count: "))


@pytest.fixture(scope="module")
def affine_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("exit") / "affine_a2.json"
    path.write_text('{"cartan": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}', encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv,code", [
    pytest.param(("info", "sl", "3"), 0, id="pass"),
    pytest.param(("classify", "@affine"), 1, id="affine-cartan"),
    pytest.param(("classify", "@missing"), 2, id="missing-file"),
    pytest.param(("serre", "sl", "x"), 2, id="usage-error"),
    pytest.param(("--help",), 0, id="help"),
])
def test_the_process_exits_with_the_collector_frozen(argv, code, affine_file, tmp_path):
    files = {"@affine": affine_file, "@missing": str(tmp_path / "missing.json")}
    returncode, frozen = exit_of(*(files.get(arg, arg) for arg in argv))
    assert returncode == code
    assert frozen > 0


LIBRARY_PROBE = """
import gc
from liealg.cli import main
print(main(["info", "sl", "3", "--format", "json"]), gc.get_freeze_count(), gc.isenabled())
"""


def test_a_library_caller_of_main_keeps_a_collecting_collector():
    result = subprocess.run([sys.executable, "-c", LIBRARY_PROBE], cwd=ROOT, env=CHILD_ENV,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "0 0 True"


def called_names(body: list[ast.stmt]) -> list[str]:
    """The names called by the expression statements of a block."""
    return [node.value.func.id for node in body if isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)]


def test_every_entry_point_runs_the_one_entry_function():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, function = scripts["project"]["scripts"]["liealg"].split(":")
    assert (module, function) == ("liealg.cli", cli.entry.__name__)

    main_module = ast.parse((PACKAGE / "__main__.py").read_text(encoding="utf-8"))
    imported = {(node.module, alias.name) for node in main_module.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    assert ("cli", function) in imported
    assert called_names(main_module.body) == [function]

    cli_module = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    [guard] = [node for node in cli_module.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert called_names(guard.body) == [function]
