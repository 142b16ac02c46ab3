"""What ``bench/traced.py`` relies on: right after ``import liealg.cli`` every
module it wraps is in ``sys.modules`` (executed or not), every function it
names resolves there, and every one of them has a caller in the package but
those that the API inventory pins in ``KEPT_UNCALLED``, which is the one place
a name is exempted."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_api_inventory import KEPT_UNCALLED

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "bench" / "traced.py"
PACKAGE = ROOT / "src" / "liealg"
ENV = {"PATH": os.defpath, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}

# Checks membership first, since a lookup executes a lazily registered module.
CONTRACT_PROBE = """
import sys
sys.path.insert(0, "bench")
import traced
import liealg.cli
named = [*traced.SPANNED.items(), *traced.COUNTED.items()]
missing = sorted({m for m, _ in named} - {k[len("liealg."):] for k in sys.modules})
assert not missing, missing
for module_name, functions in named:
    for function in functions:
        assert callable(getattr(sys.modules["liealg." + module_name], function)), function
"""


def run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=60)


def test_every_traced_module_is_registered_after_importing_the_cli():
    result = run("-c", CONTRACT_PROBE)
    assert result.returncode == 0, result.stderr


def test_traced_invariants_matches_plain_and_spans_build_suite(tmp_path):
    out = tmp_path / "layers.json"
    argv = ("invariants", "sl", "3")
    plain = run("-m", "liealg", *argv)
    traced = run(str(TRACED), str(out), *argv)
    assert (traced.returncode, traced.stdout, traced.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)
    assert plain.returncode == 0
    layers = json.loads(out.read_text())
    assert layers["invariants.build_suite_s"] > 0
    assert layers["invariants.check_invariance_s"] > 0


def test_traced_classify_matches_plain_and_spans_the_axiom_checks(tmp_path):
    """The tracer looks the axiom checks up as ``roots.verify_root_axioms``; the
    calls reach them in ``axioms``, which must be registered when it installs."""
    vectors = [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [1, -1], [-1, 1]]
    path = tmp_path / "b2.json"
    # A vector written twice, once in another form, counts once in the root set.
    path.write_text(json.dumps({"vectors": [*vectors, ["2/2", "0"]]}), encoding="utf-8")
    out = tmp_path / "layers.json"
    plain = run("-m", "liealg", "classify", str(path))
    traced = run(str(TRACED), str(out), "classify", str(path))
    assert (traced.returncode, traced.stdout, traced.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)
    assert plain.returncode == 0 and "classification: B2" in plain.stdout
    layers = json.loads(out.read_text())
    assert layers["roots.axiom_pairs"] == len(vectors) ** 2
    assert layers["roots.verify_root_axioms_s"] > 0


def test_traced_info_matches_plain_and_spans_the_killing_certificate(tmp_path):
    """``RootDatum.killing_metric`` reaches the certificate through
    ``forms.killing_coefficients``, and the three fundamental weights of sp_6
    are one ``solve_linear`` over one elimination.  The other two
    eliminations are the basis rank in ``build`` and the fundamental-root
    expansions in ``cartan_decompose``."""
    out = tmp_path / "layers.json"
    argv = ("info", "sp", "3")
    plain = run("-m", "liealg", *argv)
    traced = run(str(TRACED), str(out), *argv)
    assert (traced.returncode, traced.stdout, traced.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)
    assert plain.returncode == 0
    layers = json.loads(out.read_text())
    assert layers["forms.killing_coefficients_s"] > 0
    assert layers["matrices.solve_linear_calls"] == 1
    assert layers["matrices.span_solver_builds"] == 3


# Commands that run the moved code: the sl2 triples formed on demand, the Serre records in
# ``serre`` and the ad route in ``adjoint``, with the layers each must show above 0.
MOVED = [
    (("verify", "sp", "2", "sl2"), ("roots.verify_sl2_triple_s", "roots.cartan_decompose_s")),
    (("serre", "sp", "2"), ("dynkin.serre_presentation_s", "dynkin.verify_serre_s")),
    (("verify", "sp", "2", "killing"), ("forms.killing_coefficients_s",)),
]


@pytest.mark.parametrize("argv,layers", MOVED, ids=["sl2", "serre", "killing"])
def test_traced_runs_of_the_moved_code_match_plain(argv, layers, tmp_path):
    out = tmp_path / "layers.json"
    plain = run("-m", "liealg", *argv)
    traced = run(str(TRACED), str(out), *argv)
    assert (traced.returncode, traced.stdout, traced.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)
    assert plain.returncode == 0 and plain.stdout.endswith("result: PASS\n")
    values = json.loads(out.read_text())
    assert {name: values[name] > 0 for name in layers} == dict.fromkeys(layers, True)


def loads_outside_definitions() -> set[str]:
    """The names loaded in the package, as a Name or as an Attribute, outside the
    module-level function of the same name."""
    loads = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name != own:
                    loads.add(name)
    return loads


def test_every_traced_function_but_the_listed_ones_has_a_caller_in_the_package():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import traced
    finally:
        sys.path.remove(str(ROOT / "bench"))
    loads = loads_outside_definitions()
    named = {
        f"{module}.{function}"
        for module, functions in [*traced.SPANNED.items(), *traced.COUNTED.items()]
        for function in functions
    }
    uncalled = {name for name in named if name.rpartition(".")[2] not in loads}
    assert uncalled == KEPT_UNCALLED.keys() & named
