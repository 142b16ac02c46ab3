"""What ``bench/traced.py`` relies on: right after ``import liealg.cli`` every
module it wraps is in ``sys.modules`` (executed or not), and every function it
names resolves there."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "bench" / "traced.py"
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
