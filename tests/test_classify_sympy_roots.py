"""classify on the root lists of sympy's ``RootSystem(X).all_roots()``.

A3, B3, C3, D4 and F4 are root systems, and classify names them.  sympy's
G2 and E6 lists are not closed under reflections; classify reports the
first failing pair of each, and these texts are pinned so that a change in
how the axioms are checked cannot change what a failing file prints.
"""

import json

import pytest

from conftest import run_cli

sympy_root_system = pytest.importorskip("sympy.liealgebras.root_system")

G2_FAILURES = [
    "axiom reflection: FAIL (S_{2a1-a2-a3}(a1+a3) leaves the set)",
    "axiom integrality: FAIL (2<2a1-a2-a3,a1+a3>/<a,a> = 1/3)",
]
E6_FAILURES = [
    "axiom reflection: FAIL (S_{a1+a2}(1/2a1+1/2a2+1/2a3+1/2a4+1/2a5-1/2a6-1/2a7+1/2a8)"
    " leaves the set)",
    "axiom integrality: FAIL (2<1/2a1+1/2a2+1/2a3+1/2a4+1/2a5+1/2a6+1/2a7-1/2a8,"
    "1/2a1+1/2a2+1/2a3+1/2a4+1/2a5-1/2a6-1/2a7+1/2a8>/<a,a> = 1/2)",
]


def classify_sympy(name, tmp_path):
    roots = sympy_root_system.RootSystem(name).all_roots().values()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"vectors": [[str(c) for c in v] for v in roots]}),
                    encoding="utf-8")
    return run_cli(["classify", str(path)])


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "F4"])
def test_sympy_root_systems_pass_and_classify(name, tmp_path):
    code, out = classify_sympy(name, tmp_path)
    assert code == 0, out
    assert "FAIL" not in out
    assert f"classification: {name}\n" in out


@pytest.mark.parametrize("name,failures", [("G2", G2_FAILURES), ("E6", E6_FAILURES)])
def test_sympy_lists_that_are_not_root_systems_keep_their_fail_texts(name, failures, tmp_path):
    code, out = classify_sympy(name, tmp_path)
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line] == failures
    assert out.endswith("classification: failed root-system axioms (reflection, integrality)\n")
