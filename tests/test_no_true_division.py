"""No true division and no float in the package source.

Under the scalar rule an integral value is a Python int, so ``a / b`` on two
such values silently yields a float.  The one exact quotient is
``exact.ratio``; this test parses every module of ``src/liealg`` and fails on
any ``/`` or ``/=`` and on any call of ``float``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liealg"
MODULES = sorted(PACKAGE.glob("*.py"))


def float_creep(tree: ast.AST) -> list[str]:
    """Each true division and float call in the tree, as "line: what"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float call"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_the_guard_sees_each_form():
    source = "a / b\nx /= 2\nfloat(x)\na // b\nFraction(a, b)\n"
    assert float_creep(ast.parse(source)) == [
        "1: true division", "2: true division", "3: float call",
    ]


def test_modules_are_found():
    assert {"exact.py", "matrices.py", "roots.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_true_division_or_float(path):
    assert float_creep(ast.parse(path.read_text(encoding="utf-8"))) == []
