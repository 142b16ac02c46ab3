"""No module-level import in the package runs a sibling only to annotate with it.

``import liealg`` registers every library module unexecuted, and a module
runs on its first attribute access (``liealg/__init__``).  A module-level
``from .x import name`` reads ``name`` from ``x``, so it executes ``x`` as
soon as the importing module runs.  Every module has
``from __future__ import annotations``, so an annotation is never
evaluated: a sibling needed only for annotations, or only in some
functions, is bound with ``from . import x`` and read as ``x.name``, which
leaves ``x`` unexecuted until something calls into it.

This test parses every module of ``src/liealg`` and fails on a module-level
``from .x import ...`` none of whose names is read outside an annotation.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liealg"
MODULES = sorted(PACKAGE.glob("*.py"))


def annotations(tree: ast.AST):
    """Every annotation in the tree: of arguments, of returns and of annotated names."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def names_read_outside_annotations(tree: ast.Module) -> set[str]:
    inside = {id(n) for annotation in annotations(tree) for n in ast.walk(annotation)}
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in inside
    }


def annotation_only_imports(tree: ast.Module) -> list[str]:
    """Each module-level ``from .x import ...`` that binds no name read outside an
    annotation, as "line: statement"."""
    read = names_read_outside_annotations(tree)
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            bound = [alias.asname or alias.name for alias in node.names]
            if not read.intersection(bound):
                found.append(f"{node.lineno}: from .{node.module} import {', '.join(bound)}")
    return found


def test_the_guard_sees_each_form():
    source = (
        "from __future__ import annotations\n"
        "from . import e\n"
        "from .a import A\n"
        "from .b import B, c\n"
        "from .d import D as Dee\n"
        "from .f import F\n"
        "class K:\n"
        "    field: A = None\n"
        "    other: F\n"
        "def g(x: A, *y: e.E, **z: F) -> B:\n"
        "    return c(x) + Dee\n"
    )
    assert annotation_only_imports(ast.parse(source)) == [
        "3: from .a import A", "6: from .f import F",
    ]


def test_modules_are_found():
    assert {"axioms.py", "cli.py", "roots.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_import_serves_only_annotations(path):
    assert annotation_only_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
