"""Every record of the package is a ``records.Record``.

This test parses every module of ``src/liealg`` and fails when a module
imports ``namedtuple``, when a class declares a non-empty ``__slots__``
without subclassing ``Record``, or when ``object.__setattr__`` appears
outside ``records.py``, whose ``Record.__init__`` is the one place a field
is set.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liealg"
MODULES = sorted(PACKAGE.glob("*.py"))
IDS = [path.name for path in MODULES]


def tree_of(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def base_names(cls: ast.ClassDef) -> set[str]:
    return {base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
            for base in cls.bases}


def declares_fields(cls: ast.ClassDef) -> bool:
    """Whether the class body assigns ``__slots__`` anything but an empty tuple."""
    for node in cls.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)):
            return not (isinstance(node.value, ast.Tuple) and not node.value.elts)
    return False


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_no_module_imports_namedtuple(path):
    nodes = list(ast.walk(tree_of(path)))
    imported = [alias.name for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    read = [node.attr for node in nodes if isinstance(node, ast.Attribute)]
    assert "namedtuple" not in imported + read, f"{path.name} uses namedtuple"


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_every_class_with_fields_is_a_record(path):
    loose = [cls.name for cls in ast.walk(tree_of(path))
             if isinstance(cls, ast.ClassDef) and declares_fields(cls)
             and "Record" not in base_names(cls)]
    assert not loose, f"{path.name}: __slots__ classes that are not records: {loose}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "records.py"],
                         ids=[name for name in IDS if name != "records.py"])
def test_only_records_set_fields_through_object(path):
    lines = [node.lineno for node in ast.walk(tree_of(path))
             if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
             and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert not lines, f"{path.name}: object.__setattr__ on lines {lines}"
