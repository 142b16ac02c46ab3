"""Every public module-level name and class member in the package has a reader.

A name bound at module level in ``src/liealg/*.py`` (a function, a class or
an assignment) without a leading underscore must be read somewhere outside
its own definition, in ``src/``, ``tests/``, ``demos/`` or ``bench/``, or
be exported in ``liealg.__all__``.  A public method or property of a public
class (dunders excluded) must likewise be read outside its own body.  A read
is a NAME token, so a mention in a comment or a docstring does not count.
"""

import ast
import tokenize
from collections import defaultdict
from pathlib import Path

import pytest

import liealg

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liealg"
SEARCHED = ("src", "tests", "demos", "bench")


def definitions(path: Path):
    """(name, first line, last line) of each public module-level binding."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def name_tokens() -> dict[str, set[tuple[Path, int]]]:
    """Where each NAME token occurs: {name: {(file, line)}} over the searched trees."""
    where = defaultdict(set)
    for tree in SEARCHED:
        for path in sorted((ROOT / tree).rglob("*.py")):
            with path.open("rb") as f:
                for token in tokenize.tokenize(f.readline):
                    if token.type == tokenize.NAME:
                        where[token.string].add((path, token.start[0]))
    return where


def members(path: Path):
    """(Class.name, name, first line, last line) of each public method of a public class."""
    for cls in ast.parse(path.read_text()).body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not node.name.startswith("_"):
                        yield f"{cls.name}.{node.name}", node.name, node.lineno, node.end_lineno


NAME_TOKENS = name_tokens()


def has_reader(name: str, path: Path, first: int, last: int) -> bool:
    return any(
        not (file == path and first <= line <= last) for file, line in NAME_TOKENS.get(name, ())
    )


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_public_name_is_read(module):
    path = PACKAGE / module
    unread = [
        name
        for name, first, last in definitions(path)
        if not has_reader(name, path, first, last) and name not in liealg.__all__
    ]
    assert not unread, f"{module}: public names with no reader: {unread}"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_public_member_is_read(module):
    path = PACKAGE / module
    unread = [
        qualified
        for qualified, name, first, last in members(path)
        if not has_reader(name, path, first, last)
    ]
    assert not unread, f"{module}: public members with no reader: {unread}"
