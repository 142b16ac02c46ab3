"""Every public module-level name and class member in the package has a reader.

A name bound at module level in ``src/liealg/*.py`` (a function, a class or
an assignment) without a leading underscore must be read somewhere outside
its own definition, in ``src/``, ``tests/``, ``demos/`` or ``bench/``, or
be exported in ``liealg.__all__``.  Such a read is a NAME token, so a
mention in a comment or a docstring does not count.

A public member of a public class (a method, a property or an annotated
field such as a dataclass field; dunders excluded) must likewise be read
outside its own definition.  A member read is an attribute load ``.name``,
or a string ``"name"`` in ``bench/``, whose tracer looks functions up with
``getattr``; a bare NAME token of the same spelling (a local variable, a
keyword argument, a helper of the same name) does not count.  The check does
not know the type of the object left of the dot, so a member whose name is
also loaded as an attribute of another type (``rank``, ``family``) passes
even when nothing reads it on its own class.
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
# The tree whose string constants count as member reads.
GETATTR_TREE = ROOT / "bench"


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


def searched_files():
    for tree in SEARCHED:
        yield from sorted((ROOT / tree).rglob("*.py"))


def name_tokens() -> dict[str, set[tuple[Path, int]]]:
    """Where each NAME token occurs: {name: {(file, line)}} over the searched trees."""
    where = defaultdict(set)
    for path in searched_files():
        with path.open("rb") as f:
            for token in tokenize.tokenize(f.readline):
                if token.type == tokenize.NAME:
                    where[token.string].add((path, token.start[0]))
    return where


def member_reads() -> dict[str, set[tuple[Path, int]]]:
    """Where each attribute is loaded, or named by a string in bench/: {name: {(file, line)}}."""
    where = defaultdict(set)
    for path in searched_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                where[node.attr].add((path, node.end_lineno))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and GETATTR_TREE in path.parents):
                where[node.value].add((path, node.lineno))
    return where


def members(path: Path):
    """(Class.name, name, first line, last line) of each public member of a public class."""
    for cls in ast.parse(path.read_text()).body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{cls.name}.{name}", name, node.lineno, node.end_lineno


NAME_TOKENS = name_tokens()
MEMBER_READS = member_reads()


def has_reader(where, name: str, path: Path, first: int, last: int) -> bool:
    return any(
        not (file == path and first <= line <= last) for file, line in where.get(name, ())
    )


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_public_name_is_read(module):
    path = PACKAGE / module
    unread = [
        name
        for name, first, last in definitions(path)
        if not has_reader(NAME_TOKENS, name, path, first, last) and name not in liealg.__all__
    ]
    assert not unread, f"{module}: public names with no reader: {unread}"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_public_member_is_read(module):
    path = PACKAGE / module
    unread = [
        qualified
        for qualified, name, first, last in members(path)
        if not has_reader(MEMBER_READS, name, path, first, last)
    ]
    assert not unread, f"{module}: public members with no reader: {unread}"
