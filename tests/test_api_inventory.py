"""The runtime holds only what the package itself runs.

Every function and method defined in ``src/liealg`` (nested ones included)
must be loaded somewhere in ``src/liealg`` outside its own body, as a name
``f``, an attribute ``.f`` or a ``from`` import of ``f``, or be pinned in
``KEPT_UNCALLED`` with the reason it stays.  A helper that only tests or
demos call belongs in ``tests/`` or in the demo that prints it.  The check does not know the type
left of a dot, so a method passes when any attribute of its spelling is
loaded in the package.

Exempt: dunders, which Python calls, and ``cli_argparse._Parser.print_help``,
which argparse calls.
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liealg"

# Functions that nothing in the package loads, each with the reason it stays.
# Both are exported one-pair routes of the Killing form that ``bench/traced.py``
# spans by name, so they stay until it reads stages instead of wrapping functions.
KEPT_UNCALLED = {
    "forms.killing_form_ad": "the ad-trace route; `verify ... killing` reads cartan_killing_gram_ad",
    "forms.killing_form_roots": "the root-sum route; commands read RootDatum.killing_metric",
    "edges.EdgeMatrix.unit": "documented public API of EdgeMatrix",
}
EXEMPT = {"cli_argparse._Parser.print_help"}


def definitions(tree: ast.Module, prefix: str):
    """(qualified name, name, first line, last line) of every function defined in the tree."""
    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qualname}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    yield name, child.name, child.lineno, child.end_lineno
                yield from visit(child, name)
            else:
                yield from visit(child, qualname)

    yield from visit(tree, prefix)


def loads(tree: ast.Module):
    """(name, line) of every name and attribute loaded in the tree, and of every
    name a ``from`` import binds, which is how ``cli`` reaches its handlers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.end_lineno


TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}
LOADS = defaultdict(set)
for _module, _tree in TREES.items():
    for _name, _line in loads(_tree):
        LOADS[_name].add((_module, _line))
DEFINED = [(module, *found) for module, tree in TREES.items()
           for found in definitions(tree, module)]


def uncalled() -> set[str]:
    """The functions with no load outside their own body, dunders and exemptions left out."""
    return {
        qualified
        for module, qualified, name, first, last in DEFINED
        if not (name.startswith("__") and name.endswith("__")) and qualified not in EXEMPT
        and all(where == module and first <= line <= last for where, line in LOADS[name])
    }


def test_every_function_but_the_pinned_ones_is_loaded_in_the_package():
    extra = sorted(uncalled() - KEPT_UNCALLED.keys())
    assert not extra, f"defined in src/liealg, loaded nowhere there: {extra}"


def test_every_pinned_and_exempt_name_is_defined_and_uncalled():
    defined = {qualified for _, qualified, *_ in DEFINED}
    assert {*KEPT_UNCALLED, *EXEMPT} <= defined
    assert KEPT_UNCALLED.keys() <= uncalled()
