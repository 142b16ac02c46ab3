"""The README's Layout block names every module of the package, and only those,
and its Library API list names every export, and only those.

The fenced block under ``## Layout`` lists ``src/liealg/`` and then one
indented line per module, the file name first.  A module with no line there,
or a line for a file that does not exist, fails the test.  Under
``## Library API`` each export has one bullet that starts with its name in
backticks.
"""

import re
from pathlib import Path

import liealg

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liealg"


def layout_modules(readme: str) -> list[str]:
    """The file names on the indented lines under ``src/liealg/`` in the Layout block."""
    section = readme.split("\n## Layout\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.S | re.M).group(1)
    lines = block.splitlines()
    start = lines.index("src/liealg/") + 1
    names = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        names.append(line.split()[0])
    return names


def test_the_layout_block_names_each_module_once():
    listed = layout_modules((ROOT / "README.md").read_text(encoding="utf-8"))
    modules = sorted(path.name for path in PACKAGE.glob("*.py"))
    assert len(listed) == len(set(listed)), "a module has two lines"
    assert sorted(listed) == modules, (
        f"no Layout line: {sorted(set(modules) - set(listed))}; "
        f"no such module: {sorted(set(listed) - set(modules))}"
    )


def test_the_library_api_list_names_each_export_once():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)", section, re.M)
    assert len(listed) == len(set(listed)), "an export has two lines"
    assert sorted(listed) == liealg.__all__
