"""Every narrative script in demos/ runs to completion and prints what it printed
when its output was last pinned.

``golden/demo_digests.json`` maps each demo's file name to the SHA-256 of its
stdout.  A change meant to leave the demos' output alone keeps every digest; a
change that moves it on purpose says why and writes the manifest again from
the commit whose output is the reference:

    PYTHONPATH=src python tests/test_demos.py > tests/golden/demo_digests.json
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MANIFEST = Path(__file__).parent / "golden" / "demo_digests.json"


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        env=src_env(),
        timeout=120,
    )


def test_manifest_lists_every_demo():
    assert sorted(json.loads(MANIFEST.read_text(encoding="utf-8"))) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero_with_the_pinned_stdout(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr.decode()
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))[demo.name]
    assert hashlib.sha256(result.stdout).hexdigest() == expected


if __name__ == "__main__":
    print(json.dumps(
        {d.name: hashlib.sha256(run_demo(d).stdout).hexdigest() for d in DEMOS}, indent=1))
