"""The oracle accepts the program's real outputs and rejects tampered ones."""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import textbook as tb  # noqa: E402
import workloads  # noqa: E402
from liealg import cli  # noqa: E402


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def info(family, n, fmt, max_order=None):
    return workloads._info(family, n, fmt, max_order)


def verify(family, n, suite, fmt):
    return workloads._verify(family, n, suite, fmt)


def classify_file(tmp_path, name, payload, expect, text=None, fmt="text"):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if text is None else text)
    argv = ("classify", str(path)) + (("--format", "json") if fmt == "json" else ())
    return workloads.Command(argv, dict(expect, kind="classify", format=fmt))


def accepted(command):
    code, out, err = run_cli(command.argv)
    return oracle.check(command.expect, code, out, err), (code, out, err)


def rejects(command, code, out, err):
    with pytest.raises(oracle.Mismatch):
        oracle.check(command.expect, code, out, err)


@pytest.mark.parametrize("command,skips", [
    (info("sl", 3, "text"), 0),
    (info("so-even", 4, "json"), 0),
    (info("so-odd", 3, "text", 100_000), 0),
    (info("sp", 3, "json", 20), 1),
    (info("so-even", 4, "text", 100), 1),
    (verify("sp", 2, "all", "text"), 0),
    (verify("so-even", 3, "all", "json"), 0),
    (verify("sl", 6, "invariants", "text"), 1),
    (workloads._invariants("sp", 3, "json"), 0),
    (workloads._invariants("so-odd", 5, "text"), 1),
])
def test_real_outputs_pass(command, skips):
    assert accepted(command)[0] == skips


def test_real_classify_outputs_pass(tmp_path):
    rng = random.Random(0)
    good = classify_file(tmp_path, "g2.json",
                         {"vectors": workloads._transformed_vectors(rng, tb.root_system("G", 2))},
                         {"case": "vectors", "types": [["G", 2]], "exit": 0}, fmt="json")
    matrix = workloads._relabelled(rng, [tb.textbook_cartan("B", 3), tb.textbook_cartan("G", 2)])
    cartan = classify_file(tmp_path, "sum.json", {"cartan": matrix},
                           {"case": "cartan", "types": [["B", 3], ["G", 2]], "matrix": matrix,
                            "exit": 0})
    rows = workloads._transformed_vectors(rng, tb.root_system("B", 3))[1:]
    dropped = classify_file(tmp_path, "drop.json", {"vectors": rows},
                            {"case": "dropped_root", "exit": 1})
    affine = classify_file(tmp_path, "affine.json", {"cartan": workloads._affine_cartan(rng)},
                           {"case": "affine", "exit": 1}, fmt="json")
    truncated = classify_file(tmp_path, "cut.json", {}, {"case": "truncated", "exit": 2},
                              text='{"cartan": [[2, -1], [-1')
    for command in (good, cartan, dropped, affine, truncated):
        assert accepted(command)[0] == 0


def test_wrong_cartan_entry_is_rejected():
    command = info("so-even", 4, "json")
    _, (code, out, err) = accepted(command)
    doc = json.loads(out)
    doc["cartan_matrix"][1][3] = -2
    rejects(command, code, json.dumps(doc), err)

    text = info("sp", 3, "text")
    _, (code, out, err) = accepted(text)
    assert "  [ 0 -2  2]" in out
    rejects(text, code, out.replace("  [ 0 -2  2]", "  [ 0 -1  2]"), err)


def test_wrong_killing_coefficient_and_root_are_rejected():
    command = info("sl", 4, "text")
    _, (code, out, err) = accepted(command)
    rejects(command, code, out.replace("8*sum", "6*sum"), err)
    assert "positive roots: a1-a4, " in out
    rejects(command, code, out.replace("positive roots: a1-a4, ", "positive roots: a1+a4, "), err)


def test_extra_skip_is_rejected():
    command = verify("sp", 2, "all", "text")
    _, (code, out, err) = accepted(command)
    line = "invariants: jacobian criterion: PASS (exact Jacobian determinant is nonzero)"
    assert line in out
    rejects(command, code, out.replace(line, line.replace("PASS", "SKIP")), err)

    weyl = verify("so-odd", 3, "weyl", "json")
    _, (code, out, err) = accepted(weyl)
    doc = json.loads(out)
    doc["checks"][0]["status"] = "skip"
    rejects(weyl, code, json.dumps(doc), err)


def test_missing_check_and_failed_result_are_rejected():
    command = verify("sl", 3, "serre", "text")
    _, (code, out, err) = accepted(command)
    lines = out.splitlines()
    rejects(command, code, "\n".join(lines[1:]) + "\n", err)
    rejects(command, code, out.replace("result: PASS", "result: FAIL"), err)


def test_wrong_exit_code_and_traceback_are_rejected(tmp_path):
    command = info("sl", 3, "text")
    _, (code, out, err) = accepted(command)
    rejects(command, 1, out, err)
    rejects(command, code, out, "Traceback (most recent call last):\n")

    rows = workloads._transformed_vectors(random.Random(1), tb.root_system("A", 2))[1:]
    dropped = classify_file(tmp_path, "drop.json", {"vectors": rows},
                            {"case": "dropped_root", "exit": 1})
    _, (code, out, err) = accepted(dropped)
    rejects(dropped, 0, out, err)


def test_wrong_classification_is_rejected(tmp_path):
    rows = workloads._transformed_vectors(random.Random(2), tb.root_system("C", 3))
    command = classify_file(tmp_path, "c3.json", {"vectors": rows},
                            {"case": "vectors", "types": [["C", 3]], "exit": 0})
    _, (code, out, err) = accepted(command)
    assert "classification: C3" in out
    rejects(command, code, out.replace("classification: C3", "classification: B3"), err)
