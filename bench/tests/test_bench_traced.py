"""The traced child runs a command unchanged and reports self times and counts."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import traced  # noqa: E402


def test_self_time_excludes_child_spans():
    tracer = traced.Tracer()
    clock = iter([0.0, 1.0, 3.0, 10.0])  # outer start, inner start, inner end, outer end
    traced.perf_counter, saved = (lambda: next(clock)), traced.perf_counter
    try:
        inner = tracer.span("m.inner", lambda: None)
        tracer.span("m.outer", inner)()
    finally:
        traced.perf_counter = saved
    times = tracer.self_times()
    assert times["m.inner_s"] == 2.0
    assert times["m.outer_s"] == 8.0
    assert tracer.counts["m.inner_calls"] == tracer.counts["m.outer_calls"] == 1


def _run(prefix, argv, tmp_path):
    env = {"PATH": os.defpath, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *prefix, *argv], cwd=BENCH.parent, env=env,
                          capture_output=True, text=True, timeout=60)


def test_traced_command_matches_plain_and_counts_layers(tmp_path):
    out = tmp_path / "layers.json"
    argv = ["verify", "sp", "2", "all"]
    plain = _run(["-m", "liealg"], argv, tmp_path)
    wrapped = _run([str(BENCH / "traced.py"), str(out)], argv, tmp_path)
    assert (wrapped.returncode, wrapped.stdout, wrapped.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)
    layers = json.loads(out.read_text())
    assert layers["catalog.basis_elements"] == 10  # dim sp_4
    assert layers["roots.roots"] == 8
    assert layers["roots.axiom_pairs"] == 64
    assert layers["roots.sl2_triples"] == 8
    assert layers["weyl.elements"] == 8
    assert layers["forms.inner_calls"] > 0 and layers["forms.inner_s"] > 0
    assert layers["cli.import_s"] > 0
    assert set(layers) == {"cli.import_s", *traced.TIME_METRICS, *traced.COUNT_METRICS}


def test_overflow_counts_discarded_elements(tmp_path):
    out = tmp_path / "layers.json"
    wrapped = _run([str(BENCH / "traced.py"), str(out)],
                   ["info", "sl", "5", "--enumerate-weyl", "--max-order", "50"], tmp_path)
    assert wrapped.returncode == 0 and "skipped" in wrapped.stdout
    layers = json.loads(out.read_text())
    assert layers["weyl.elements"] == 0
    assert layers["weyl.elements_discarded"] == 51
