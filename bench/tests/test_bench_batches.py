"""The benchmark's batches are a pure function of the seed, and its tables are sound."""

from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import textbook as tb  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from oracle import _determinant  # noqa: E402


def _snapshot(batch: workloads.Batch) -> str:
    return json.dumps(
        {
            "commands": [[list(c.argv), c.expect] for c in batch.commands],
            "warmup": list(batch.warmup.argv),
            "files": batch.files,
            "orders": [batch.round_order(k) for k in range(3)],
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_batch_other_seed_other_batch(workload):
    first = _snapshot(workloads.generate(workload, 7, "work"))
    assert _snapshot(workloads.generate(workload, 7, "work")) == first
    assert _snapshot(workloads.generate(workload, 8, "work")) != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_distinct_commands_and_enough_for_the_tail(workload):
    batch = workloads.generate(workload, 3, "work")
    argvs = [c.argv for c in batch.commands]
    assert len(set(argvs)) == len(argvs)
    # Whole rounds run until MIN_COMMANDS; ten samples must lie beyond the tail.
    assert run.MIN_COMMANDS * (100 - run.TAIL_PERCENTILE) / 100 >= 10


def test_recorded_mix():
    assert workloads.generate("derive", 1, "w").shares == {"json": 0.5}
    assert workloads.generate("verify", 1, "w").shares == {"all": 0.5}
    classify = workloads.generate("classify", 1, "w")
    cases = Counter(c.expect["case"] for c in classify.commands)
    assert cases == {"vectors": 17, "cartan": 4, "dropped_root": 1, "affine": 1, "truncated": 1}
    assert classify.shares == {"negative": 3 / 24}
    group = workloads.generate("group", 1, "w")
    over = [c for c in group.commands if c.expect["kind"] == "info"
            and tb.weyl_order(*tb.family_type(c.expect["family"], c.expect["n"]))
            > c.expect["max_order"]]
    assert group.shares == {"over_cap": len(over) / len(group.commands)}


def test_classify_files_are_transformed_root_systems():
    batch = workloads.generate("classify", 5, "work")
    for command in batch.commands:
        if command.expect["case"] != "vectors":
            continue
        name = command.argv[1].split("/")[-1]
        rows = [tuple(Fraction(str(x)) for x in row)
                for row in json.loads(batch.files[name])["vectors"]]
        (letter, r), = command.expect["types"]
        original = tb.root_system(letter, r)
        assert len(set(rows)) == len(rows) == len(original)
        assert {tuple(-x for x in row) for row in rows} == set(rows)

        def norm_ratios(vectors):
            norms = sorted(tb.dot(v, v) for v in vectors)
            return [x / norms[0] for x in norms]

        assert norm_ratios(rows) == norm_ratios(original)


@pytest.mark.parametrize("letter,r", [("A", 4), ("B", 5), ("C", 3), ("D", 6), ("E", 6),
                                      ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
def test_textbook_tables_agree(letter, r):
    roots = set(tb.root_system(letter, r))
    simple = tb.simple_roots(letter, r) if letter != "E" or r == 8 else None
    cartan = tb.textbook_cartan(letter, r)
    assert _determinant(cartan) == tb.cartan_determinant(letter, r)
    if simple is not None:
        assert set(simple) <= roots
        assert tb.cartan_from_simple_roots(simple) == cartan


def test_family_closed_forms_are_consistent():
    for family in tb.FAMILIES:
        for n in (3, 4, 5):
            letter, r = tb.family_type(family, n)
            simple = tb.family_simple_roots(family, n)
            coroots = tb.family_simple_coroots(family, n)
            weights = tb.family_fundamental_weights(family, n)
            assert len(tb.family_roots(family, n)) == tb.ROOT_COUNTS[letter](r)
            assert [[tb.dot(w, h) for h in coroots] for w in weights] == [
                [int(i == j) for j in range(r)] for i in range(r)]
            assert tb.cartan_from_simple_roots(simple) == tb.textbook_cartan(letter, r)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    sample = run.Sample(0.2, 18_000, 0, "", "")
    result = {"samples": [sample] * 4, "references": [0.1] * 4, "traced": [sample] * 4,
              "layers": [{}] * 4, "wall_s": 1.0}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(result, 0.1))
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer(result))
    units = {name: unit for name, (_, unit) in
             {**run.end_to_end(result, 0.1), **run.per_layer(result)}.items()}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == units[metric["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(traced.TIME_METRICS) | set(traced.COUNT_METRICS) <= set(units)


def test_unreadable_output_is_a_failed_command():
    command = workloads._info("sl", 3, "json")
    sample = run.Sample(0.1, 1000, 0, json.dumps({"schema": "liealg/1", "dynkin": 5}), "")
    error, skips = run.judge(command, sample)
    assert error and "unreadable output" in error and skips == 0
