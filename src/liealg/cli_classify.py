"""The ``classify`` command: read a JSON file of root vectors or of a Cartan
matrix, check it, and name its simple type.

``cli.main`` imports this module only when it runs ``classify``; it is the
one command that reads JSON.
"""

from __future__ import annotations

import json
import sys

from . import axioms, dynkin
from .cli import (
    CHECK_FIELDS,
    MAX_VECTOR_DIGITS,
    MAX_VECTORS,
    SCHEMA,
    InputError,
    emit,
    format_matrix,
    render,
)
from .exact import Scalar, parse_rational
from .matrices import dot

AXIOM_FIELDS = CHECK_FIELDS[1:]


def _load_json(path: str) -> object:
    def unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
        """An object's members; a key given twice is an input error, not the last value."""
        obj: dict[str, object] = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"{path}: duplicate key {json.dumps(key)}")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # the one other failure: Python's int-conversion limit
        raise InputError(
            f"{path}: an integer literal has over {sys.get_int_max_str_digits()} digits"
        ) from exc


def _parse_vectors(data: object, path: str) -> list[tuple[Scalar, ...]]:
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: \"vectors\" must be a nonempty list of vectors")
    if len(data) > MAX_VECTORS:
        raise InputError(
            f"{path}: \"vectors\" holds {len(data)} vectors; at most {MAX_VECTORS} are accepted"
        )
    vectors = []
    width = None
    for row_index, row in enumerate(data, start=1):
        if not isinstance(row, list) or not row:
            raise InputError(f"{path}: vector {row_index} must be a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(f"{path}: vector {row_index} has length {len(row)}, expected {width}")
        coords = []
        for col_index, cell in enumerate(row, start=1):
            if isinstance(cell, bool) or not isinstance(cell, (int, str)):
                raise InputError(
                    f"{path}: vector {row_index} entry {col_index} must be an integer"
                    " or a rational string"
                )
            try:
                coords.append(parse_rational(str(cell)))
            except ValueError as exc:
                raise InputError(
                    f"{path}: vector {row_index} entry {col_index}: {exc}"
                ) from exc
        digits = sum(len(str(c.numerator)) + len(str(c.denominator)) for c in coords)
        if digits > MAX_VECTOR_DIGITS:
            raise InputError(
                f"{path}: vector {row_index} has {digits} digits;"
                f" at most {MAX_VECTOR_DIGITS} are accepted"
            )
        vectors.append(tuple(coords))
    return vectors


def _parse_cartan(data: object, path: str) -> dynkin.CartanMatrix:
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: \"cartan\" must be a nonempty square integer matrix")
    for row in data:
        if (
            not isinstance(row, list)
            or len(row) != len(data)
            or any(isinstance(x, bool) or not isinstance(x, int) for x in row)
        ):
            raise InputError(f"{path}: \"cartan\" must be a square integer matrix")
    try:
        return dynkin.CartanMatrix(data)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def cmd_classify(args) -> int:
    data = _load_json(args.path)
    keys = list(data) if isinstance(data, dict) else []
    if keys not in (["vectors"], ["cartan"]):
        raise InputError(
            f"{args.path}: expected a JSON object with exactly one key, \"vectors\" or"
            f" \"cartan\"; got keys: {', '.join(map(json.dumps, keys)) or 'none'}"
        )
    (kind,) = keys
    payload: dict[str, object] = {"schema": SCHEMA, "command": "classify", "input": kind}
    lines: list[str] = []
    vectors = None
    if kind == "vectors":
        vectors = _parse_vectors(data["vectors"], args.path)
        report = axioms.verify_root_axioms(vectors, dot)
        payload["axioms"], lines = render(
            report.results, "axiom {name}: {status} ({detail})", AXIOM_FIELDS
        )
        if not report.all_passed:
            failing = ", ".join(c.name for c in report.failures())
            lines.append(f"classification: failed root-system axioms ({failing})")
            payload["classification"] = None
            emit(args, payload, lines)
            return 1

    # Every way the input can fail to be a simple type raises ValueError here.
    try:
        if vectors is None:
            A = _parse_cartan(data["cartan"], args.path)
            lengths = dynkin.lengths_from_cartan(A)
        else:
            simple = axioms.simple_roots(vectors)
            A = dynkin.CartanMatrix(dynkin.cartan_entries(simple, dot))
            lengths = [dot(a, a) for a in simple]
        payload["cartan_matrix"] = [list(row) for row in A.entries]
        lines.append("cartan matrix:")
        lines.extend("  " + row for row in format_matrix(A.entries))
        diagram = dynkin.build_diagram(A)
        if not dynkin.check_positive_definite(A, lengths):
            raise ValueError("positive definiteness fails")
    except ValueError as exc:
        lines.append(f"classification: {dynkin.NOT_SIMPLE}: {exc}")
        payload["classification"] = dynkin.NOT_SIMPLE
        payload["reason"] = str(exc)
        emit(args, payload, lines)
        return 1

    names = dynkin.classify(diagram)
    classification = "+".join(names)
    payload["classification"] = classification
    payload["diagram"] = dynkin.ascii_diagram(diagram)
    lines.append(f"classification: {classification}")
    lines.extend(payload["diagram"].splitlines())
    emit(args, payload, lines)
    return 0 if dynkin.NOT_SIMPLE not in names else 1
