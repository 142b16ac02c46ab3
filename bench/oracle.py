"""Checks one command's exit code and output against closed forms.

The expected values come from ``textbook.py`` and from the generator's
record of the files it wrote; nothing here reads the program's own results
back as truth.  A ``skip`` is accepted only where the program is known to
emit one: the Jacobian criterion above Lie rank 4, and Weyl enumeration
over ``--max-order``.  Any other skip, a missing or extra check name, a
traceback or a wrong exit code fails the command.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction

import textbook as tb

JACOBIAN_MAX_RANK = 4
DEFAULT_MAX_ORDER = 100_000
AXIOM_NAMES = ("spanning", "euclidean", "multiples", "reflection", "integrality")


class Mismatch(Exception):
    """The output disagrees with the oracle."""


def check(expect: dict, exit_code: int, stdout: str, stderr: str) -> int:
    """Raise Mismatch if the output is wrong; return the number of skips it reports."""
    if "Traceback" in stderr:
        raise Mismatch("traceback on stderr")
    want = expect.get("exit", 0)
    if exit_code != want:
        raise Mismatch(f"exit code {exit_code}, expected {want}")
    if want == 0 and stderr.strip():
        raise Mismatch(f"unexpected stderr: {stderr.strip()[:200]}")
    return CHECKERS[expect["kind"]](expect, stdout, stderr)


def _expect_equal(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def _json(stdout: str) -> dict:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != "liealg/1":
        raise Mismatch("missing schema liealg/1")
    return doc


def _lines(stdout: str) -> dict[str, str]:
    """Text output as `key: value` pairs (first occurrence wins)."""
    out: dict[str, str] = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def _field(fields: dict[str, str], key: str) -> str:
    if key not in fields:
        raise Mismatch(f"missing line {key!r}")
    return fields[key]


def _vector(cells) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(str(c).strip()) for c in cells)
    except (ValueError, ZeroDivisionError) as exc:
        raise Mismatch(f"not an exact vector: {cells!r}") from exc


def _tuples(text: str) -> list[tuple[Fraction, ...]]:
    """Parse "(1, -1, 0); (0, 1/2, 0)"."""
    return [_vector(part.strip().strip("()").split(",")) for part in text.split(";")]


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?a(\d+)")


def _weight(text: str, n: int) -> tuple[Fraction, ...]:
    """Parse a weight printed in the symbols a1..an, such as "-a1+2a3"."""
    coords = [Fraction(0)] * n
    pos = 0
    for match in _TERM.finditer(text):
        if match.start() != pos:
            break
        sign, coeff, index = match.groups()
        k = int(index) - 1
        if not 0 <= k < n:
            raise Mismatch(f"coordinate a{index} out of range in {text!r}")
        coords[k] += (-1 if sign == "-" else 1) * Fraction(coeff or 1)
        pos = match.end()
    if pos != len(text) or not text:
        raise Mismatch(f"not a weight: {text!r}")
    return tuple(coords)


def format_weight(w) -> str:
    """The documented output convention: a1-a2, 2a3, -a1+a2."""
    parts = []
    for i, c in enumerate(w, start=1):
        if not c:
            continue
        term = f"a{i}" if c == 1 else f"-a{i}" if c == -1 else f"{c}a{i}"
        parts.append(term if not parts or term.startswith("-") else "+" + term)
    return "".join(parts) or "0"


def _matrix_rows(stdout: str, header: str) -> list[list[int]]:
    lines = stdout.splitlines()
    if header not in lines:
        raise Mismatch(f"missing {header!r}")
    rows = []
    for line in lines[lines.index(header) + 1:]:
        stripped = line.strip()
        if not (stripped.startswith("[") and stripped.endswith("]")):
            break
        try:
            rows.append([int(x) for x in stripped[1:-1].split()])
        except ValueError as exc:
            raise Mismatch(f"bad matrix row {line!r}") from exc
    return rows


def _as_int(text, what: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError) as exc:
        raise Mismatch(f"{what}: not an integer: {text!r}") from exc


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------


def _check_info(expect: dict, stdout: str, stderr: str) -> int:
    family, n, cap = expect["family"], expect["n"], expect["max_order"]
    letter, r = tb.family_type(family, n)
    order = tb.weyl_order(letter, r)
    if expect["format"] == "json":
        doc = _json(stdout)
        got = {
            "algebra": doc.get("algebra"),
            "realization_dim": doc.get("realization_dim"),
            "lie_rank": doc.get("lie_rank"),
            "dimension": doc.get("dimension"),
            "num_roots": doc.get("num_roots"),
            "positive_roots": Counter(_vector(v) for v in doc.get("positive_roots", [])),
            "fundamental_roots": [_vector(v) for v in doc.get("fundamental_roots", [])],
            "fundamental_coroots": [_vector(v) for v in doc.get("fundamental_coroots", [])],
            "fundamental_weights": [_vector(v) for v in doc.get("fundamental_weights", [])],
            "cartan_matrix": doc.get("cartan_matrix"),
            "classification": doc.get("dynkin", {}).get("classification"),
            "weyl_order_formula": doc.get("weyl_order_formula"),
            "killing": (doc.get("killing", {}).get("sum_coefficient"),
                        doc.get("killing", {}).get("trace_coefficient")),
        }
        enumerated = doc.get("weyl_order_enumerated", "absent")
        note = doc.get("weyl_enumeration_note", "")
    else:
        f = _lines(stdout)
        algebra = _field(f, "algebra").split(" ")[0]
        killing = re.fullmatch(
            r"(\S+)\*sum\(x_i\*y_i\) = (\S+)\*tr\(xy\)", _field(f, "killing form on cartan"))
        if not killing:
            raise Mismatch("malformed killing line")
        got = {
            "algebra": algebra,
            "realization_dim": _as_int(_field(f, "realization dim"), "realization dim"),
            "lie_rank": _as_int(_field(f, "lie rank"), "lie rank"),
            "dimension": _as_int(_field(f, "dimension"), "dimension"),
            "num_roots": _as_int(_field(f, "roots"), "roots"),
            "positive_roots": Counter(
                _weight(w, n) for w in _field(f, "positive roots").split(", ")),
            "fundamental_roots": [_weight(w, n) for w in _field(f, "fundamental roots").split(", ")],
            "fundamental_coroots": _tuples(_field(f, "fundamental coroots")),
            "fundamental_weights": _tuples(_field(f, "fundamental weights")),
            "cartan_matrix": _matrix_rows(stdout, "cartan matrix:"),
            "classification": _field(f, "dynkin diagram"),
            "weyl_order_formula": _as_int(_field(f, "weyl order (formula)"), "weyl order"),
            "killing": killing.groups(),
        }
        enumerated = f.get("weyl order (enumerated)", "absent")
        note = ""
        if enumerated.startswith("skipped; "):
            note, enumerated = enumerated[len("skipped; "):], None
        elif enumerated != "absent":
            enumerated = _as_int(enumerated, "weyl order (enumerated)")

    roots = tb.family_roots(family, n)
    want = {
        "algebra": tb.family_algebra_name(family, n),
        "realization_dim": tb.family_realization_dim(family, n),
        "lie_rank": r,
        "dimension": tb.family_dimension(family, n),
        "num_roots": len(roots),
        "positive_roots": Counter(v for v in roots if tb.is_lex_positive(v)),
        "fundamental_roots": tb.family_simple_roots(family, n),
        "fundamental_coroots": tb.family_simple_coroots(family, n),
        "fundamental_weights": tb.family_fundamental_weights(family, n),
        "cartan_matrix": tb.textbook_cartan(letter, r),
        "classification": tb.canonical_name(letter, r),
        "weyl_order_formula": order,
        "killing": (str(tb.killing_sum_coefficient(family, n)),
                    str(tb.killing_trace_coefficient(family, n))),
    }
    for key, value in want.items():
        _expect_equal(key, got[key], value)

    if cap is None:
        _expect_equal("weyl order (enumerated)", enumerated, "absent")
        return 0
    if order <= cap:
        _expect_equal("weyl order (enumerated)", enumerated, order)
        return 0
    _expect_equal("weyl order (enumerated)", enumerated, None)
    _expect_equal("enumeration note", note, f"order {order} exceeds --max-order {cap}")
    return 1


# ---------------------------------------------------------------------------
# verify and invariants
# ---------------------------------------------------------------------------


def _serre_names(A: list[list[int]]) -> list[str]:
    """Relations of the presentation over P = A^T, with P_ij = a_j(h_i)."""
    r = len(A)
    P = [[A[j][i] for j in range(r)] for i in range(r)]
    pairs = [(i, j) for i in range(1, r + 1) for j in range(1, r + 1)]
    names = [f"[H{i},H{j}] = 0" for i, j in pairs if i < j]
    names += [f"[X{i},Y{i}] = H{i}" for i in range(1, r + 1)]
    names += [f"[X{i},Y{j}] = 0" for i, j in pairs if i != j]
    names += [f"[H{i},X{j}] = {P[i - 1][j - 1]} X{j}" for i, j in pairs]
    names += [f"[H{i},Y{j}] = {-P[i - 1][j - 1]} Y{j}" for i, j in pairs]
    for letter in "XY":
        for i, j in pairs:
            if i != j:
                body = f"{letter}{j}"
                for _ in range(1 - P[i - 1][j - 1]):
                    body = f"[{letter}{i},{body}]"
                names.append(f"{body} = 0")
    return names


def expected_checks(family: str, n: int, suite: str) -> list[tuple[str, str, str, str | None]]:
    """(suite, name, status, required detail or None) for one verify suite."""
    letter, r = tb.family_type(family, n)
    order = tb.weyl_order(letter, r)
    if suite == "axioms":
        out = [("axioms", name, "pass", None) for name in AXIOM_NAMES]
        out[0] = ("axioms", "spanning", "pass",
                  f"finite nonzero set spanning a space of dimension {r} (expected {r})")
        return out
    if suite == "sl2":
        return [("sl2", f"triple {format_weight(w)}", "pass", None)
                for w in tb.family_roots(family, n)]
    if suite == "serre":
        return [("serre", name, "pass", "exact matrix identity")
                for name in _serre_names(tb.textbook_cartan(letter, r))]
    if suite == "killing":
        c = tb.killing_sum_coefficient(family, n)
        return [("killing", "sum coefficient", "pass", f"got {c}, expected {c}"),
                ("killing", "ad-trace route equals root-sum route", "pass", None)]
    if suite == "weyl":
        if order > DEFAULT_MAX_ORDER:
            return [("weyl", "enumeration", "skip",
                     f"order {order} exceeds --max-order {DEFAULT_MAX_ORDER}")]
        out = [("weyl", "order", "pass", f"enumerated {order}, closed form {order}"),
               ("weyl", "root system is permuted", "pass", None)]
        if family == "so-even":
            out.append(("weyl", "even sign changes only", "pass", None))
        return out
    degrees = tb.invariant_degrees(family, n)
    product = 1
    for d in degrees:
        product *= d
    jacobian = "pass" if r <= JACOBIAN_MAX_RANK else "skip"
    return [
        ("invariants", "degree product equals weyl order", "pass",
         f"degrees {degrees} multiply to {product}, |W| = {order}"),
        ("invariants", "invariance under simple reflections", "pass", None),
        ("invariants", "jacobian criterion", jacobian, None),
    ]


def _parse_checks(stdout: str, fmt: str, with_suite: bool) -> tuple[list[tuple], bool]:
    if fmt == "json":
        doc = _json(stdout)
        checks = [(c.get("suite"), c.get("name"), c.get("status"), c.get("detail"))
                  for c in doc.get("checks", [])]
        return checks, doc.get("all_passed") is True
    checks = []
    lines = stdout.splitlines()
    for line in lines[:-1]:
        if line.startswith("  ") or not re.search(r": (PASS|FAIL|SKIP) \(", line):
            continue
        if with_suite:
            suite, _, rest = line.partition(": ")
        else:
            suite, rest = "invariants", line
        m = re.fullmatch(r"(.+): (PASS|FAIL|SKIP) \((.*)\)", rest)
        if not m:
            raise Mismatch(f"malformed check line {line!r}")
        checks.append((suite, m.group(1), m.group(2).lower(), m.group(3)))
    return checks, bool(lines) and lines[-1] == "result: PASS"


def _compare_checks(got: list[tuple], want: list[tuple]) -> int:
    got_keys = Counter((suite, name) for suite, name, _, _ in got)
    want_keys = Counter((suite, name) for suite, name, _, _ in want)
    if got_keys != want_keys:
        missing = list((want_keys - got_keys).elements())[:3]
        extra = list((got_keys - want_keys).elements())[:3]
        raise Mismatch(f"check names differ: missing {missing}, extra {extra}")
    status = {(s, n): (st, d) for s, n, st, d in got}
    for suite, name, want_status, want_detail in want:
        got_status, got_detail = status[(suite, name)]
        _expect_equal(f"{suite}: {name}", got_status, want_status)
        if want_detail is not None:
            _expect_equal(f"{suite}: {name} detail", got_detail, want_detail)
    return sum(1 for _, _, st, _ in got if st == "skip")


def _check_verify(expect: dict, stdout: str, stderr: str) -> int:
    suites = [s for s in ("axioms", "sl2", "serre", "killing", "weyl", "invariants")
              if expect["suite"] in (s, "all")]
    want = [c for s in suites for c in expected_checks(expect["family"], expect["n"], s)]
    got, passed = _parse_checks(stdout, expect["format"], with_suite=True)
    if not passed:
        raise Mismatch("result is not PASS")
    return _compare_checks(got, want)


def _check_invariants(expect: dict, stdout: str, stderr: str) -> int:
    family, n = expect["family"], expect["n"]
    letter, r = tb.family_type(family, n)
    degrees = tb.invariant_degrees(family, n)
    nvars = r + 1 if family == "sl" else r
    if expect["format"] == "json":
        doc = _json(stdout)
        got = (doc.get("nvars"), doc.get("degrees"), doc.get("weyl_order_formula"),
               len(doc.get("polynomials", [])))
    else:
        f = _lines(stdout)
        head = re.fullmatch(r"invariant suite for \S+: (\d+) variables",
                            stdout.splitlines()[0] if stdout else "")
        polys = [line for line in stdout.splitlines() if re.match(r"  f\d+ = ", line)]
        got = (_as_int(head.group(1) if head else None, "variables"),
               [_as_int(d, "degree") for d in _field(f, "degrees").split(", ")],
               _as_int(_field(f, "weyl order (formula)"), "weyl order"), len(polys))
    _expect_equal("nvars, degrees, |W|, polynomial count", got,
                  (nvars, degrees, tb.weyl_order(letter, r), r))
    checks, passed = _parse_checks(stdout, expect["format"], with_suite=False)
    if not passed:
        raise Mismatch("result is not PASS")
    return _compare_checks(checks, expected_checks(family, n, "invariants"))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _determinant(rows: list[list[int]]) -> Fraction:
    work = [[Fraction(x) for x in row] for row in rows]
    n = len(work)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, n):
            factor = work[r][col] / work[col][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return det


def _off_diagonal(rows: list[list[int]]) -> list[int]:
    return sorted(x for i, row in enumerate(rows) for j, x in enumerate(row) if i != j)


def _check_classify(expect: dict, stdout: str, stderr: str) -> int:
    case = expect["case"]
    if case == "truncated":
        if stdout or "parse error" not in stderr:
            raise Mismatch("truncated input not reported as a parse error")
        return 0
    if expect["format"] == "json":
        doc = _json(stdout)
        axioms = [(a.get("name"), a.get("status")) for a in doc.get("axioms", [])]
        classification = doc.get("classification")
        matrix = doc.get("cartan_matrix")
    else:
        axioms = [(m.group(1), m.group(2).lower())
                  for m in re.finditer(r"^axiom (\w+): (PASS|FAIL) \(", stdout, re.M)]
        f = _lines(stdout)
        classification = f.get("classification")
        if classification and classification.startswith("failed root-system axioms"):
            classification = None
        elif classification and classification.startswith("NotSimple"):
            classification = "NotSimple"
        matrix = _matrix_rows(stdout, "cartan matrix:") if "cartan matrix:" in stdout else None

    if case == "dropped_root":
        if not axioms or all(status == "pass" for _, status in axioms):
            raise Mismatch("a root set missing one root passed the axioms")
        _expect_equal("classification", classification, None)
        return 0
    if case == "affine":
        _expect_equal("classification", classification, "NotSimple")
        return 0

    types = [tuple(t) for t in expect["types"]]
    want_names = Counter(tb.canonical_name(letter, r) for letter, r in types)
    got_names = Counter((classification or "").split("+"))
    _expect_equal("classification", got_names, want_names)
    if case == "cartan":
        _expect_equal("axioms", axioms, [])
        _expect_equal("cartan matrix", matrix, expect["matrix"])
        return 0
    _expect_equal("axioms", axioms, [(name, "pass") for name in AXIOM_NAMES])
    (letter, r), = types
    if not matrix or any(len(row) != len(matrix) for row in matrix):
        raise Mismatch("cartan matrix missing or not square")
    _expect_equal("cartan rank", len(matrix), r)
    _expect_equal("cartan determinant", _determinant(matrix), tb.cartan_determinant(letter, r))
    _expect_equal("cartan off-diagonal entries", _off_diagonal(matrix),
                  _off_diagonal(tb.textbook_cartan(letter, r)))
    return 0


CHECKERS = {
    "info": _check_info,
    "verify": _check_verify,
    "invariants": _check_invariants,
    "classify": _check_classify,
}
