"""classify on arbitrary JSON documents: an exit code of 0, 1 or 2, never an escape.

Documents nest at random and mix every JSON type with rational strings and
huge integers, including literals over Python's 4300-digit int-conversion
limit (written into the text directly, since ``json.dumps`` cannot produce
them).  Each run calls ``cli.main`` in-process: any exception fails the
test.  Exactly one ``error:`` line goes to stderr exactly when the exit is 2.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

from liealg import cli

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# A string leaf standing for an integer literal over the conversion limit.
HUGE = "@huge-literal@"

integers = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**40), 10**40),
    st.integers(0, 4300).map(lambda k: 10**k - 1),
    st.integers(0, 4300).map(lambda k: -(10**k) + 1),
)
rationals = st.builds(
    "{}/{}".format, st.one_of(integers, st.integers(-9, 9)), st.one_of(st.integers(-9, 9), integers)
)
leaves = st.one_of(
    integers,
    integers.map(str),
    rationals,
    st.just(HUGE),
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
)
nested = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["vectors", "cartan", "x"]), inner, max_size=2),
    max_leaves=12,
)
numbers = st.one_of(integers, integers.map(str), rationals)
vectors = st.tuples(st.integers(1, 4), st.sampled_from([leaves, numbers])).flatmap(
    lambda shape: st.lists(
        st.lists(st.one_of(shape[1], st.integers(-2, 2)), min_size=shape[0], max_size=shape[0]),
        max_size=8,
    )
)
# Vector sets closed under negation, so that some pass the axioms.
symmetric = st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), max_size=4).map(
    lambda half: half + [[-c for c in v] for v in half]
)
matrices = st.lists(st.lists(st.one_of(st.integers(-3, 2), leaves), max_size=4), max_size=4)
documents = st.one_of(
    st.fixed_dictionaries({"vectors": st.one_of(vectors, symmetric, nested)}),
    st.fixed_dictionaries({"cartan": st.one_of(matrices, nested)}),
    nested,
)


def run_classify(text: str) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["classify", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(documents)
def test_classify_ends_in_an_exit_code(document):
    text = json.dumps(document).replace(json.dumps(HUGE), "9" * 4400)
    code, out, err = run_classify(text)
    assert code in (0, 1, 2)
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    if code == 2:
        assert err == errors[0] + "\n" and len(errors) == 1
        assert out == ""
    else:
        assert err == ""


@pytest.mark.parametrize("key", ["vectors", "cartan"])
def test_integer_literal_over_the_conversion_limit_is_a_usage_error(key):
    code, out, err = run_classify('{"%s": [[%s, 0]]}' % (key, "9" * 4400))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "integer literal has over" in err


def test_vector_over_the_digit_budget_is_a_usage_error():
    big = "7" * 600
    code, out, err = run_classify(json.dumps({"vectors": [[big, "1/" + big], ["1", "2"]]}))
    assert (code, out) == (2, "")
    assert err.endswith(f"vector 1 has 1202 digits; at most {cli.MAX_VECTOR_DIGITS} are accepted\n")


def test_too_many_vectors_is_a_usage_error_before_parsing():
    # The first entry is not a number: the count is checked before any entry is read.
    count = cli.MAX_VECTORS + 1
    code, out, err = run_classify(json.dumps({"vectors": [["x"]] + [[1]] * (count - 1)}))
    assert (code, out) == (2, "")
    assert err.endswith(
        f'"vectors" holds {count} vectors; at most {cli.MAX_VECTORS} are accepted\n'
    )
    assert err.count("\n") == 1


def test_the_vector_bound_admits_its_own_count():
    # At the bound the count passes and the file is read on, up to the bad last vector.
    vectors = [[1]] * (cli.MAX_VECTORS - 1) + [[1, 0]]
    code, out, err = run_classify(json.dumps({"vectors": vectors}))
    assert (code, out) == (2, "")
    assert err.endswith(f"vector {cli.MAX_VECTORS} has length 2, expected 1\n")


@pytest.mark.parametrize(
    "vectors",
    [[["\u0661", "-\u0661"], ["-\u0661", "\u0661"]], [["\uff11/\uff12"]], [["1/2\u2003"]]],
    ids=["arabic-indic", "full-width", "em-space"],
)
def test_a_non_ascii_digit_or_space_is_a_usage_error(vectors):
    code, out, err = run_classify(json.dumps({"vectors": vectors}))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "vector 1 entry 1: not a rational number" in err


# Small entries, so that every parsed integer stays small: an integer or "p/q".
small_entries = st.one_of(
    st.integers(-20, 20), st.builds("{}/{}".format, st.integers(-20, 20), st.integers(1, 9))
)


def digits(entry) -> int:
    """The digits of an entry in lowest terms, as the budget counts them."""
    f = Fraction(str(entry))
    return len(str(f.numerator)) + len(str(f.denominator))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.booleans(), st.integers(0, 3), st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_vector_count_on_both_sides_of_the_bound(over, offset, pattern):
    if over:
        # The first entry is not a number: the count is checked before any entry is read.
        count = cli.MAX_VECTORS + 1 + offset
        vectors = [["x"]] + [[pattern[k % len(pattern)]] for k in range(count - 1)]
        want = f'"vectors" holds {count} vectors; at most {cli.MAX_VECTORS} are accepted'
    else:
        # An admitted count is read on, up to the bad last vector.
        count = cli.MAX_VECTORS - offset
        vectors = [[pattern[k % len(pattern)]] for k in range(count - 1)] + [[1, 0]]
        want = f"vector {count} has length 2, expected 1"
    code, out, err = run_classify(json.dumps({"vectors": vectors}))
    assert (code, out) == (2, "")
    assert err.endswith(want + "\n") and err.count("\n") == 1


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.booleans(), st.integers(0, 3), st.lists(small_entries, min_size=1, max_size=4))
def test_vector_digits_on_both_sides_of_the_bound(over, offset, pattern):
    # Each entry has at least two digits, so the cycle is longer than any vector drawn.
    cycle = [pattern[k % len(pattern)] for k in range(cli.MAX_VECTOR_DIGITS)]
    totals = list(accumulate(map(digits, cycle)))
    fits = sum(t <= cli.MAX_VECTOR_DIGITS for t in totals)  # the widest vector within budget
    width = fits + 1 + offset if over else max(1, fits - offset)
    vector, total = cycle[:width], totals[width - 1]
    assert (total > cli.MAX_VECTOR_DIGITS) == over
    if over:
        # The next vector is never parsed: the budget stops the file at vector 1.
        code, out, err = run_classify(json.dumps({"vectors": [vector, ["x"]]}))
        assert (code, out) == (2, "")
        assert err.endswith(
            f"vector 1 has {total} digits; at most {cli.MAX_VECTOR_DIGITS} are accepted\n"
        )
    else:
        code, out, err = run_classify(json.dumps({"vectors": [vector]}))
        assert code in (0, 1) and err == ""
