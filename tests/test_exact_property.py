"""format_rational and parse_rational are inverse on every exact rational."""

from fractions import Fraction

import pytest

from liealg.exact import format_rational, parse_rational

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.one_of(st.fractions(), st.integers()))
def test_parse_inverts_format(q):
    text = format_rational(q)
    assert parse_rational(text) == q
    value = parse_rational(text)
    assert type(value) is int or (type(value) is Fraction and value.denominator > 1)
