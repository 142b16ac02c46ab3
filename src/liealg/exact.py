"""Exact rational scalars.

Every quantity in this package is an exact rational number: a Python int or a
``fractions.Fraction`` (always stored in lowest terms with positive
denominator).  Floats are rejected everywhere; no rounding ever occurs.

One rule fixes the form of a value: it is an int whenever it is an integer,
and a Fraction only when it is not (``canonical``).  Every value the package
returns follows it, so the integral work of the classical families runs in
int arithmetic.  Sums and products of canonical values are exact in either
form; the one quotient is ``ratio``, since ``/`` on two ints gives a float.

A weight, a functional on the Cartan subalgebra, is the tuple of its
coordinates (``Weight``); ``format_weight`` renders one over the coordinate
symbols a_i, and ``is_positive`` and ``negate`` are the sign conventions that
both the derivation (``roots``) and the axiom checks (``axioms``) read.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cache

Scalar = int | Fraction
# A functional on the Cartan, by its coordinates: each an int when integral,
# else a Fraction (``canonical``).  Roots and edge weights are all ints.
Weight = tuple[Scalar, ...]
# A symmetric bilinear form on weights.
Inner = Callable[[Weight, Weight], Scalar]


def canonical(x: Scalar) -> Scalar:
    """An exact scalar in its one form: an int when the value is an integer,
    else a Fraction.  Floats and bools raise TypeError."""
    if type(x) is int:
        return x
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"exact scalar expected, got {type(x).__name__}")


def ratio(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b in canonical form.  Floats and bools raise
    TypeError, and a zero b raises ZeroDivisionError."""
    return canonical(Fraction(canonical(a), canonical(b)))


@cache
def _rational() -> re.Pattern[str]:
    """The text that parse_rational takes, compiled on its first call, not at import:
    only classify parses rationals."""
    return re.compile(r"\s*[+-]?\d+(/\d+)?\s*", re.ASCII)


def parse_rational(text: str) -> Scalar:
    """Parse "p/q" or plain integer strings into an exact rational."""
    if not _rational().fullmatch(text):
        raise ValueError(f"not a rational number: {text!r}")
    try:
        return canonical(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(x: Scalar) -> str:
    """Render an exact rational as "p/q", or "p" when the denominator is 1.

    A numerator or denominator over Python's integer-string limit, which
    ``str`` refuses, is rendered by its length instead, as "<N digits>".
    """
    f = canonical(x)
    parts = (f.numerator,) if f.denominator == 1 else (f.numerator, f.denominator)
    return "/".join(map(_integer_text, parts))


def _integer_text(k: int) -> str:
    try:
        return str(k)
    except ValueError:
        # 2**(b-1) <= |k| < 2**b: the length is this floor plus 1 or 2.
        digits = (abs(k).bit_length() - 1) * 30102999566 // 10**11 + 1
        digits += abs(k) >= 10**digits
        return f"{'-' * (k < 0)}<{digits} digits>"


def format_weight(w: Sequence[Scalar]) -> str:
    """Render a functional as a combination of the coordinate symbols a_i."""
    parts: list[str] = []
    for i, c in enumerate(w, start=1):
        if not c:
            continue
        if c == 1:
            term = f"a{i}"
        elif c == -1:
            term = f"-a{i}"
        else:
            term = f"{format_rational(c)}a{i}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts) if parts else "0"


def is_positive(w: Weight) -> bool:
    """Positivity convention: first nonzero coordinate is positive."""
    for c in w:
        if c:
            return c > 0
    return False


def negate(w: Weight) -> Weight:
    return tuple(-c for c in w)
