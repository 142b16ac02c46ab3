"""The root-system axioms, checked on any finite set of vectors.

``verify_root_axioms`` reports, never raises, each axiom's verdict under a
given inner product, evaluated only on the independent roots (one
``matrices.SpanSolver``).  ``simple_roots`` picks a base of the set, and
``verify_sl2_triple`` checks one stored triple of a root datum.  Nothing here
builds a matrix realization, so ``classify`` runs these on a file's vectors.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, lcm
from operator import mul

from . import roots
from .exact import (
    Inner,
    Weight,
    canonical,
    format_rational,
    format_weight,
    is_positive,
    negate,
    ratio,
)
from .matrices import SpanSolver, dot, is_positive_definite, mat_bracket, sparse_vector
from .records import Check, CheckReport


def simple_roots(roots: Sequence[Weight]) -> list[Weight]:
    """Positive roots that are not sums of two positive roots, in descending order."""
    positive = {w for w in roots if is_positive(w)}
    simple = []
    for candidate in sorted(positive, reverse=True):
        decomposable = any(
            tuple(c - q for c, q in zip(candidate, other)) in positive
            for other in positive
            if other != candidate
        )
        if not decomposable:
            simple.append(candidate)
    return simple




def _integer_coordinates(
    ordered: Sequence[Weight],
) -> tuple[list[Weight], dict[Weight, tuple[int, ...]]]:
    """The independent roots, picked greedily in order, and every root's
    coordinates over them.

    All coordinates are scaled by one positive factor, the least that makes
    them integers.  The map is one-to-one, since it is linear and injective
    on the span.
    """
    span = SpanSolver(map(sparse_vector, ordered))
    column = {k: i for i, k in enumerate(span.independent)}
    expansions = [span.expand(sparse_vector(w)) for w in ordered]
    scale = lcm(*(c.denominator for e in expansions for c in e.values()))
    coords = {}
    for w, expansion in zip(ordered, expansions):
        x = [0] * len(column)
        for k, c in expansion.items():
            x[column[k]] = int(c * scale)
        coords[w] = tuple(x)
    return [ordered[k] for k in span.independent], coords


def _direction(x: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive integer vector with first nonzero entry positive on x's line."""
    g = gcd(*x)
    if not g:
        return x
    if next(c for c in x if c) < 0:
        g = -g
    return tuple(c // g for c in x)


def verify_root_axioms(
    roots: Sequence[Weight],
    inner: Inner,
    expected_dim: int | None = None,
) -> CheckReport:
    """Check the defining axioms of a root system, reporting each verdict.

    Failures are recorded in the report, never raised.  ``expected_dim``
    pins the dimension the roots must span; when omitted the span of the
    input is accepted as the ambient space.

    ``inner`` must be a symmetric bilinear form.  It is evaluated only on
    pairs of independent roots, d * d calls for a span of dimension d: every
    other inner product is read from that Gram matrix and the roots'
    coordinates over the independent roots, in exact integers.

    Coordinates are read through ``exact.canonical``: a float or a bool
    raises TypeError.
    """
    root_set = {tuple(map(canonical, w)) for w in roots}
    checks: list[Check] = []

    ordered = sorted(root_set, reverse=True)
    independent, coords = _integer_coordinates(ordered)
    span_dim = len(independent)

    nonzero = bool(root_set) and all(any(c for c in w) for w in root_set)
    spans = nonzero and (expected_dim is None or span_dim == expected_dim)
    checks.append(
        Check.of(
            "axioms",
            "spanning",
            spans,
            f"finite nonzero set spanning a space of dimension {span_dim}"
            + (f" (expected {expected_dim})" if expected_dim is not None else ""),
        )
    )

    gram = [[canonical(inner(u, v)) for v in independent] for u in independent]
    euclidean = not gram or is_positive_definite(gram)
    checks.append(
        Check.of(
            "axioms",
            "euclidean",
            euclidean,
            "inner product is positive definite on the span",
        )
    )

    # Multiples are grouped by line; the set's own iteration order picks the
    # failure that is reported.
    by_direction: dict[tuple[int, ...], list[Weight]] = {}
    for w in root_set:
        by_direction.setdefault(_direction(coords[w]), []).append(w)
    zeros = by_direction.get((0,) * span_dim, [])
    bad_multiple = None
    for a in root_set:
        minus_a = negate(a)
        if minus_a not in root_set:
            bad_multiple = f"-({format_weight(a)}) missing"
            break
        if not any(a):
            continue
        # The zero vector is 0 * a for every a.
        parallel = {b for b in by_direction[_direction(coords[a])] if b not in (a, minus_a)}
        parallel.update(zeros)
        if parallel:
            b = next(w for w in root_set if w in parallel)
            i = next(i for i, c in enumerate(a) if c)
            multiple = format_rational(ratio(b[i], a[i]))
            bad_multiple = f"{format_weight(b)} = {multiple} * ({format_weight(a)})"
            break
    checks.append(
        Check.of(
            "axioms",
            "multiples",
            bad_multiple is None,
            bad_multiple or "contains -a for each a; only +-1 multiples occur",
        )
    )

    # One common factor scales every inner product; no verdict depends on it.
    factor = lcm(*(c.denominator for row in gram for c in row))
    gram_int = [[int(c * factor) for c in row] for row in gram]
    coordinate_set = set(coords.values())
    bad_reflection = None
    bad_integral = None
    # Read each root's coordinates once: the pair loop then hashes no weights.
    table = [(w, coords[w]) for w in ordered]
    for a, xa in table:
        row = [sum(map(mul, xa, column)) for column in zip(*gram_int)]
        norm = sum(map(mul, row, xa))
        if not norm:
            bad_reflection = f"{format_weight(a)} has zero norm"
            break
        twice = [2 * g for g in row]
        for b, xb in table:
            pairing = sum(map(mul, twice, xb))
            n, remainder = divmod(pairing, norm)
            if remainder:
                n = ratio(pairing, norm)
                if bad_integral is None:
                    bad_integral = (
                        f"2<{format_weight(a)},{format_weight(b)}>/<a,a> = {format_rational(n)}"
                    )
            if bad_reflection is None:
                image = tuple(y - n * x for x, y in zip(xa, xb))
                if image not in coordinate_set:
                    bad_reflection = (
                        f"S_{{{format_weight(a)}}}({format_weight(b)}) leaves the set"
                    )
    checks.append(
        Check.of(
            "axioms",
            "reflection",
            bad_reflection is None,
            bad_reflection or "every reflection permutes the set",
        )
    )
    checks.append(
        Check.of(
            "axioms",
            "integrality",
            bad_integral is None,
            bad_integral or "all Cartan integers are integers",
        )
    )

    return CheckReport(tuple(checks))


def verify_sl2_triple(rd: roots.RootDatum, alpha: Weight) -> bool:
    """Exact check of the stored triple (x_a, y_a, h_a) for a root a.

    The triple must satisfy a(h_a) = 2, [x_a, y_a] = h_a, [h_a, x_a] = 2 x_a
    and [h_a, y_a] = -2 y_a.  A float or a bool coordinate raises TypeError.
    """
    alpha = tuple(map(canonical, alpha))
    x = rd.root_vector(alpha)
    y = rd.partners[alpha]
    h = rd.coroot(alpha)
    return (
        dot(alpha, rd.realization.diag_coords(h)) == 2
        and mat_bracket(x, y) == h
        and mat_bracket(h, x) == x.scale(2)
        and mat_bracket(h, y) == y.scale(-2)
    )
