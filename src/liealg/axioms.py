"""The root-system axioms, checked on any finite set of vectors.

``verify_root_axioms`` reports, never raises, each axiom's verdict under a
given inner product, evaluated only on the independent roots (one
``matrices.SpanSolver``, whose elimination also gives every root's
coordinates).  A root system is the orbit of a few roots under their
reflections, so one search over a few generators decides reflection and
integrality, and reports the first failing pair (a, b) as a check of every
pair would; a set it does not prove integral is checked on a basis of its
lattice.  ``simple_roots`` picks a base of the set, and
``verify_sl2_triple`` forms and checks the triple of one root of a root
datum.  Nothing else here builds a matrix, so ``classify`` runs these on a
file's vectors without running ``edges``.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, lcm
from operator import mul

from . import edges, roots
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
from .matrices import SpanSolver, dot, is_positive_definite, sparse_vector
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
) -> tuple[tuple[int, ...], dict[Weight, tuple[int, ...]]]:
    """The indices of the independent roots, picked greedily in order, and
    every root's coordinates over them.

    Each root's expansion is read off the one elimination of the set.  All
    coordinates are scaled by one positive factor, the least that makes them
    integers.  The map is one-to-one, since it is linear and injective on
    the span.
    """
    span = SpanSolver(map(sparse_vector, ordered))
    column = {k: i for i, k in enumerate(span.independent)}
    expansions = [span.expand_member(k) for k in range(len(ordered))]
    scale = lcm(*(c.denominator for e in expansions for c in e.values()))
    coords = {}
    for w, expansion in zip(ordered, expansions):
        x = [0] * len(column)
        for k, c in expansion.items():
            x[column[k]] = int(c * scale)
        coords[w] = tuple(x)
    return span.independent, coords


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

    ``inner`` must be a symmetric bilinear form; one that is not symmetric
    on the span raises ValueError.  It is evaluated only on pairs of
    independent roots, d * d calls for a span of dimension d: every other
    inner product is read from that Gram matrix and the roots' coordinates
    over the independent roots, in exact integers.  Reflection and
    integrality take about (generators) * |Phi| * d work on a set that
    passes both and |Phi| * d^2 on one that does not.

    Coordinates are read through ``exact.canonical``: a float or a bool
    raises TypeError, and roots of different lengths raise ValueError.
    """
    root_set = {tuple(map(canonical, w)) for w in roots}
    if len({len(w) for w in root_set}) > 1:
        raise ValueError("roots must all have the same length")
    checks: list[Check] = []

    ordered = sorted(root_set, reverse=True)
    basis, coords = _integer_coordinates(ordered)
    independent = [ordered[k] for k in basis]
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
    if any(gram[i][j] != gram[j][i] for i in range(span_dim) for j in range(i)):
        raise ValueError("inner is not symmetric on the span of the roots")
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
    bad_reflection, bad_integral = _reflection_and_integrality(
        ordered, [coords[w] for w in ordered], gram_int
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

    return CheckReport(checks)


def _twice_row(x: tuple[int, ...], gram: list[list[int]]) -> tuple[list[int], int]:
    """2 x^T G, whose product with y is 2<x,y>, and <x,x>."""
    row = [sum(map(mul, x, column)) for column in zip(*gram)]
    return [2 * c for c in row], sum(map(mul, row, x))


def _reflection_and_integrality(
    ordered: Sequence[Weight], points: Sequence[tuple[int, ...]], gram: list[list[int]]
) -> tuple[str | None, str | None]:
    """The fail texts of reflection and integrality, None where one holds,
    for ``ordered`` with integer coordinates ``points`` under the symmetric
    ``gram``: the first a of zero norm, else the first pair (a, b) where
    S_a(b) = b - n a, n = 2<a,b>/<a,a>, is not a root; the first pair, with
    a before any zero norm, where n is not an integer.

    Each generator g is the first point not yet reached.  If S_g permutes the
    points, it is an isometry, and each a = w(g) reached has S_a = w S_g w^-1
    and 2<a,b>/<a,a> = 2<g,w^-1 b>/<g,g> (Humphreys 1972, Lemma 9.2).  So a
    failing generator is the first failing a, and integral generators that
    reach every point prove integrality.  Otherwise, as n mod 1 is additive
    in b, each a is paired with a basis of the lattice, and only the first a
    that fails with every b.
    """
    index = {x: k for k, x in enumerate(points)}
    reached: set[int] = set()  # closed under every permutation in images
    images: list[list[int]] = []  # one permutation per generator
    integral = True
    bad_reflection = None
    for g, xg in enumerate(points):
        if g in reached:
            continue
        twice, norm = _twice_row(xg, gram)
        permutation: list[int] = []
        for xb in points if norm else ():
            pairing = sum(map(mul, twice, xb))
            n, remainder = divmod(pairing, norm)
            if remainder:
                integral = False
                n = ratio(pairing, norm)
            image = index.get(tuple(y - n * x for x, y in zip(xg, xb)))
            if image is None:
                b = ordered[len(permutation)]
                bad_reflection = (
                    f"S_{{{format_weight(ordered[g])}}}({format_weight(b)}) leaves the set"
                )
                break
            permutation.append(image)
        if len(permutation) < len(points):
            break
        images.append(permutation)
        pending = [permutation[k] for k in reached] + [g]
        while pending:
            k = pending.pop()
            if k not in reached:
                reached.add(k)
                pending.extend(image_of[k] for image_of in images)
    complete = len(reached) == len(points)
    if complete and integral:
        return None, None

    lattice = _lattice_basis(points)
    bad_integral = None
    for a, xa in enumerate(points):
        twice, norm = _twice_row(xa, gram)
        if not norm:
            return f"{format_weight(ordered[a])} has zero norm", bad_integral
        if bad_integral is None and any(sum(map(mul, twice, v)) % norm for v in lattice):
            pairing, b = next(
                (p, b) for b, xb in enumerate(points) if (p := sum(map(mul, twice, xb))) % norm
            )
            bad_integral = (
                f"2<{format_weight(ordered[a])},{format_weight(ordered[b])}>/<a,a>"
                f" = {format_rational(ratio(pairing, norm))}"
            )
            if complete:  # every point was reached, so no norm is zero
                break
    return bad_reflection, bad_integral


def _lattice_basis(points: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """A Z-basis of the lattice that the integer vectors generate, in echelon
    form: Euclid's algorithm on each pivot column keeps the gcd in the pivot
    row and leaves the other vector zero there."""
    rows: dict[int, list[int]] = {}  # pivot column -> row
    for x in points:
        v = list(x)
        for c in range(len(v)):
            if not v[c]:
                continue
            row = rows.get(c)
            if row is None:
                rows[c] = v
                break
            while v[c]:
                q = row[c] // v[c]
                row, v = v, [r - q * y for r, y in zip(row, v)]
            rows[c] = row
    return list(rows.values())


def verify_sl2_triple(rd: roots.RootDatum, alpha: Weight) -> bool:
    """Exact check of the triple (x_a, y_a, h_a) of a root a, formed here by
    ``RootDatum.sl2_triple``.

    The triple must satisfy a(h_a) = 2, [x_a, y_a] = h_a, [h_a, x_a] = 2 x_a
    and [h_a, y_a] = -2 y_a.  A float or a bool coordinate raises TypeError.
    """
    alpha = tuple(map(canonical, alpha))
    x, y, h = rd.sl2_triple(alpha)
    return (
        dot(alpha, rd.realization.diag_coords(h)) == 2
        and edges.mat_bracket(x, y) == h
        and edges.mat_bracket(h, x) == x.scale(2)
        and edges.mat_bracket(h, y) == y.scale(-2)
    )
