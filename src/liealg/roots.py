"""Root systems read off the edges of the root vectors.

The Cartan subalgebras are diagonal, so ad(h) scales each edge i -> j by
its weight chi_i - chi_j (``AlgebraRealization.edge_weight``).  A non-Cartan
basis vector is a simultaneous eigenvector of ad(h) exactly when all its
edges carry one weight, and that weight is its root; the engine asserts
this (a failure means the basis is wrong).  Each root a gets one sl2 triple
(x_a, y_a, h_a), built once: h_a is the normalized bracket of opposite root
vectors, y_a the opposite root vector scaled so that [x_a, y_a] = h_a.
Fundamental weights come from the duality equations.  Every expansion here
(over the fundamental roots, the duality equations' columns, or the axiom
verifier's independent roots) is one ``matrices.SpanSolver``.

``KillingMetric`` is the one Killing record: the Cartan Gram and its certified
coefficients ``sigma`` and ``trace``, built once as ``RootDatum.killing_metric``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

from .catalog import (
    AlgebraRealization,
    Check,
    CheckReport,
    InternalConsistencyError,
    Weight,
    format_weight,
)
from .exact import as_fraction, format_rational
from .families import AlgebraFamily, AlgebraSpec
from .matrices import (
    EdgeMatrix,
    SpanSolver,
    dot,
    is_positive_definite,
    mat_bracket,
    sparse_vector,
)

Inner = Callable[[Weight, Weight], Fraction]


def weight_of(r: AlgebraRealization, m: EdgeMatrix) -> Weight:
    """The functional a with [h, m] = a(h) m for all Cartan h.

    For diagonal h, [h, E_ij] = (h_ii - h_jj) E_ij, so a is the common
    weight of m's edges.  Raises InternalConsistencyError if the edges carry
    more than one weight: m is then not a simultaneous eigenvector.
    """
    if m.is_zero():
        raise ValueError("zero matrix has no well-defined weight")
    if m.dim != r.spec.realization_dim:
        raise ValueError(f"dimension mismatch: {r.spec.realization_dim} vs {m.dim}")
    weights = {r.edge_weight(i, j) for i, j in m.edges}
    if len(weights) != 1:
        raise InternalConsistencyError(
            "matrix is not a simultaneous eigenvector of the Cartan subalgebra"
        )
    return weights.pop()


def is_positive(w: Weight) -> bool:
    """Positivity convention: first nonzero coordinate is positive."""
    for c in w:
        if c:
            return c > 0
    return False


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


def negate(w: Weight) -> Weight:
    return tuple(-c for c in w)


def fundamental_root_list(spec: AlgebraSpec) -> tuple[Weight, ...]:
    """The simple roots of each family, in their standard order."""
    n = spec.rank
    out: list[Weight] = []

    def vec(pairs: dict[int, int]) -> Weight:
        base = [Fraction(0)] * n
        for idx, val in pairs.items():
            base[idx - 1] = Fraction(val)
        return tuple(base)

    for i in range(1, n):
        out.append(vec({i: 1, i + 1: -1}))
    if spec.family is AlgebraFamily.SP:
        out.append(vec({n: 2}))
    elif spec.family is AlgebraFamily.SO_EVEN:
        out.append(vec({n - 1: 1, n: 1}))
    elif spec.family is AlgebraFamily.SO_ODD:
        out.append(vec({n: 1}))
    return tuple(out)


@dataclass(frozen=True)
class RootDatum:
    """Roots, sl2 triples, fundamental roots/coroots/weights of one realization.

    The triple of a root a is (``root_vector(a)``, ``partners[a]``,
    ``coroots[a]``): [x_a, y_a] = h_a and a(h_a) = 2.
    """

    realization: AlgebraRealization
    roots: tuple[Weight, ...]
    root_vectors: dict[Weight, int]
    positive_roots: tuple[Weight, ...]
    fundamental_roots: tuple[Weight, ...]
    coroots: dict[Weight, EdgeMatrix]
    partners: dict[Weight, EdgeMatrix]
    fundamental_coroots: tuple[EdgeMatrix, ...]
    fundamental_weights: tuple[Weight, ...]

    @property
    def spec(self) -> AlgebraSpec:
        return self.realization.spec

    def root_vector(self, root: Weight) -> EdgeMatrix:
        if root not in self.root_vectors:
            raise ValueError(f"{format_weight(root)} is not a root of {self.spec}")
        return self.realization.basis[self.root_vectors[root]][1]

    def coroot(self, root: Weight) -> EdgeMatrix:
        if root not in self.coroots:
            raise ValueError(f"{format_weight(root)} is not a root of {self.spec}")
        return self.coroots[root]

    @cached_property
    def killing_metric(self) -> KillingMetric:
        """The Killing form on the Cartan basis, summed and certified on first use."""
        return _killing_metric(self)


@dataclass(frozen=True)
class KillingMetric:
    """The Killing form on the Cartan basis h_1..h_r of one root datum.

    ``gram`` holds K(h_i, h_j) = sum over roots a(h_i) a(h_j), the ad-trace
    form, since ad(h) is diagonal in the canonical basis with the root values
    as eigenvalues.  It is certified to be exactly ``sigma`` (x_i . x_j) and
    ``trace`` tr(h_i h_j), with sigma nonzero; for the doubled realizations
    (sp, so) tr(xy) is twice the coordinate sum, so trace = sigma / 2.
    """

    gram: tuple[tuple[Fraction, ...], ...]
    sigma: Fraction
    trace: Fraction


def _killing_metric(rd: RootDatum) -> KillingMetric:
    """Sum the Cartan Gram over the root eigenvalues and prove it proportional."""
    r = rd.realization
    cartan = r.cartan_basis
    coords = [r.diag_coords(h) for h in cartan]
    # One common denominator makes every coordinate, and so every eigenvalue
    # a(h_i) and every Gram sum, a Python int.
    scale = lcm(*(c.denominator for w in (*rd.roots, *coords) for c in w))

    def scaled(w: Weight) -> list[int]:
        return [c.numerator * (scale // c.denominator) for c in w]

    root_ints = [scaled(a) for a in rd.roots]
    eigen = [[sum(map(mul, scaled(x), a)) for a in root_ints] for x in coords]
    unit = scale**4
    gram = tuple(
        tuple(Fraction(sum(map(mul, ei, ej)), unit) for ej in eigen) for ei in eigen
    )
    sigma = _proportion(gram, [[dot(x, y) for y in coords] for x in coords], "coordinate sum form")
    trace = _proportion(gram, [[(x @ y).trace() for y in cartan] for x in cartan], "trace form")
    return KillingMetric(gram, sigma, trace)


def _proportion(
    gram: Sequence[Sequence[Fraction]], reference: Sequence[Sequence[Fraction]], form: str
) -> Fraction:
    """The nonzero c with gram = c * reference entrywise; raises if there is none."""
    pairs = [(i, j) for i in range(len(gram)) for j in range(len(gram))]
    c = next((gram[i][j] / reference[i][j] for i, j in pairs if reference[i][j]), None)
    if c is None:
        raise InternalConsistencyError("degenerate reference forms on the Cartan")
    if not c:
        raise InternalConsistencyError("Killing form vanishes on the Cartan")
    if any(gram[i][j] != c * reference[i][j] for i, j in pairs):
        raise InternalConsistencyError(f"Killing form is not proportional to the {form}")
    return c


def cartan_decompose(r: AlgebraRealization) -> RootDatum:
    """Read off the root system and derive sl2 triples and fundamental weights."""
    spec = r.spec
    cartan_set = set(r.cartan_indices)

    root_vectors: dict[Weight, int] = {}
    for index, (label, mat) in enumerate(r.basis):
        if index in cartan_set:
            # The edge rule of weight_of holds only for a diagonal Cartan.
            try:
                r.diag_coords(mat)
            except ValueError as exc:
                raise InternalConsistencyError(f"Cartan basis element {label}: {exc}") from exc
            continue
        root = weight_of(r, mat)
        if not any(root):
            raise InternalConsistencyError(f"basis element {label} has zero weight")
        if root in root_vectors:
            raise InternalConsistencyError(
                f"root {format_weight(root)} appears twice; root spaces must be 1-dimensional"
            )
        root_vectors[root] = index

    roots = tuple(sorted(root_vectors, reverse=True))
    positive = tuple(w for w in roots if is_positive(w))
    if set(roots) != set(positive) | {negate(w) for w in positive}:
        raise InternalConsistencyError("root system is not symmetric under negation")

    fundamental = fundamental_root_list(spec)
    for root in fundamental:
        if root not in root_vectors:
            raise InternalConsistencyError(
                f"expected fundamental root {format_weight(root)} is not a root"
            )
    expand_in_fundamental(positive, fundamental)

    coroots: dict[Weight, EdgeMatrix] = {}
    partners: dict[Weight, EdgeMatrix] = {}
    for root in roots:
        x_pos = r.basis[root_vectors[root]][1]
        x_neg = r.basis[root_vectors[negate(root)]][1]
        bracket = mat_bracket(x_pos, x_neg)
        # A zero bracket fails here too: a(0) = 0.
        value = dot(root, r.diag_coords(bracket))
        if not value:
            raise InternalConsistencyError(
                f"a([x_a, x_-a]) = 0 for a = {format_weight(root)}"
            )
        coroots[root] = bracket.scale(Fraction(2) / value)
        partners[root] = x_neg.scale(Fraction(2) / value)

    fundamental_coroots = tuple(coroots[a] for a in fundamental)
    weights = _solve_fundamental_weights(r, fundamental_coroots)

    return RootDatum(
        realization=r,
        roots=roots,
        root_vectors=root_vectors,
        positive_roots=positive,
        fundamental_roots=fundamental,
        coroots=coroots,
        partners=partners,
        fundamental_coroots=fundamental_coroots,
        fundamental_weights=weights,
    )


def expand_in_fundamental(
    roots: Sequence[Weight], fundamental: Sequence[Weight]
) -> list[tuple[int, ...]]:
    """Integer coefficients of each root over the fundamental roots.

    The fundamental roots are eliminated once.  The coefficients must be
    integers, all nonnegative or all nonpositive; anything else is an
    internal inconsistency.
    """
    solver = SpanSolver(map(sparse_vector, fundamental))
    if len(solver.independent) < len(fundamental):
        raise InternalConsistencyError("the fundamental roots are linearly dependent")
    expansions = []
    for root in roots:
        coeffs = solver.expand(sparse_vector(root))
        if any(c.denominator != 1 for c in coeffs.values()):
            raise InternalConsistencyError(
                f"root {format_weight(root)} is not an integer combination of the fundamental roots"
            )
        ints = tuple(int(coeffs.get(k, 0)) for k in range(len(fundamental)))
        if not (all(c >= 0 for c in ints) or all(c <= 0 for c in ints)):
            raise InternalConsistencyError(
                f"root {format_weight(root)} mixes signs over the fundamental roots"
            )
        expansions.append(ints)
    return expansions


def _solve_fundamental_weights(
    r: AlgebraRealization, fundamental_coroots: Sequence[EdgeMatrix]
) -> tuple[Weight, ...]:
    """Solve w_i(h_j) = delta_ij for the dual basis of the coroots.

    w_i is e_i expanded over the columns of the square system whose rows are
    the coroot coordinates, and for sl the all-ones row (w_i sums to zero).
    Dependent columns leave some e_i outside their span: expand raises.
    """
    n = r.spec.rank
    rows = [r.diag_coords(h) for h in fundamental_coroots]
    if r.spec.family is AlgebraFamily.SL:
        rows.append((Fraction(1),) * n)
    columns = SpanSolver(map(sparse_vector, zip(*rows)))
    expansions = [columns.expand({i: 1}) for i in range(len(fundamental_coroots))]
    return tuple(tuple(w.get(k, Fraction(0)) for k in range(n)) for w in expansions)


def root_count(spec: AlgebraSpec) -> int:
    """Closed-form size of the root system."""
    n = spec.rank
    if spec.family is AlgebraFamily.SL:
        return n * (n - 1)
    if spec.family is AlgebraFamily.SO_EVEN:
        return 2 * n * (n - 1)
    return 2 * n * n


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
    """
    root_set = {tuple(Fraction(c) for c in w) for w in roots}
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

    gram = [[as_fraction(inner(u, v)) for v in independent] for u in independent]
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
            bad_multiple = (
                f"{format_weight(b)} = {format_rational(b[i] / a[i])} * ({format_weight(a)})"
            )
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
                n = Fraction(pairing, norm)
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


def verify_sl2_triple(rd: RootDatum, alpha: Weight) -> bool:
    """Exact check of the stored triple (x_a, y_a, h_a) for a root a.

    The triple must satisfy a(h_a) = 2, [x_a, y_a] = h_a, [h_a, x_a] = 2 x_a
    and [h_a, y_a] = -2 y_a.
    """
    alpha = tuple(Fraction(c) for c in alpha)
    x = rd.root_vector(alpha)
    y = rd.partners[alpha]
    h = rd.coroot(alpha)
    return (
        dot(alpha, rd.realization.diag_coords(h)) == 2
        and mat_bracket(x, y) == h
        and mat_bracket(h, x) == x.scale(2)
        and mat_bracket(h, y) == y.scale(-2)
    )
