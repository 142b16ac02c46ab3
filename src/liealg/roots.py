"""Root systems derived from the adjoint action of the Cartan subalgebra.

Every non-Cartan basis vector of a canonical realization is a simultaneous
eigenvector of ad(h); the engine asserts this (a failure means the basis is
wrong) and reads off the root.  Coroots come from the normalized bracket of
opposite root vectors, fundamental weights from the duality equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
from .exact import as_fraction
from .families import AlgebraFamily, AlgebraSpec
from .matrices import (
    EdgeMatrix,
    _Echelon,
    dot,
    is_positive_definite,
    mat_bracket,
    solve_linear,
)

Inner = Callable[[Weight, Weight], Fraction]


def weight_of(r: AlgebraRealization, m: EdgeMatrix) -> Weight:
    """The functional a with [h, m] = a(h) m for all Cartan h.

    Raises InternalConsistencyError if m is not a simultaneous eigenvector.
    """
    if m.is_zero():
        raise ValueError("zero matrix has no well-defined weight")
    eigenvalues: list[Fraction] = []
    for h in r.cartan_basis:
        lam = mat_bracket(h, m).ratio(m)
        if lam is None:
            raise InternalConsistencyError(
                "matrix is not a simultaneous eigenvector of the Cartan subalgebra"
            )
        eigenvalues.append(lam)
    return _eigenvalues_to_coords(r.spec, eigenvalues)


def _eigenvalues_to_coords(spec: AlgebraSpec, eigenvalues: Sequence[Fraction]) -> Weight:
    """Convert eigenvalues on the Cartan basis to coordinates in a_1..a_n."""
    n = spec.rank
    if spec.family is not AlgebraFamily.SL:
        return tuple(Fraction(v) for v in eigenvalues)
    # sl: the basis is h_k = E_kk - E_(k+1,k+1); pick the sum-zero lift.
    rows = [[1 if i == k else -1 if i == k + 1 else 0 for i in range(n)] for k in range(n - 1)]
    rows.append([1] * n)
    rhs = list(eigenvalues) + [Fraction(0)]
    return tuple(solve_linear(rows, rhs))


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
    """Roots, coroots, fundamental roots/coroots/weights of one realization."""

    realization: AlgebraRealization
    roots: tuple[Weight, ...]
    root_vectors: dict[Weight, int]
    positive_roots: tuple[Weight, ...]
    fundamental_roots: tuple[Weight, ...]
    coroots: dict[Weight, EdgeMatrix]
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


def cartan_decompose(r: AlgebraRealization) -> RootDatum:
    """Read off the root system and derive coroots and fundamental weights."""
    spec = r.spec
    cartan_set = set(r.cartan_indices)

    root_vectors: dict[Weight, int] = {}
    for index, (label, mat) in enumerate(r.basis):
        if index in cartan_set:
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
    for root in positive:
        expand_in_fundamental(root, fundamental)

    coroots: dict[Weight, EdgeMatrix] = {}
    for root in roots:
        x_pos = r.basis[root_vectors[root]][1]
        x_neg = r.basis[root_vectors[negate(root)]][1]
        bracket = mat_bracket(x_pos, x_neg)
        if bracket.is_zero():
            raise InternalConsistencyError(
                f"[x_a, x_-a] = 0 for a = {format_weight(root)}; realization degenerate"
            )
        value = dot(root, r.diag_coords(bracket))
        if not value:
            raise InternalConsistencyError(
                f"a([x_a, x_-a]) = 0 for a = {format_weight(root)}"
            )
        coroots[root] = bracket.scale(Fraction(2) / value)

    fundamental_coroots = tuple(coroots[a] for a in fundamental)
    weights = _solve_fundamental_weights(r, fundamental_coroots)

    return RootDatum(
        realization=r,
        roots=roots,
        root_vectors=root_vectors,
        positive_roots=positive,
        fundamental_roots=fundamental,
        coroots=coroots,
        fundamental_coroots=fundamental_coroots,
        fundamental_weights=weights,
    )


def expand_in_fundamental(
    root: Weight, fundamental: Sequence[Weight]
) -> tuple[int, ...]:
    """Integer coefficients of a root over the fundamental roots.

    The coefficients must be integers, all nonnegative or all nonpositive;
    anything else is an internal inconsistency.
    """
    n = len(root)
    rows = [[fundamental[k][i] for k in range(len(fundamental))] for i in range(n)]
    coeffs = solve_linear(rows, list(root))
    if any(c.denominator != 1 for c in coeffs):
        raise InternalConsistencyError(
            f"root {format_weight(root)} is not an integer combination of the fundamental roots"
        )
    ints = tuple(int(c) for c in coeffs)
    if not (all(c >= 0 for c in ints) or all(c <= 0 for c in ints)):
        raise InternalConsistencyError(
            f"root {format_weight(root)} mixes signs over the fundamental roots"
        )
    return ints


def _solve_fundamental_weights(
    r: AlgebraRealization, fundamental_coroots: Sequence[EdgeMatrix]
) -> tuple[Weight, ...]:
    """Solve w_i(h_j) = delta_ij for the dual basis of the coroots."""
    spec = r.spec
    n = spec.rank
    coroot_coords = [r.diag_coords(h) for h in fundamental_coroots]
    rows = [list(c) for c in coroot_coords]
    if spec.family is AlgebraFamily.SL:
        rows = rows + [[Fraction(1)] * n]
    weights = []
    for i in range(len(fundamental_coroots)):
        rhs = [Fraction(1) if j == i else Fraction(0) for j in range(len(rows))]
        weights.append(tuple(solve_linear(rows, rhs)))
    return tuple(weights)


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
    echelon = _Echelon()
    independent: list[int] = []
    expansions: list[dict[int, Fraction]] = []
    for k, w in enumerate(ordered):
        combination = {k: 1}
        if echelon.add({i: c for i, c in enumerate(w) if c}, combination):
            independent.append(k)
            expansions.append({k: 1})
        else:
            # The residual 0 = w + sum of c_j w_j, over independent w_j only.
            expansions.append({j: -c for j, c in combination.items() if j != k})
    column = {k: i for i, k in enumerate(independent)}
    scale = lcm(*(as_fraction(c).denominator for e in expansions for c in e.values()))
    coords = {}
    for w, expansion in zip(ordered, expansions):
        x = [0] * len(independent)
        for j, c in expansion.items():
            x[column[j]] = int(c * scale)
        coords[w] = tuple(x)
    return [ordered[k] for k in independent], coords


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
            bad_multiple = f"{format_weight(b)} = {b[i] / a[i]} * ({format_weight(a)})"
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
    for a in ordered:
        xa = coords[a]
        row = [sum(map(mul, xa, column)) for column in zip(*gram_int)]
        norm = sum(map(mul, row, xa))
        if not norm:
            bad_reflection = f"{format_weight(a)} has zero norm"
            break
        twice = [2 * g for g in row]
        for b in ordered:
            xb = coords[b]
            pairing = sum(map(mul, twice, xb))
            n, remainder = divmod(pairing, norm)
            if remainder:
                n = Fraction(pairing, norm)
                if bad_integral is None:
                    bad_integral = f"2<{format_weight(a)},{format_weight(b)}>/<a,a> = {n}"
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
    """Exact check of the normalized triple (x_a, y, h_a) for a root a.

    The triple must satisfy [x_a, y] = h_a, [h_a, x_a] = 2 x_a,
    [h_a, y] = -2 y, and a(h_a) = 2, with y the opposite root vector
    rescaled so the first relation holds.
    """
    alpha = tuple(Fraction(c) for c in alpha)
    if alpha not in rd.root_vectors:
        raise ValueError(f"{format_weight(alpha)} is not a root of {rd.spec}")
    r = rd.realization
    x = rd.root_vector(alpha)
    x_neg = rd.root_vector(negate(alpha))
    h = rd.coroot(alpha)

    if dot(alpha, r.diag_coords(h)) != 2:
        return False
    bracket = mat_bracket(x, x_neg)
    value = dot(alpha, r.diag_coords(bracket))
    if not value:
        return False
    y = x_neg.scale(Fraction(2) / value)
    if mat_bracket(x, y) != h:
        return False
    if mat_bracket(h, x) != x.scale(2):
        return False
    if mat_bracket(h, y) != y.scale(-2):
        return False
    return True
