"""Sparse multivariate polynomials over exact rationals.

Terms are stored canonically: a map from exponent vectors to nonzero Fraction
coefficients, so equal polynomials have identical term maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exact import Scalar, as_fraction

Exponent = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class MultiPoly:
    nvars: int
    terms: dict[Exponent, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nvars <= 0:
            raise ValueError("polynomial needs a positive number of variables")
        clean: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            if len(expo) != self.nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo} for {self.nvars} variables")
            c = as_fraction(coeff)
            if c:
                clean[tuple(expo)] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, {})

    @staticmethod
    def constant(nvars: int, c: Scalar) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: as_fraction(c)})

    @staticmethod
    def variable(nvars: int, index: int) -> "MultiPoly":
        """The polynomial x_index (0-indexed)."""
        if not (0 <= index < nvars):
            raise ValueError(f"variable index {index} out of range")
        expo = tuple(1 if k == index else 0 for k in range(nvars))
        return MultiPoly(nvars, {expo: Fraction(1)})

    @staticmethod
    def monomial(nvars: int, expo: Sequence[int], coeff: Scalar = 1) -> "MultiPoly":
        return MultiPoly(nvars, {tuple(expo): as_fraction(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------------

    def _require_same_vars(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._require_same_vars(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            new = terms.get(expo, Fraction(0)) + coeff
            if new:
                terms[expo] = new
            else:
                terms.pop(expo, None)
        return MultiPoly(self.nvars, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._require_same_vars(other)
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(expo, Fraction(0)) + c1 * c2
                if new:
                    terms[expo] = new
                else:
                    terms.pop(expo, None)
        return MultiPoly(self.nvars, terms)

    def scale(self, c: Scalar) -> "MultiPoly":
        c = as_fraction(c)
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, power: int) -> "MultiPoly":
        if power < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        k = power
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def derivative(self, index: int) -> "MultiPoly":
        """Exact partial derivative with respect to x_index (0-indexed)."""
        if not (0 <= index < self.nvars):
            raise ValueError(f"variable index {index} out of range")
        terms: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            e = expo[index]
            if e == 0:
                continue
            new_expo = expo[:index] + (e - 1,) + expo[index + 1 :]
            terms[new_expo] = terms.get(new_expo, Fraction(0)) + coeff * e
        return MultiPoly(self.nvars, terms)

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        """Exact evaluation at a rational point."""
        if len(point) != self.nvars:
            raise ValueError(
                f"point length {len(point)} does not match {self.nvars} variables"
            )
        values = [as_fraction(x) for x in point]
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            term = coeff
            for x, e in zip(values, expo):
                if e:
                    term *= x**e
            total += term
        return total

    def eliminate_last(self, replacement: "MultiPoly") -> "MultiPoly":
        """Substitute the last variable by a polynomial in the remaining ones."""
        if replacement.nvars != self.nvars - 1:
            raise ValueError("replacement must use one fewer variable")
        nv = self.nvars - 1
        powers: dict[int, MultiPoly] = {0: MultiPoly.constant(nv, 1)}
        result = MultiPoly.zero(nv)
        for expo, coeff in self.terms.items():
            e_last = expo[-1]
            if e_last not in powers:
                powers[e_last] = replacement**e_last
            result = result + powers[e_last].scale(coeff) * MultiPoly.monomial(
                nv, expo[:-1]
            )
        return result

    def transform(self, window: Sequence[int]) -> "MultiPoly":
        """Compose with the signed permutation whose window is ``window``.

        Returns the polynomial p' with p'(x) = p(gx), where (gx)_{|w_k|} =
        sign(w_k) x_k as in ``liealg.weyl``; this is the right action used
        for invariance checks.
        """
        if len(window) != self.nvars:
            raise ValueError("carrier size does not match variable count")
        terms: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            new_expo = tuple(expo[abs(v) - 1] for v in window)
            odd_flips = sum(e % 2 for e, v in zip(new_expo, window) if v < 0)
            new = terms.get(new_expo, Fraction(0)) + (-1) ** odd_flips * coeff
            if new:
                terms[new_expo] = new
            else:
                terms.pop(new_expo, None)
        return MultiPoly(self.nvars, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            coeff = self.terms[expo]
            factors = [
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(expo)
                if e
            ]
            body = "*".join(factors)
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def poly_det(matrix: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Exact determinant of a square matrix of polynomials.

    Laplace expansion along the first remaining row, with minors memoized on
    the active column set; intended for the small sizes that arise here.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant requires a square matrix")
    nvars = matrix[0][0].nvars
    for row in matrix:
        for entry in row:
            if entry.nvars != nvars:
                raise ValueError("all entries must share one variable count")
    cache: dict[tuple[int, ...], MultiPoly] = {}

    def minor(cols: tuple[int, ...]) -> MultiPoly:
        if cols in cache:
            return cache[cols]
        row_index = n - len(cols)
        if len(cols) == 1:
            result = matrix[row_index][cols[0]]
        else:
            result = MultiPoly.zero(nvars)
            sign = 1
            for k, col in enumerate(cols):
                entry = matrix[row_index][col]
                if not entry.is_zero():
                    rest = cols[:k] + cols[k + 1 :]
                    sub = minor(rest)
                    term = entry * sub
                    result = result + (term if sign > 0 else -term)
                sign = -sign
        cache[cols] = result
        return result

    return minor(tuple(range(n)))
