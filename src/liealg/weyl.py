"""Weyl groups as signed permutations, generated by simple reflections.

An element is a permutation of {1..n} together with a sign vector; the action
on coordinate vectors is ((a, p) x)_i = a_i x_{p^-1(i)} and the group law is
the semidirect product (a, p)(b, q) = (a . p(b), p q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .catalog import InternalConsistencyError
from .exact import Scalar, as_fraction
from .families import AlgebraFamily, AlgebraSpec
from .roots import RootDatum


class WeylOverflowError(RuntimeError):
    """Breadth-first closure exceeded the requested cap."""


@dataclass(frozen=True)
class SignedPermutation:
    """Permutation images (0-indexed) plus a sign vector in {+1,-1}^n."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.perm}")
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be a +-1 vector matching the permutation")

    @staticmethod
    def identity(n: int) -> "SignedPermutation":
        return SignedPermutation(tuple(range(n)), (1,) * n)

    @property
    def n(self) -> int:
        return len(self.perm)

    def inverse(self) -> "SignedPermutation":
        n = self.n
        inv = [0] * n
        for i, p in enumerate(self.perm):
            inv[p] = i
        signs = tuple(self.signs[self.perm[i]] for i in range(n))
        return SignedPermutation(tuple(inv), signs)

    def sign_product(self) -> int:
        out = 1
        for s in self.signs:
            out *= s
        return out


def compose(g: SignedPermutation, h: SignedPermutation) -> SignedPermutation:
    """The element acting as g after h."""
    if g.n != h.n:
        raise ValueError(f"size mismatch: {g.n} vs {h.n}")
    n = g.n
    inv_g = [0] * n
    for i, p in enumerate(g.perm):
        inv_g[p] = i
    perm = tuple(g.perm[h.perm[i]] for i in range(n))
    signs = tuple(g.signs[i] * h.signs[inv_g[i]] for i in range(n))
    return SignedPermutation(perm, signs)


def apply(g: SignedPermutation, x: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Signed-permutation action on an exact coordinate vector."""
    if len(x) != g.n:
        raise ValueError(f"length mismatch: vector {len(x)}, carrier {g.n}")
    inv = [0] * g.n
    for i, p in enumerate(g.perm):
        inv[p] = i
    return tuple(g.signs[i] * as_fraction(x[inv[i]]) for i in range(g.n))


def simple_reflections(rd: RootDatum) -> list[SignedPermutation]:
    """The reflections of the fundamental roots, as signed permutations.

    Each reflection h -> h - a(h) h_a is computed on the diagonal coordinate
    space and must come out as a signed permutation matrix; anything else
    signals an inconsistent root datum.
    """
    r = rd.realization
    n = r.spec.rank
    out = []
    for alpha, coroot in zip(rd.fundamental_roots, rd.fundamental_coroots):
        h_coords = r.diag_coords(coroot)
        columns = []
        for k in range(n):
            column = [Fraction(1) if i == k else Fraction(0) for i in range(n)]
            for i in range(n):
                column[i] -= alpha[k] * h_coords[i]
            columns.append(column)
        perm = [-1] * n
        signs = [0] * n
        for k, column in enumerate(columns):
            support = [i for i, v in enumerate(column) if v]
            if len(support) != 1 or column[support[0]] not in (1, -1):
                raise InternalConsistencyError(
                    "reflection is not a signed permutation of the coordinates"
                )
            image = support[0]
            perm[k] = image
            signs[image] = int(column[image])
        out.append(SignedPermutation(tuple(perm), tuple(signs)))
    return out


def generate(
    gens: Sequence[SignedPermutation], cap: int = 100_000
) -> frozenset[SignedPermutation]:
    """Breadth-first closure of the generators under composition.

    Raises WeylOverflowError as soon as the group would exceed ``cap``;
    truncation is never silent.
    """
    if not gens:
        raise ValueError("at least one generator required")
    if cap <= 0:
        raise ValueError("cap must be positive")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError("generators must share one carrier size")
    identity = SignedPermutation.identity(n)
    seen = {identity}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for element in frontier:
            for g in gens:
                candidate = compose(element, g)
                if candidate not in seen:
                    seen.add(candidate)
                    if len(seen) > cap:
                        raise WeylOverflowError(
                            f"group order exceeds cap {cap}"
                        )
                    next_frontier.append(candidate)
        frontier = next_frontier
    return frozenset(seen)


def weyl_order_formula(spec: AlgebraSpec) -> int:
    """Closed-form Weyl group order for a classical family."""
    n = spec.rank
    if spec.family is AlgebraFamily.SL:
        out = 1
        for k in range(2, n + 1):
            out *= k
        return out
    factorial = 1
    for k in range(2, n + 1):
        factorial *= k
    if spec.family is AlgebraFamily.SO_EVEN:
        return 2 ** (n - 1) * factorial
    return 2**n * factorial
