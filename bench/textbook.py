"""Closed forms for the classical families and the simple root systems.

Everything here is written from the textbook definitions (Bourbaki's
coordinates for the exceptional types).  Nothing imports liealg, so the
oracle built on these tables is independent of the program under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

Vector = tuple[Fraction, ...]

FAMILIES = ("sl", "sp", "so-even", "so-odd")
# The Cartan type of each family at parameter n, as (letter, Lie rank).
FAMILY_LETTER = {"sl": "A", "sp": "C", "so-even": "D", "so-odd": "B"}

HALF = Fraction(1, 2)


def lie_rank(family: str, n: int) -> int:
    return n - 1 if family == "sl" else n


def family_type(family: str, n: int) -> tuple[str, int]:
    return FAMILY_LETTER[family], lie_rank(family, n)


def unit(m: int, i: int, c: Fraction | int = 1) -> Vector:
    return tuple(Fraction(c) if k == i else Fraction(0) for k in range(m))


def add(*vectors: Vector) -> Vector:
    return tuple(sum(column, Fraction(0)) for column in zip(*vectors))


def scale(c: Fraction | int, v: Vector) -> Vector:
    return tuple(c * x for x in v)


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_lex_positive(v: Vector) -> bool:
    for c in v:
        if c:
            return c > 0
    return False


# ---------------------------------------------------------------------------
# The classical families in the coordinates a_1..a_n of their diagonal
# Cartan subalgebras.
# ---------------------------------------------------------------------------


def family_roots(family: str, n: int) -> list[Vector]:
    """Roots: e_i - e_j (sl); +-e_i +- e_j plus +-2e_i (sp), +-e_i (so-odd)."""
    e = [unit(n, i) for i in range(n)]
    if family == "sl":
        return [add(e[i], scale(-1, e[j])) for i in range(n) for j in range(n) if i != j]
    out = [
        add(scale(s, e[i]), scale(t, e[j]))
        for i in range(n)
        for j in range(i + 1, n)
        for s in (1, -1)
        for t in (1, -1)
    ]
    if family == "sp":
        out += [scale(s * 2, e[i]) for i in range(n) for s in (1, -1)]
    elif family == "so-odd":
        out += [scale(s, e[i]) for i in range(n) for s in (1, -1)]
    return out


def family_simple_roots(family: str, n: int) -> list[Vector]:
    """e_i - e_(i+1), then 2e_n (sp), e_(n-1) + e_n (so-even) or e_n (so-odd)."""
    e = [unit(n, i) for i in range(n)]
    out = [add(e[i], scale(-1, e[i + 1])) for i in range(n - 1)]
    if family == "sp":
        out.append(scale(2, e[n - 1]))
    elif family == "so-even":
        out.append(add(e[n - 2], e[n - 1]))
    elif family == "so-odd":
        out.append(e[n - 1])
    return out


def family_simple_coroots(family: str, n: int) -> list[Vector]:
    """2a / <a, a> for each simple root a, in the same coordinates."""
    return [scale(Fraction(2) / dot(a, a), a) for a in family_simple_roots(family, n)]


def family_fundamental_weights(family: str, n: int) -> list[Vector]:
    """The dual basis of the simple coroots (the sum-zero lift for sl)."""
    ones = [Fraction(1)] * n

    def partial(i: int, c: Fraction | int = 1) -> Vector:
        return tuple(Fraction(c) if k < i else Fraction(0) for k in range(n))

    if family == "sl":
        return [
            tuple(x - Fraction(i, n) * o for x, o in zip(partial(i), ones))
            for i in range(1, n)
        ]
    if family == "sp":
        return [partial(i) for i in range(1, n + 1)]
    if family == "so-odd":
        return [partial(i) for i in range(1, n)] + [partial(n, HALF)]
    last = partial(n, HALF)
    return (
        [partial(i) for i in range(1, n - 1)]
        + [last[:-1] + (-HALF,), last]
    )


def family_dimension(family: str, n: int) -> int:
    return {"sl": n * n - 1, "sp": n * (2 * n + 1), "so-even": n * (2 * n - 1),
            "so-odd": n * (2 * n + 1)}[family]


def family_realization_dim(family: str, n: int) -> int:
    return {"sl": n, "sp": 2 * n, "so-even": 2 * n, "so-odd": 2 * n + 1}[family]


def family_algebra_name(family: str, n: int) -> str:
    prefix = "sl" if family == "sl" else family[:2]
    return f"{prefix}_{family_realization_dim(family, n)}"


def killing_sum_coefficient(family: str, n: int) -> int:
    """kappa(x, y) = c * sum x_i y_i on the Cartan: 2n, 4(n+1), 4(n-1), 4n-2."""
    return {"sl": 2 * n, "sp": 4 * (n + 1), "so-even": 4 * (n - 1), "so-odd": 4 * n - 2}[family]


def killing_trace_coefficient(family: str, n: int) -> Fraction:
    """The same form against tr(xy); the doubled realizations halve it."""
    c = killing_sum_coefficient(family, n)
    return Fraction(c) if family == "sl" else Fraction(c, 2)


def invariant_degrees(family: str, n: int) -> list[int]:
    """Degrees of the basic invariants, in the program's suite order."""
    r = lie_rank(family, n)
    if family == "sl":
        return list(range(2, r + 2))
    if family == "so-even":
        return [2 * k for k in range(1, r)] + [r]
    return [2 * k for k in range(1, r + 1)]


# ---------------------------------------------------------------------------
# Cartan types.
# ---------------------------------------------------------------------------


def canonical_name(letter: str, r: int) -> str:
    """Low-rank coincidences under their usual names: C2 = B2, D3 = A3."""
    if letter == "C" and r == 2:
        return "B2"
    if letter == "D" and r == 3:
        return "A3"
    return f"{letter}{r}"


def weyl_order(letter: str, r: int) -> int:
    exceptional = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}
    if letter + str(r) in exceptional:
        return exceptional[letter + str(r)]
    if letter == "A":
        return factorial(r + 1)
    if letter == "D":
        return 2 ** (r - 1) * factorial(r)
    return 2**r * factorial(r)


def cartan_determinant(letter: str, r: int) -> int:
    return {"A": r + 1, "B": 2, "C": 2, "D": 4, "E": 9 - r, "F": 1, "G": 1}[letter]


def textbook_cartan(letter: str, r: int) -> list[list[int]]:
    """A_ij = 2<a_i, a_j>/<a_j, a_j>: B_r has -2 in its final column, C_r in its final row."""
    if letter in "EFG":
        return cartan_from_simple_roots(simple_roots(letter, r))
    A = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(r)] for i in range(r)]
    if letter == "B":
        A[r - 2][r - 1] = -2
    elif letter == "C":
        A[r - 1][r - 2] = -2
    elif letter == "D":
        A[r - 1][r - 2] = A[r - 2][r - 1] = 0
        A[r - 1][r - 3] = A[r - 3][r - 1] = -1
    return A


def cartan_from_simple_roots(simple: list[Vector]) -> list[list[int]]:
    rows = []
    for a in simple:
        row = []
        for b in simple:
            value = 2 * dot(a, b) / dot(b, b)
            if value.denominator != 1:
                raise ValueError(f"non-integral Cartan entry {value}")
            row.append(int(value))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Simple root systems in standard coordinates (for classify input files).
# ---------------------------------------------------------------------------


def _pm_pairs(m: int, limit: int | None = None) -> list[Vector]:
    """+-e_i +- e_j for i < j < limit, in R^m."""
    top = m if limit is None else limit
    return [
        add(unit(m, i, s), unit(m, j, t))
        for i in range(top)
        for j in range(i + 1, top)
        for s in (1, -1)
        for t in (1, -1)
    ]


def _e8_roots() -> list[Vector]:
    halves = [
        tuple(HALF * s for s in signs)
        for signs in product((1, -1), repeat=8)
        if signs.count(-1) % 2 == 0
    ]
    return _pm_pairs(8) + halves


def _orthogonal_to(roots: list[Vector], *normals: Vector) -> list[Vector]:
    return [v for v in roots if all(not dot(v, w) for w in normals)]


# E7 and E6 are the roots of E8 orthogonal to a root, and to an A2 pair.
_E7_NORMALS = (add(unit(8, 6), unit(8, 7)),)
_E6_NORMALS = _E7_NORMALS + (add(unit(8, 5), unit(8, 6, -1)),)


def root_system(letter: str, r: int) -> list[Vector]:
    """All roots of the simple type letter_r, in the usual ambient space."""
    if letter == "A":
        m = r + 1
        out = [add(unit(m, i), unit(m, j, -1)) for i in range(m) for j in range(m) if i != j]
    elif letter == "B":
        out = _pm_pairs(r) + [unit(r, i, s) for i in range(r) for s in (1, -1)]
    elif letter == "C":
        out = _pm_pairs(r) + [unit(r, i, 2 * s) for i in range(r) for s in (1, -1)]
    elif letter == "D":
        out = _pm_pairs(r)
    elif (letter, r) == ("G", 2):
        short = [add(unit(3, i), unit(3, j, -1)) for i in range(3) for j in range(3) if i != j]
        long = [
            scale(s, add(unit(3, i, 2), unit(3, (i + 1) % 3, -1), unit(3, (i + 2) % 3, -1)))
            for i in range(3)
            for s in (1, -1)
        ]
        out = short + long
    elif (letter, r) == ("F", 4):
        halves = [tuple(HALF * s for s in signs) for signs in product((1, -1), repeat=4)]
        out = _pm_pairs(4) + [unit(4, i, s) for i in range(4) for s in (1, -1)] + halves
    elif (letter, r) == ("E", 8):
        out = _e8_roots()
    elif (letter, r) == ("E", 7):
        out = _orthogonal_to(_e8_roots(), *_E7_NORMALS)
    elif (letter, r) == ("E", 6):
        out = _orthogonal_to(_e8_roots(), *_E6_NORMALS)
    else:
        raise ValueError(f"no simple type {letter}{r}")
    expected = ROOT_COUNTS[letter](r)
    if len(out) != expected:
        raise ValueError(f"{letter}{r}: built {len(out)} roots, expected {expected}")
    return out


ROOT_COUNTS = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "E": lambda r: {6: 72, 7: 126, 8: 240}[r],
    "F": lambda r: 48,
    "G": lambda r: 12,
}


def simple_roots(letter: str, r: int) -> list[Vector]:
    """A base of each simple type (Bourbaki's numbering for E, F, G)."""
    if letter in "ABCD":
        m = r + 1 if letter == "A" else r
        out = [add(unit(m, i), unit(m, i + 1, -1)) for i in range(r - 1)]
        if letter == "A":
            out.append(add(unit(m, r - 1), unit(m, r, -1)))
        elif letter == "B":
            out.append(unit(m, r - 1))
        elif letter == "C":
            out.append(unit(m, r - 1, 2))
        else:
            out.append(add(unit(m, r - 2), unit(m, r - 1)))
        return out
    if (letter, r) == ("G", 2):
        return [add(unit(3, 0), unit(3, 1, -1)), add(unit(3, 0, -2), unit(3, 1), unit(3, 2))]
    if (letter, r) == ("F", 4):
        return [
            add(unit(4, 1), unit(4, 2, -1)),
            add(unit(4, 2), unit(4, 3, -1)),
            unit(4, 3),
            (HALF, -HALF, -HALF, -HALF),
        ]
    if letter == "E" and r in (6, 7, 8):
        e8 = [
            (HALF, -HALF, -HALF, -HALF, -HALF, -HALF, -HALF, HALF),
            add(unit(8, 0), unit(8, 1)),
        ] + [add(unit(8, k + 1), unit(8, k, -1)) for k in range(6)]
        return e8[:r]
    raise ValueError(f"no simple type {letter}{r}")
