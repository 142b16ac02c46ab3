"""Cartan matrices, Dynkin diagrams, their classification, and Serre presentations.

``CartanMatrix`` is the one Cartan-matrix record: ``forms`` builds it from a
root datum, ``classify`` from a file's vectors or matrix.  A ``DynkinDiagram``
holds one and reads its edges and their arrows off the entries.

Each connected component is walked once, into a layout: a main chain in
drawing order plus at most one vertex hung under a fork.  Classification
reads the type off that layout and the text rendering draws it, so the two
always agree on a component's shape; a component with no layout is
NotSimple and is drawn as its edge list.

Positive definiteness of the diagram's quadratic form (whose Gram matrix has
irrational off-diagonal entries -sqrt(n_ij)) is decided exactly from A alone:
that matrix is congruent by a positive diagonal scaling to B_ij = A_ij l_j,
where l are the lengths A implies, A_ij / A_ji = l_i / l_j (Humphreys 11.4).
B's leading minors are checked in exact arithmetic.

A Serre relation is data, a bracket word equal to a multiple of one
generator or to 0, checked on the stored sl2 triples of the fundamental roots.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations

from . import edges, roots
from .exact import Inner, Scalar, Weight, ratio
from .matrices import is_positive_definite
from .records import Check, CheckReport, InternalConsistencyError, Record


class CartanMatrix(Record):
    """Integer matrix with diagonal 2 and nonpositive off-diagonal entries.

    The rows are stored as tuples, so a matrix given as lists equals and
    hashes as the same one given as tuples.  Every entry must be an int: a
    bool, a float or a Fraction raises TypeError naming its position (i,j),
    counted from 1 as in A_ij.
    """

    __slots__ = ("entries",)
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Sequence[Sequence[int]]) -> None:
        entries = tuple(map(tuple, entries))
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise ValueError("Cartan matrix must be square and nonempty")
        for i, row in enumerate(entries, 1):
            for j, a in enumerate(row, 1):
                if type(a) is not int:
                    raise TypeError(
                        f"Cartan entry ({i},{j}) must be an int, got {type(a).__name__}"
                    )
        for i in range(n):
            if entries[i][i] != 2:
                raise ValueError("Cartan matrix diagonal entries must equal 2")
            for j in range(n):
                if i == j:
                    continue
                a = entries[i][j]
                if a not in (0, -1, -2, -3):
                    raise ValueError(f"off-diagonal Cartan entry {a} outside {{0,-1,-2,-3}}")
                if (a == 0) != (entries[j][i] == 0):
                    raise ValueError("Cartan entries A_ij and A_ji must vanish together")
        super().__init__(entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]


def cartan_entries(fundamental: Sequence[Weight], inner: Inner) -> tuple[tuple[int, ...], ...]:
    """Entries 2<a_i,a_j>/<a_j,a_j>; a non-integer one is an internal inconsistency."""
    norms = [inner(a, a) for a in fundamental]
    return integer_rows(
        "Cartan entry",
        ((ratio(2 * inner(a, b), norm) for b, norm in zip(fundamental, norms)) for a in fundamental),
    )


def integer_rows(what: str, rows: Iterable[Iterable[Scalar]]) -> tuple[tuple[int, ...], ...]:
    """The rows of canonical values, checked in order to be ints; a non-integer
    entry is an internal inconsistency."""
    out = []
    for i, row in enumerate(rows, 1):
        out.append([])
        for j, value in enumerate(row, 1):
            if type(value) is not int:
                raise InternalConsistencyError(f"{what} ({i},{j}) = {value} is not an integer")
            out[-1].append(value)
    return tuple(map(tuple, out))


class DynkinDiagram(Record):
    """The diagram of a Cartan matrix: n_ij = A_ij A_ji <= 3 edges between i and j."""

    __slots__ = ("cartan",)
    cartan: CartanMatrix

    def __init__(self, cartan: CartanMatrix) -> None:
        if type(cartan) is not CartanMatrix:
            raise TypeError(f"DynkinDiagram needs a CartanMatrix, got {type(cartan).__name__}")
        super().__init__(cartan)
        for i, j in combinations(range(cartan.rank), 2):
            if (m := self.multiplicity(i, j)) > 3:
                raise ValueError(f"edge multiplicity {m} between vertices {i + 1},{j + 1} exceeds 3")

    @property
    def nvertices(self) -> int:
        return self.cartan.rank

    def multiplicity(self, i: int, j: int) -> int:
        A = self.cartan.entries
        return A[i][j] * A[j][i] if i != j else 0

    def neighbors(self, i: int) -> list[int]:
        return [j for j, a in enumerate(self.cartan.entries[i]) if a and j != i]

    def components(self) -> list[list[int]]:
        seen: set[int] = set()
        out = []
        for start in range(self.nvertices):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            stack = [start]
            while stack:
                v = stack.pop()
                for w in self.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            out.append(sorted(comp))
        return out


# The same as DynkinDiagram(A); kept because bench/traced.py spans it by name.
def build_diagram(A: CartanMatrix) -> DynkinDiagram:
    return DynkinDiagram(A)


def lengths_from_cartan(A: CartanMatrix) -> list[Scalar]:
    """Relative squared lengths implied by a Cartan matrix.

    A_ij / A_ji equals the length ratio of roots i and j, which pins every
    length up to one scale per connected component; inconsistent ratios on a
    cycle are rejected.
    """
    n = A.rank
    lengths: list[Scalar | None] = [None] * n
    for start in range(n):
        if lengths[start] is not None:
            continue
        lengths[start] = 2
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i or not A[i, j]:
                    continue
                implied = ratio(lengths[i] * A[j, i], A[i, j])
                if lengths[j] is None:
                    lengths[j] = implied
                    stack.append(j)
                elif lengths[j] != implied:
                    raise ValueError("Cartan matrix implies inconsistent root lengths")
    return lengths


def check_positive_definite(A: CartanMatrix) -> bool:
    """Exact positive-definiteness of B_ij = A_ij l_j, l from ``lengths_from_cartan``."""
    lengths = lengths_from_cartan(A)
    return is_positive_definite([[a * l for a, l in zip(row, lengths)] for row in A.entries])


NOT_SIMPLE = "NotSimple"


def classify(d: DynkinDiagram) -> tuple[str, ...]:
    """Names of the connected components against the simple diagram list.

    Low-rank coincidences are reported under their canonical names: a
    two-vertex double edge is B2 (= C2), a three-vertex simple chain is A3
    (= D3).  Anything outside the simple list comes back as NotSimple.
    """
    return tuple(_classify_component(d, comp) for comp in d.components())


def ascii_diagram(d: DynkinDiagram) -> str:
    """Deterministic text rendering.

    Grammar: vertices are "o"; a simple edge is "-"; a double edge is "=>"
    or "<=" with the arrow toward the shorter root; a triple edge uses
    3-bar arrows.  A fork (D or E shape) puts the highest-indexed branch
    vertex on a second line under its attachment point.  Disconnected
    diagrams render one component per line; diagrams outside these shapes
    fall back to an edge list.
    """
    return "\n".join(_render_component(d, comp) for comp in d.components())


def _layout(d: DynkinDiagram, comp: list[int]) -> tuple[list[int], int | None] | None:
    """The component as a main chain plus at most one tine, or None.

    ``path`` runs from the lower-indexed end, taking the lowest unvisited
    neighbour at each step.  ``below`` is the highest-indexed degree-1
    neighbour of the one degree-3 fork, left off the chain, or None when
    there is no fork.  Only trees with two ends and no fork, or three ends
    around one fork with a length-1 arm, have a layout.
    """
    degree = {v: len(d.neighbors(v)) for v in comp}
    forks = [v for v in comp if degree[v] > 2]
    tree = sum(degree.values()) == 2 * len(comp) - 2
    if not tree or len(forks) > 1 or max(degree.values()) > 3:
        return None
    below = None
    if forks:
        tines = [v for v in d.neighbors(forks[0]) if degree[v] == 1]
        if not tines:
            return None
        below = max(tines)
    path = [min(v for v in comp if degree[v] <= 1 and v != below)]  # an end, or a lone vertex
    while len(path) < len(comp) - (below is not None):
        path.append(next(w for w in d.neighbors(path[-1]) if w not in path and w != below))
    return path, below


def _shorter(d: DynkinDiagram, u: int, v: int) -> int:
    # The arrow points at the shorter root: A_uv / A_vu = <a_u,a_u> / <a_v,a_v> (Humphreys 11.4).
    return v if d.cartan[u, v] < d.cartan[v, u] else u


def _classify_component(d: DynkinDiagram, comp: list[int]) -> str:
    layout = _layout(d, comp)
    if layout is None:
        return NOT_SIMPLE
    path, below = layout
    m = len(comp)
    mults = [d.multiplicity(u, v) for u, v in zip(path, path[1:])]
    if below is not None:
        i = path.index(d.neighbors(below)[0])
        arms = sorted((1, i, len(path) - 1 - i))
        if max(mults) > 1 or d.multiplicity(path[i], below) > 1:
            return NOT_SIMPLE
        if arms[1] == 1:
            return f"D{m}"
        return f"E{arms[2] + 4}" if arms[1] == 2 and arms[2] <= 4 else NOT_SIMPLE
    if 3 in mults:
        return "G2" if m == 2 else NOT_SIMPLE
    doubles = [k for k, mult in enumerate(mults) if mult == 2]
    if not doubles:
        return f"A{m}"
    if len(doubles) > 1:
        return NOT_SIMPLE
    if m == 2:
        return "B2"
    (k,) = doubles
    if 0 < k < m - 2:
        return "F4" if m == 4 else NOT_SIMPLE
    terminal = path[0] if k == 0 else path[-1]
    return f"B{m}" if _shorter(d, path[k], path[k + 1]) == terminal else f"C{m}"


def _render_component(d: DynkinDiagram, comp: list[int]) -> str:
    layout = _layout(d, comp)
    if layout is None:
        items = [
            f"{u + 1}~{v + 1}x{d.multiplicity(u, v)}"
            for k, u in enumerate(comp)
            for v in comp[k + 1 :]
            if d.multiplicity(u, v)
        ]
        return "edges(" + ",".join(items) + ")"
    path, below = layout
    line = "o" + "".join(_edge_text(d, u, v) + "o" for u, v in zip(path, path[1:]))
    if below is None:
        return line
    return line + "\n" + " " * (2 * path.index(d.neighbors(below)[0]) + 1) + "\\-o"


def _edge_text(d: DynkinDiagram, left: int, right: int) -> str:
    mult = d.multiplicity(left, right)
    if mult == 1:
        return "-"
    bars = "=" * (mult - 1)
    return bars + ">" if _shorter(d, left, right) == right else "<" + bars


# ---------------------------------------------------------------------------
# Serre presentations.
# ---------------------------------------------------------------------------


class SerreRelation(Record):
    """One defining relation: a bracket word equal to a multiple of a generator, or 0.

    A generator is a letter "H", "X" or "Y" and a 0-based index.  ``word``
    (g_1, ..., g_k) is the right-nested bracket [g_1,[g_2,[...,g_k]]].  The
    relation states word = coefficient * target; it states word = 0 when
    ``target`` is None, and word = target when ``coefficient`` is None.  Both
    default to None.  The word is nonempty, every index an int >= 0, and the
    coefficient None or an int, given only with a target.
    """

    __slots__ = ("word", "target", "coefficient")
    word: tuple[tuple[str, int], ...]
    target: tuple[str, int] | None
    coefficient: int | None

    def __init__(self, word, target=None, coefficient=None) -> None:
        word = tuple(map(_generator, word))
        if not word:
            raise ValueError("a Serre relation needs a nonempty word")
        if coefficient is not None and type(coefficient) is not int:
            raise TypeError(f"Serre coefficient must be an int, got {type(coefficient).__name__}")
        if coefficient is not None and target is None:
            raise ValueError("a Serre relation with no target takes no coefficient")
        super().__init__(word, None if target is None else _generator(target), coefficient)

    def describe(self) -> str:
        name = lambda g: f"{g[0]}{g[1] + 1}"
        body = name(self.word[-1])
        for g in reversed(self.word[:-1]):
            body = f"[{name(g)},{body}]"
        if self.target is None:
            return f"{body} = 0"
        if self.coefficient is None:
            return f"{body} = {name(self.target)}"
        return f"{body} = {self.coefficient} {name(self.target)}"

    def holds(self, generators: dict[str, Sequence[edges.EdgeMatrix]]) -> bool:
        """Evaluate the relation exactly on matrices for each letter."""
        value_of = lambda g: generators[g[0]][g[1]]
        value = value_of(self.word[-1])
        for g in reversed(self.word[:-1]):
            value = edges.mat_bracket(value_of(g), value)
        if self.target is None:
            return value.is_zero()
        target = value_of(self.target)
        return value == (target if self.coefficient is None else target.scale(self.coefficient))


def _generator(g: Sequence) -> tuple[str, int]:
    letter, index = g
    if type(index) is not int:
        raise TypeError(f"Serre generator index must be an int, got {type(index).__name__}")
    if letter not in ("H", "X", "Y") or index < 0:
        raise ValueError(f"Serre generator {g!r} is not a letter H, X or Y and an index >= 0")
    return letter, index


class SerrePresentation(Record):
    """Generators H_i, X_i, Y_i, i below the rank of ``cartan``, and a tuple of relations."""

    __slots__ = ("cartan", "relations")
    cartan: CartanMatrix
    relations: tuple[SerreRelation, ...]

    def __init__(self, cartan: CartanMatrix, relations: tuple[SerreRelation, ...]) -> None:
        if type(cartan) is not CartanMatrix:
            raise TypeError(f"SerrePresentation needs a CartanMatrix, got {type(cartan).__name__}")
        if type(relations) is not tuple or any(type(r) is not SerreRelation for r in relations):
            raise TypeError("Serre relations must be a tuple of SerreRelation")
        for rel in relations:
            named = rel.word if rel.target is None else (*rel.word, rel.target)
            if any(i >= cartan.rank for _, i in named):
                raise ValueError(f"{rel.describe()} names a generator beyond rank {cartan.rank}")
        super().__init__(cartan, relations)

    @property
    def rank(self) -> int:
        return self.cartan.rank


def serre_presentation(A: CartanMatrix) -> SerrePresentation:
    """The defining relations read off a Cartan matrix.

    The nilpotency depth for an off-diagonal entry A_ij is 1 - A_ij nested
    brackets of the outer generator around the inner one.
    """
    n = A.rank
    pairs = [(i, j) for i in range(n) for j in range(n)]
    relations = [
        *(SerreRelation((("H", i), ("H", j))) for i, j in pairs if i < j),
        *(SerreRelation((("X", i), ("Y", i)), ("H", i)) for i in range(n)),
        *(SerreRelation((("X", i), ("Y", j))) for i, j in pairs if i != j),
        *(SerreRelation((("H", i), ("X", j)), ("X", j), A[i, j]) for i, j in pairs),
        *(SerreRelation((("H", i), ("Y", j)), ("Y", j), -A[i, j]) for i, j in pairs),
        *(
            SerreRelation(((letter, i),) * (1 - A[i, j]) + ((letter, j),))
            for letter in "XY"
            for i, j in pairs
            if i != j
        ),
    ]
    return SerrePresentation(cartan=A, relations=tuple(relations))


def verify_serre(rd: roots.RootDatum, p: SerrePresentation) -> CheckReport:
    """Substitute the canonical triples into a presentation and check it.

    H_i is the i-th fundamental coroot, X_i the fundamental root vector, and
    Y_i its stored partner, the opposite root vector scaled so that
    [X_i, Y_i] = H_i.
    """
    if p.rank != rd.spec.lie_rank:
        raise ValueError(
            f"presentation rank {p.rank} does not match Lie rank {rd.spec.lie_rank}"
        )
    generators = {
        "H": rd.fundamental_coroots,
        "X": [rd.root_vector(a) for a in rd.fundamental_roots],
        "Y": [rd.partners[a] for a in rd.fundamental_roots],
    }
    return CheckReport(
        Check.of("serre", rel.describe(), rel.holds(generators), "exact matrix identity")
        for rel in p.relations
    )
