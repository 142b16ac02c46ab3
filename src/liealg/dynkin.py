"""Dynkin diagrams, their classification, and Serre presentations.

Positive definiteness of the diagram's quadratic form (whose Gram matrix has
irrational off-diagonal entries -sqrt(n_ij)) is decided exactly: that matrix
is congruent by a positive diagonal scaling to the rational symmetrization
B_ij = A_ij <a_j, a_j>, whose leading minors are checked in exact arithmetic.

A Serre relation is data, a bracket word equal to a multiple of one
generator or to 0, checked on the stored sl2 triples of the fundamental roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .catalog import Check, CheckReport
from .exact import Scalar, as_fraction
from .forms import CartanMatrix
from .matrices import EdgeMatrix, is_positive_definite, mat_bracket
from .roots import RootDatum


@dataclass(frozen=True)
class DynkinDiagram:
    """Vertices with edge multiplicities 0..3 and arrows toward shorter roots."""

    nvertices: int
    multiplicities: tuple[tuple[int, ...], ...]
    arrows: tuple[tuple[int, int], ...]  # (longer, shorter), 0-indexed

    def multiplicity(self, i: int, j: int) -> int:
        return self.multiplicities[i][j]

    def neighbors(self, i: int) -> list[int]:
        return [j for j in range(self.nvertices) if j != i and self.multiplicities[i][j]]

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


def build_diagram(A: CartanMatrix, lengths: Sequence[Scalar]) -> DynkinDiagram:
    """Diagram with n_ij = A_ij A_ji edges and arrows toward shorter roots.

    A multiple edge between roots of equal length is rejected: the arrow
    rule requires a strictly shorter endpoint.
    """
    n = A.rank
    if len(lengths) != n:
        raise ValueError("lengths must match the Cartan matrix rank")
    lens = [as_fraction(x) for x in lengths]
    if any(x <= 0 for x in lens):
        raise ValueError("root lengths must be positive")
    mult = [[0] * n for _ in range(n)]
    arrows = []
    for i in range(n):
        for j in range(i + 1, n):
            m = A[i, j] * A[j, i]
            if m > 3:
                raise ValueError(
                    f"edge multiplicity {m} between vertices {i + 1},{j + 1} exceeds 3"
                )
            mult[i][j] = mult[j][i] = m
            if m >= 2:
                if lens[i] == lens[j]:
                    raise ValueError(
                        f"multiple edge between equal-length roots {i + 1},{j + 1}"
                    )
                longer, shorter = (i, j) if lens[i] > lens[j] else (j, i)
                arrows.append((longer, shorter))
    return DynkinDiagram(
        nvertices=n,
        multiplicities=tuple(tuple(row) for row in mult),
        arrows=tuple(sorted(arrows)),
    )


def lengths_from_cartan(A: CartanMatrix) -> list[Fraction]:
    """Relative squared lengths implied by a Cartan matrix.

    A_ij / A_ji equals the length ratio of roots i and j, which pins every
    length up to one scale per connected component; inconsistent ratios on a
    cycle are rejected.
    """
    n = A.rank
    lengths: list[Fraction | None] = [None] * n
    for start in range(n):
        if lengths[start] is not None:
            continue
        lengths[start] = Fraction(2)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i or not A[i, j]:
                    continue
                implied = lengths[i] * Fraction(A[j, i], A[i, j])
                if lengths[j] is None:
                    lengths[j] = implied
                    stack.append(j)
                elif lengths[j] != implied:
                    raise ValueError("Cartan matrix implies inconsistent root lengths")
    return [x for x in lengths if x is not None]


def check_positive_definite(
    d: DynkinDiagram, A: CartanMatrix, lengths: Sequence[Scalar]
) -> bool:
    """Exact positive-definiteness of the diagram's quadratic form."""
    n = A.rank
    if d.nvertices != n or len(lengths) != n:
        raise ValueError("diagram, Cartan matrix, and lengths must agree in size")
    lens = [as_fraction(x) for x in lengths]
    sym = [[A[i, j] * lens[j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if sym[i][j] != sym[j][i]:
                raise ValueError("lengths are inconsistent with the Cartan matrix")
    return is_positive_definite(sym)


NOT_SIMPLE = "NotSimple"


def classify(d: DynkinDiagram) -> tuple[str, ...]:
    """Names of the connected components against the simple diagram list.

    Low-rank coincidences are reported under their canonical names: a
    two-vertex double edge is B2 (= C2), a three-vertex simple chain is A3
    (= D3).  Anything outside the simple list comes back as NotSimple.
    """
    return tuple(_classify_component(d, comp) for comp in d.components())


def _classify_component(d: DynkinDiagram, comp: list[int]) -> str:
    m = len(comp)
    if m == 1:
        return "A1"
    edges = [
        (u, v)
        for k, u in enumerate(comp)
        for v in comp[k + 1 :]
        if d.multiplicity(u, v)
    ]
    if len(edges) != m - 1:
        return NOT_SIMPLE  # a cycle (or worse); simple diagrams are trees
    degree = {v: len([u for u in comp if u != v and d.multiplicity(u, v)]) for v in comp}
    triples = [e for e in edges if d.multiplicity(*e) == 3]
    doubles = [e for e in edges if d.multiplicity(*e) == 2]

    if triples:
        return "G2" if m == 2 and not doubles else NOT_SIMPLE
    if not doubles:
        forks = [v for v in comp if degree[v] >= 3]
        if not forks:
            return f"A{m}"
        if len(forks) > 1 or degree[forks[0]] > 3:
            return NOT_SIMPLE
        branches = sorted(_branch_sizes(d, comp, forks[0]))
        if branches[0] == 1 and branches[1] == 1:
            return f"D{m}"
        if branches[0] == 1 and branches[1] == 2 and branches[2] in (2, 3, 4):
            return f"E{branches[2] + 4}"
        return NOT_SIMPLE
    if len(doubles) > 1 or any(degree[v] > 2 for v in comp):
        return NOT_SIMPLE
    u, v = doubles[0]
    if m == 2:
        return "B2"
    u_terminal = degree[u] == 1
    v_terminal = degree[v] == 1
    if not u_terminal and not v_terminal:
        return "F4" if m == 4 else NOT_SIMPLE
    if u_terminal and v_terminal:
        return NOT_SIMPLE  # double edge as a separate path segment cannot occur here
    terminal = u if u_terminal else v
    arrow = next(a for a in d.arrows if set(a) == {u, v})
    _, shorter = arrow
    return f"B{m}" if shorter == terminal else f"C{m}"


def _branch_sizes(d: DynkinDiagram, comp: list[int], fork: int) -> list[int]:
    sizes = []
    for start in d.neighbors(fork):
        size = 0
        prev, cur = fork, start
        while True:
            size += 1
            nxt = [w for w in d.neighbors(cur) if w != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return [-1, -1, -1]  # nested fork; caller rejects
            prev, cur = cur, nxt[0]
        sizes.append(size)
    return sizes


def ascii_diagram(d: DynkinDiagram) -> str:
    """Deterministic text rendering.

    Grammar: vertices are "o"; a simple edge is "-"; a double edge is "=>"
    or "<=" with the arrow toward the shorter root; a triple edge uses
    3-bar arrows.  A fork (D or E shape) puts the highest-indexed branch
    vertex on a second line under its attachment point.  Disconnected
    diagrams render one component per line; diagrams outside these shapes
    fall back to an edge list.
    """
    parts = [_render_component(d, comp) for comp in d.components()]
    return "\n".join(parts)


def _edge_text(d: DynkinDiagram, left: int, right: int) -> str:
    mult = d.multiplicity(left, right)
    if mult == 1:
        return "-"
    arrow = next(a for a in d.arrows if set(a) == {left, right})
    _, shorter = arrow
    if mult == 2:
        return "=>" if shorter == right else "<="
    return "==>" if shorter == right else "<=="


def _render_component(d: DynkinDiagram, comp: list[int]) -> str:
    if len(comp) == 1:
        return "o"
    degree = {v: len([u for u in comp if u != v and d.multiplicity(u, v)]) for v in comp}
    forks = [v for v in comp if degree[v] == 3]
    if any(degree[v] > 3 for v in comp) or len(forks) > 1:
        return _render_edge_list(d, comp)

    if not forks:
        ends = sorted(v for v in comp if degree[v] == 1)
        if len(ends) != 2:
            return _render_edge_list(d, comp)
        return _render_path(d, _walk_path(d, ends[0], None))

    fork = forks[0]
    tines = sorted(
        (v for v in d.neighbors(fork) if degree[v] == 1), reverse=True
    )
    if not tines:
        return _render_edge_list(d, comp)
    below = tines[0]
    remaining_ends = [v for v in comp if degree[v] == 1 and v != below]
    if len(remaining_ends) != 2:
        return _render_edge_list(d, comp)
    start = min(remaining_ends)
    path = _walk_path(d, start, below)
    line1 = _render_path(d, path)
    column = 2 * path.index(fork)
    line2 = " " * (column + 1) + "\\-o"
    return line1 + "\n" + line2


def _walk_path(d: DynkinDiagram, start: int, skip: int | None) -> list[int]:
    path = [start]
    prev = None
    cur = start
    while True:
        nxt = [w for w in d.neighbors(cur) if w != prev and w != skip]
        if not nxt:
            return path
        prev, cur = cur, min(nxt)
        path.append(cur)


def _render_path(d: DynkinDiagram, path: list[int]) -> str:
    out = ["o"]
    for left, right in zip(path, path[1:]):
        out.append(_edge_text(d, left, right))
        out.append("o")
    return "".join(out)


def _render_edge_list(d: DynkinDiagram, comp: list[int]) -> str:
    items = []
    for k, u in enumerate(comp):
        for v in comp[k + 1 :]:
            mult = d.multiplicity(u, v)
            if mult:
                items.append(f"{u + 1}~{v + 1}x{mult}")
    return "edges(" + ",".join(items) + ")"


# ---------------------------------------------------------------------------
# Serre presentations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SerreRelation:
    """One defining relation: a bracket word equal to a multiple of a generator, or 0.

    A generator is a letter "H", "X" or "Y" and a 0-based index.  ``word``
    (g_1, ..., g_k) is the right-nested bracket [g_1,[g_2,[...,g_k]]].  The
    relation states word = coefficient * target; it states word = 0 when
    ``target`` is None, and word = target when ``coefficient`` is None.
    """

    word: tuple[tuple[str, int], ...]
    target: tuple[str, int] | None = None
    coefficient: int | None = None

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

    def holds(self, generators: dict[str, Sequence[EdgeMatrix]]) -> bool:
        """Evaluate the relation exactly on matrices for each letter."""
        value_of = lambda g: generators[g[0]][g[1]]
        value = value_of(self.word[-1])
        for g in reversed(self.word[:-1]):
            value = mat_bracket(value_of(g), value)
        if self.target is None:
            return value.is_zero()
        target = value_of(self.target)
        return value == (target if self.coefficient is None else target.scale(self.coefficient))


@dataclass(frozen=True)
class SerrePresentation:
    """Generators H_i, X_i, Y_i and the full relation list."""

    cartan: CartanMatrix
    relations: tuple[SerreRelation, ...]

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


def verify_serre(rd: RootDatum, p: SerrePresentation) -> CheckReport:
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
        tuple(
            Check.of("serre", rel.describe(), rel.holds(generators), "exact matrix identity")
            for rel in p.relations
        )
    )
