"""classify and ascii_diagram against the two-walk implementation they replaced.

The reference below is the earlier code verbatim: classification and
rendering each counted degrees, found the fork and walked the arms on their
own.  The library now reads both from one layout per component; the output
must not change on every diagram up to four vertices (multiplicities 0-3,
both arrow directions), on seeded random cycles, stars, trees and graphs on
5-10 vertices, and on the diagram of every classical family up to rank 8.

A diagram is built from the Cartan matrix of an edge table, and the
reference reads each arrow from that table (or, for a family, from its root
lengths) rather than from the matrix the library reads it off.
"""

import random
from itertools import combinations, product

import pytest

from conftest import family_ranks, root_datum

import liealg as L
from liealg.dynkin import CartanMatrix, DynkinDiagram, ascii_diagram, build_diagram, classify

NOT_SIMPLE = "NotSimple"


# ---------------------------------------------------------------------------
# Reference implementation (verbatim).
# ---------------------------------------------------------------------------


def reference_classify(d: DynkinDiagram) -> tuple[str, ...]:
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


def reference_ascii(d: DynkinDiagram) -> str:
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
# Diagrams.
# ---------------------------------------------------------------------------


class Drawn:
    """A library diagram, read by the reference through its multiplicities and
    neighbours, with the (longer, shorter) arrows of the table it was drawn from."""

    def __init__(self, d: DynkinDiagram, arrows: tuple[tuple[int, int], ...]):
        self.diagram, self.arrows = d, arrows
        self.multiplicity, self.neighbors, self.components = (
            d.multiplicity, d.neighbors, d.components)


def diagram(n: int, edges: dict[tuple[int, int], tuple[int, bool]]) -> Drawn:
    """Edges {(i, j): (multiplicity, arrow i -> j)}; the arrow counts only when m >= 2.

    A simple edge is A_ij = A_ji = -1; a multiple edge with its arrow i -> j,
    toward the shorter root j, is A_ij = -m, A_ji = -1.
    """
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    arrows = []
    for (i, j), (m, forward) in edges.items():
        if m:
            longer, shorter = (i, j) if forward else (j, i)
            rows[longer][shorter], rows[shorter][longer] = -m, -1
        if m >= 2:
            arrows.append((longer, shorter))
    return Drawn(DynkinDiagram(CartanMatrix(rows)), tuple(sorted(arrows)))


EDGE_STATES = ((0, True), (1, True), (2, True), (2, False), (3, True), (3, False))


def all_small_diagrams():
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        for states in product(EDGE_STATES, repeat=len(pairs)):
            yield diagram(n, dict(zip(pairs, states)))


def random_edges(rng: random.Random, n: int) -> set[tuple[int, int]]:
    shape = rng.choice(("tree", "star", "cycle", "graph"))
    if shape == "graph":
        p = rng.choice((0.2, 0.35, 0.5))
        return {(i, j) for i, j in combinations(range(n), 2) if rng.random() < p}
    if shape == "star":
        arms = [1] * rng.randint(3, 4)
        for _ in range(n - 1 - len(arms)):
            arms[rng.randrange(len(arms))] += 1
        edges, at = set(), 1
        for length in arms:
            prev = 0
            for _ in range(length):
                edges.add((prev, at))
                prev, at = at, at + 1
        return edges
    edges = {(rng.randrange(k), k) for k in range(1, n)}
    if shape == "cycle":
        for _ in range(rng.randint(1, 2)):
            i, j = rng.sample(range(n), 2)
            edges.add((min(i, j), max(i, j)))
    return edges


def random_diagram(rng: random.Random) -> Drawn:
    n = rng.randint(5, 10)
    label = list(range(n))
    rng.shuffle(label)
    edges = {}
    for i, j in random_edges(rng, n):
        a, b = sorted((label[i], label[j]))
        m = rng.choices((1, 2, 3), weights=(16, 3, 1))[0]
        edges[a, b] = (m, rng.random() < 0.5)
    return diagram(n, edges)


def assert_same(drawn: Drawn):
    d = drawn.diagram
    assert classify(d) == reference_classify(drawn), d
    assert ascii_diagram(d) == reference_ascii(drawn), d


# ---------------------------------------------------------------------------
# Tests.
# ---------------------------------------------------------------------------


def test_every_diagram_up_to_four_vertices():
    count = 0
    for d in all_small_diagrams():
        assert_same(d)
        count += 1
    assert count == 46_879


def test_seeded_random_diagrams():
    rng = random.Random(20051)
    names = set()
    for _ in range(6_000):
        drawn = random_diagram(rng)
        assert_same(drawn)
        names.update(name[0] for name in classify(drawn.diagram))
    # The sample reaches every letter that has a rank between 5 and 10.
    assert names >= {"A", "B", "C", "D", "E", "N"}


@pytest.mark.parametrize("family,n", family_ranks(8))
def test_classical_family_diagrams(family, n):
    rd = root_datum(family, n)
    lengths = L.root_lengths(rd)
    d = build_diagram(L.cartan_matrix(rd))
    arrows = [(i, j) if lengths[i] > lengths[j] else (j, i)
              for i, j in combinations(range(len(lengths)), 2) if d.multiplicity(i, j) >= 2]
    assert_same(Drawn(d, tuple(sorted(arrows))))
