"""Weyl groups as signed permutations, generated by simple reflections.

An element is its window: the tuple w = (w_1, ..., w_n) of nonzero ints in
which w_k = +i or -i means e_k -> +e_i or -e_i.  The action on coordinate
vectors is (w x)_{|w_k|} = sign(w_k) x_k, and g after h has window
(sign(h_k) g_{|h_k|})_k.  Windows are checked where they come in (the simple
reflections and the generators of a closure); composition keeps them valid.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from operator import itemgetter

from . import roots
from .exact import Scalar, canonical
from .records import InternalConsistencyError

Window = tuple[int, ...]


class WeylOverflowError(RuntimeError):
    """Breadth-first closure exceeded the requested cap."""


def compose(g: Window, h: Window) -> Window:
    """The element acting as g after h."""
    if len(g) != len(h):
        raise ValueError(f"size mismatch: {len(g)} vs {len(h)}")
    return tuple(g[v - 1] if v > 0 else -g[-v - 1] for v in h)


def apply(g: Window, x: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Signed-permutation action on an exact coordinate vector."""
    if len(x) != len(g):
        raise ValueError(f"length mismatch: vector {len(x)}, carrier {len(g)}")
    out = [0] * len(g)
    for v, a in zip(g, map(canonical, x)):
        out[abs(v) - 1] = a if v > 0 else -a
    return tuple(out)


def simple_reflections(rd: roots.RootDatum) -> list[Window]:
    """The reflections of the fundamental roots, as windows.

    Each reflection h -> h - a(h) h_a is computed on the diagonal coordinate
    space and must come out as a signed permutation matrix; anything else
    signals an inconsistent root datum.
    """
    r = rd.realization
    n = r.spec.rank
    out = []
    for alpha, coroot in zip(rd.fundamental_roots, rd.fundamental_coroots):
        h_coords = r.diag_coords(coroot)
        window = []
        for k in range(n):
            column = [canonical((i == k) - alpha[k] * h_coords[i]) for i in range(n)]
            support = [i for i, v in enumerate(column) if v]
            if len(support) != 1 or column[support[0]] not in (1, -1):
                raise InternalConsistencyError(
                    "reflection is not a signed permutation of the coordinates"
                )
            window.append(column[support[0]] * (support[0] + 1))
        out.append(tuple(window))
    return out


def _source(positions: Sequence[int]) -> Callable[[Window], Window]:
    """The map w -> (w[p] for p in positions), always returning a tuple.

    ``itemgetter`` with one index returns the item itself, so a single
    position (a carrier of size 1) reads a one-entry slice instead.
    """
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


def generate(gens: Sequence[Window], cap: int = 100_000) -> frozenset[Window]:
    """Breadth-first closure of the generators under composition.

    Raises ValueError unless the generators are windows of one length n,
    each a signed permutation of 1..n, and WeylOverflowError as soon as the
    group would exceed ``cap``; truncation is never silent.

    Each step forms ``compose(element, g)`` without calling it: the entries
    of ``element`` at the positions |g_k| - 1 are read by one precomputed
    ``itemgetter``, mapped over the whole frontier for one generator at a
    time, and only the positions k with g_k < 0 (at most two for a simple
    reflection) are then negated.
    """
    if not gens:
        raise ValueError("at least one generator required")
    if cap <= 0:
        raise ValueError("cap must be positive")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise ValueError("generators must share one carrier size")
    for g in gens:
        if sorted(abs(v) for v in g) != list(range(1, n + 1)):
            raise ValueError(f"not a signed permutation of 1..{n}: {g}")
    steps = [
        (_source([abs(v) - 1 for v in g]), [k for k, v in enumerate(g) if v < 0])
        for g in gens
    ]
    identity = tuple(range(1, n + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for source, flips in steps:
            for candidate in map(source, frontier):
                if flips:
                    entries = list(candidate)
                    for k in flips:
                        entries[k] = -entries[k]
                    candidate = tuple(entries)
                if candidate not in seen:
                    seen.add(candidate)
                    if len(seen) > cap:
                        raise WeylOverflowError(
                            f"group order exceeds cap {cap}"
                        )
                    next_frontier.append(candidate)
        frontier = next_frontier
    return frozenset(seen)

