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
    """The enumeration exceeded the requested cap."""


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
    """The group of the generators, enumerated by whole cosets (Dimino).

    Raises TypeError unless ``cap`` and every window entry are ints (a bool
    is not), ValueError unless ``cap`` > 0 and the generators are windows of
    one length n >= 1, each a signed permutation of 1..n, and
    WeylOverflowError exactly when the group exceeds ``cap``, never silently.

    The generators are taken in the order given.  With H the group of those
    before g, the group of H and g is the union of the right cosets H r, where
    r runs over the products ``compose(r, s)`` (r the identity or an earlier
    representative, s a generator so far) that the group does not yet hold.
    Each coset is added whole as soon as r is found, so every element is
    formed once, and it is one ``itemgetter`` mapped over H: h r reads h at
    the positions |r_k| - 1.  When r negates some coordinates, the map reads
    a doubled copy (h, -h) of H instead, at n + |r_k| - 1 where r_k < 0; the
    copy is formed once per H, and only when a signed r needs it.  The cap is
    checked after each coset, so at most cap + |H| elements are formed.
    """
    if type(cap) is not int:
        raise TypeError(f"cap must be an int, got {type(cap).__name__}")
    if not gens:
        raise ValueError("at least one generator required")
    if cap <= 0:
        raise ValueError("cap must be positive")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise ValueError("generators must share one carrier size")
    if n == 0:
        raise ValueError("generators must act on at least one coordinate")
    for g in gens:
        if any(type(v) is not int for v in g):
            raise TypeError(f"window entries must be ints, got {g}")
        if sorted(abs(v) for v in g) != list(range(1, n + 1)):
            raise ValueError(f"not a signed permutation of 1..{n}: {g}")
    identity = tuple(range(1, n + 1))
    group = {identity}
    for i in range(len(gens)):
        subgroup = list(group)
        doubled = None
        representatives = [identity]
        for r in representatives:
            for s in gens[: i + 1]:
                product = compose(r, s)
                if product in group:
                    continue
                if min(product) > 0:
                    elements = subgroup
                else:
                    if doubled is None:
                        doubled = [h + tuple(-v for v in h) for h in subgroup]
                    elements = doubled
                positions = [v - 1 if v > 0 else n - v - 1 for v in product]
                group.update(map(_source(positions), elements))
                if len(group) > cap:
                    raise WeylOverflowError(f"group order exceeds cap {cap}")
                representatives.append(product)
    return frozenset(group)
