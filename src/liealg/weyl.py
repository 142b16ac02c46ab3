"""Weyl groups as signed permutations, generated by simple reflections.

An element is its window: the tuple w = (w_1, ..., w_n) of nonzero ints in
which w_k = +i or -i means e_k -> +e_i or -e_i.  The action on coordinate
vectors is (w x)_{|w_k|} = sign(w_k) x_k, and g after h has window
(sign(h_k) g_{|h_k|})_k.  Windows are checked where they come in (the simple
reflections and the generators of a closure); composition keeps them valid.
A ``WeylGroup`` holds a subgroup and one window per coset of it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence, Set
from operator import itemgetter

from . import roots
from .exact import Scalar, canonical
from .records import InternalConsistencyError, Record

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
    n = rd.spec.rank
    out = []
    for alpha, coroot in zip(rd.fundamental_roots, rd.fundamental_coroots):
        window = []
        for k in range(n):
            column = [canonical((i == k) - alpha[k] * coroot[i]) for i in range(n)]
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


class WeylGroup(Record, Set):
    """A subgroup H and one representative per right coset H r, the identity first.

    A ``Set`` equal to, and hashed like, the frozenset of its elements.  Its
    length is |H| times the number of cosets, and w is a member when w r^-1 =
    apply(r, w) is in H for some r; what is not a tuple of n ints is not.
    Iterating yields H, then forms each other coset by one ``itemgetter``
    over H: h r reads h at |r_k| - 1, or a doubled copy (h, -h), formed once
    per pass when some r negates a coordinate, at n + |r_k| - 1 where r_k < 0.
    """

    __slots__ = ("subgroup", "representatives")
    subgroup: frozenset[Window]
    representatives: tuple[Window, ...]

    __eq__ = Set.__eq__  # not the fields: other generators of one group give other fields
    __hash__ = Set._hash
    _from_iterable = frozenset  # what the set operators return

    def __len__(self) -> int:
        return len(self.subgroup) * len(self.representatives)

    def __contains__(self, w: object) -> bool:
        n = len(self.representatives[0])
        if type(w) is not tuple or len(w) != n or any(type(v) is not int for v in w):
            return False
        return any(apply(r, w) in self.subgroup for r in self.representatives)

    def __iter__(self) -> Iterator[Window]:
        yield from self.subgroup
        n, doubled = len(self.representatives[0]), None
        for r in self.representatives[1:]:
            if min(r) < 0 and doubled is None:
                doubled = [h + tuple(-v for v in h) for h in self.subgroup]
            elements = self.subgroup if min(r) > 0 else doubled
            yield from map(_source([v - 1 if v > 0 else n - v - 1 for v in r]), elements)


def generate(gens: Sequence[Window], cap: int = 100_000) -> WeylGroup:
    """The group of the generators, as a subgroup and its cosets (Dimino).

    Raises TypeError unless ``cap`` and every window entry are ints (a bool
    is not), ValueError unless ``cap`` > 0 and the generators are windows of
    one length n >= 1, each a signed permutation of 1..n, and
    WeylOverflowError exactly when the group exceeds ``cap``, never silently.

    The generators are taken in the order given.  With H the group of those
    before g, the group of H and g is the union of the right cosets H r, where
    r runs over the products p = ``compose(r, s)`` (r the identity or an
    earlier representative, s a generator so far) with p q^-1 outside H for
    every representative q so far, tried newest first, where p mostly lies.
    Each H is the frozenset of the group before it, so the last H is formed,
    each element once, and the last cosets only when the group is iterated.
    The cap is checked against |H| times the number of representatives.
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
    group = WeylGroup(frozenset([identity]), (identity,))
    for i in range(len(gens)):
        subgroup = frozenset(group)
        representatives, inverses = [identity], [identity]
        for r in representatives:
            for s in gens[: i + 1]:
                product = compose(r, s)
                if any(compose(product, q) in subgroup for q in reversed(inverses)):
                    continue
                representatives.append(product)
                inverses.append(apply(product, identity))
                if len(subgroup) * len(representatives) > cap:
                    raise WeylOverflowError(f"group order exceeds cap {cap}")
        group = WeylGroup(subgroup, tuple(representatives))
    return group
