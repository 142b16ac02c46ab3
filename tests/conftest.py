"""Shared fixtures: cached realizations, root data, Weyl enumerations, the
reference reflection used by the reflection and root-axiom tests, the dense
structure-constant table used by the catalog tests, and a field-replacing
copy of a record.

The repository-root ``conftest.py`` keeps a test run from writing bytecode
into src/."""

from __future__ import annotations

import io
import os
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec
from liealg.matrices import EdgeMatrix, mat_bracket
from liealg.records import InternalConsistencyError

_REALIZATIONS: dict[tuple[AlgebraFamily, int], L.AlgebraRealization] = {}
_ROOT_DATA: dict[tuple[AlgebraFamily, int], L.RootDatum] = {}
_WEYL_GROUPS: dict[tuple[AlgebraFamily, int], frozenset[tuple[int, ...]]] = {}

ALL_FAMILIES = tuple(AlgebraFamily)
SRC = Path(__file__).resolve().parent.parent / "src"


def spec_of(family: AlgebraFamily, n: int) -> AlgebraSpec:
    return AlgebraSpec(family, n)


def realization(family: AlgebraFamily, n: int) -> L.AlgebraRealization:
    key = (family, n)
    if key not in _REALIZATIONS:
        _REALIZATIONS[key] = L.build(AlgebraSpec(family, n))
    return _REALIZATIONS[key]


def root_datum(family: AlgebraFamily, n: int) -> L.RootDatum:
    key = (family, n)
    if key not in _ROOT_DATA:
        _ROOT_DATA[key] = L.cartan_decompose(realization(family, n))
    return _ROOT_DATA[key]


def weyl_group(family: AlgebraFamily, n: int, cap: int = 100_000):
    key = (family, n)
    if key not in _WEYL_GROUPS:
        gens = L.simple_reflections(root_datum(family, n))
        _WEYL_GROUPS[key] = L.generate(gens, cap=cap)
    return _WEYL_GROUPS[key]


def replace(record, **changes):
    """A new record of the same type, with the named fields changed.

    It goes through the constructor, so validation runs again and no cached
    value is carried over.
    """
    fields = {name: getattr(record, name) for name in record.__slots__ if name != "__dict__"}
    return type(record)(**{**fields, **changes})


def reflect(inner, alpha, beta):
    """Reflection of beta in the hyperplane orthogonal to alpha."""
    norm = Fraction(inner(alpha, alpha))
    if not norm:
        raise ValueError("cannot reflect in an isotropic or zero vector")
    factor = 2 * Fraction(inner(alpha, beta)) / norm
    return tuple(b - factor * a for a, b in zip(alpha, beta))


def basis_of(r: L.AlgebraRealization) -> tuple[EdgeMatrix, ...]:
    """The basis elements of a realization, without their labels."""
    return tuple(m for _, m in r.basis)


def structure_constants(
    r: L.AlgebraRealization,
) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """c[i][j][k] with [b_i, b_j] = sum_k c[i][j][k] b_k, solved exactly."""
    mats = basis_of(r)
    solver = r.span
    dim = len(mats)
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i == j:
                row.append((Fraction(0),) * dim)
                continue
            bracket = mat_bracket(mats[i], mats[j])
            try:
                coeffs = solver.expand(bracket.edges)
            except ValueError as exc:
                raise InternalConsistencyError(
                    f"bracket of basis elements {i},{j} falls outside the span"
                ) from exc
            row.append(tuple(coeffs.get(k, Fraction(0)) for k in range(dim)))
        out.append(tuple(row))
    return tuple(out)


def family_ranks(max_rank: int):
    """All (family, n) pairs with n up to max_rank, honoring family minimums."""
    out = []
    for family in ALL_FAMILIES:
        start = 2 if family in (AlgebraFamily.SL, AlgebraFamily.SO_EVEN) else 1
        for n in range(start, max_rank + 1):
            out.append((family, n))
    return out


def src_env() -> dict[str, str]:
    """The environment with src/ first on PYTHONPATH and no bytecode writing,
    for child interpreters."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process, returning (exit code, captured stdout)."""
    from liealg.cli import main

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buffer.getvalue()
