"""classify is invariant under relabeling the vertices of a Cartan-matrix file.

Inputs are block sums of up to three simple types with rows and columns
permuted simultaneously; the multiset of component names must not change.
"""

import json
import tempfile
from pathlib import Path

import pytest

from conftest import run_cli

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

E6 = [
    [2, 0, -1, 0, 0, 0],
    [0, 2, 0, -1, 0, 0],
    [-1, 0, 2, -1, 0, 0],
    [0, -1, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, -1, 2],
]
F4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
G2 = [[2, -1], [-3, 2]]

SIMPLE_TYPES = (
    [("A", r) for r in range(1, 6)]
    + [("B", r) for r in (2, 3, 4)]
    + [("C", 3), ("C", 4), ("D", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]
)


def cartan(letter, r):
    """A_ij = 2<a_i, a_j>/<a_j, a_j>: B_r has -2 in its final column, C_r in its final row."""
    if letter in "EFG":
        return {"E": E6, "F": F4, "G": G2}[letter]
    A = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(r)] for i in range(r)]
    if letter == "B":
        A[r - 2][r - 1] = -2
    elif letter == "C":
        A[r - 1][r - 2] = -2
    elif letter == "D":
        A[r - 1][r - 2] = A[r - 2][r - 1] = 0
        A[r - 1][r - 3] = A[r - 3][r - 1] = -1
    return A


def block_sum(blocks):
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            out[offset + i][offset : offset + len(row)] = row
        offset += len(block)
    return out


@st.composite
def relabelled_sums(draw):
    types = draw(st.lists(st.sampled_from(SIMPLE_TYPES), min_size=1, max_size=3))
    A = block_sum([cartan(letter, r) for letter, r in types])
    perm = draw(st.permutations(range(len(A))))
    return types, A, [[A[p][q] for q in perm] for p in perm]


def classify_components(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cartan.json"
        path.write_text(json.dumps({"cartan": matrix}), encoding="utf-8")
        code, out = run_cli(["classify", str(path), "--format", "json"])
    assert code == 0, out
    return sorted(json.loads(out)["classification"].split("+"))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(relabelled_sums())
def test_classification_invariant_under_relabeling(case):
    types, A, relabelled = case
    expected = sorted(f"{letter}{r}" for letter, r in types)
    assert classify_components(A) == expected
    assert classify_components(relabelled) == expected
