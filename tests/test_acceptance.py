"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (visible with pytest -s);
failures surface as ordinary assertion errors.  All tolerances are zero.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

from conftest import (
    arrows,
    constant_ratio,
    doubled_coordinate_forms,
    family_ranks,
    realization,
    root_datum,
    run_cli,
    vandermonde,
    weyl_group,
)

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec, CartanMatrix
from liealg.dynkin import (
    build_diagram,
    check_positive_definite,
    classify,
    serre_presentation,
    verify_serre,
)
from liealg.invariants import (
    build_suite,
    check_invariance,
    full_product,
    jacobian,
    jacobian_criterion,
)
from liealg.families import weyl_order_formula
from liealg.matrices import SpanSolver, dot
from liealg.weyl import apply, simple_reflections

GOLDEN = Path(__file__).parent / "golden"

DIMENSION_FORMULA = {
    AlgebraFamily.SL: lambda n: n * n - 1,
    AlgebraFamily.SP: lambda n: n * (2 * n + 1),
    AlgebraFamily.SO_EVEN: lambda n: n * (2 * n - 1),
    AlgebraFamily.SO_ODD: lambda n: n * (2 * n + 1),
}

SIGMA_COEFFICIENT = {
    AlgebraFamily.SL: lambda n: 2 * n,
    AlgebraFamily.SP: lambda n: 4 * (n + 1),
    AlgebraFamily.SO_EVEN: lambda n: 4 * (n - 1),
    AlgebraFamily.SO_ODD: lambda n: 4 * n - 2,
}


def all_family_ranks_through(max_n, include_sl_9=False):
    pairs = family_ranks(max_n)
    if include_sl_9:
        pairs.append((AlgebraFamily.SL, 9))
    return pairs


def test_criterion_1_dimension_formulas():
    for family, n in all_family_ranks_through(8, include_sl_9=True):
        r = realization(family, n)
        expected = DIMENSION_FORMULA[family](n)
        assert r.dimension == expected, (family, n)
        assert len(SpanSolver(m.edges for _, m in r.basis).independent) == expected, (family, n)
    print("criterion 1 (dimension formulas, ranks 1-8, exact independence): PASS")


def test_criterion_2_root_systems():
    def expected_roots(family, n):
        out = set()

        def vec(entries):
            base = [Fraction(0)] * n
            for idx, val in entries:
                base[idx] = Fraction(val)
            return tuple(base)

        if family is AlgebraFamily.SL:
            return {
                vec([(i, 1), (j, -1)])
                for i in range(n)
                for j in range(n)
                if i != j
            }
        for i in range(n):
            for j in range(i + 1, n):
                for si, sj in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
                    out.add(vec([(i, si), (j, sj)]))
        if family is AlgebraFamily.SP:
            out |= {vec([(i, 2)]) for i in range(n)} | {vec([(i, -2)]) for i in range(n)}
        if family is AlgebraFamily.SO_ODD:
            out |= {vec([(i, 1)]) for i in range(n)} | {vec([(i, -1)]) for i in range(n)}
        return out

    for family, n in family_ranks(4):
        rd = root_datum(family, n)
        assert set(rd.roots) == expected_roots(family, n), (family, n)
        report = L.verify_root_axioms(
            rd.roots, L.weight_inner(rd), expected_dim=rd.spec.lie_rank
        )
        assert report.all_passed, (family, n, report.failures())
    print("criterion 2 (root systems match the classical lists; axioms pass): PASS")


def test_criterion_3_killing_coefficients():
    for family, n in family_ranks(6):
        rd = root_datum(family, n)
        r = rd.realization
        expected = SIGMA_COEFFICIENT[family](n)
        coords = [r.diag_coords(h) for h in r.cartan_basis]
        for i, x in enumerate(r.cartan_basis):
            for j, y in enumerate(r.cartan_basis):
                roots_value = L.killing_form_roots(rd, x, y)
                assert roots_value == expected * dot(coords[i], coords[j]), (family, n)
                assert L.killing_form_ad(r, x, y) == roots_value, (family, n)
    print("criterion 3 (Killing coefficients 2n, 4(n+1), 4(n-1), 4n-2; routes agree): PASS")


def test_criterion_4_sl2_triples():
    for family, n in family_ranks(4):
        rd = root_datum(family, n)
        for root in rd.roots:
            assert L.verify_sl2_triple(rd, root), (family, n, root)
    print("criterion 4 (sl2-triples for every root, ranks <= 4): PASS")


def test_criterion_5_cartan_matrices():
    # Lie ranks 2 through 8 for each family, against the printed patterns.
    def expected(family, m):
        rows = [[2 if i == j else 0 for j in range(m)] for i in range(m)]
        for i in range(m - 1):
            rows[i][i + 1] = rows[i + 1][i] = -1
        if family is AlgebraFamily.SP:
            rows[m - 1][m - 2] = -2
        elif family is AlgebraFamily.SO_ODD:
            rows[m - 2][m - 1] = -2
        elif family is AlgebraFamily.SO_EVEN:
            rows[m - 2][m - 1] = rows[m - 1][m - 2] = 0
            rows[m - 3][m - 1] = rows[m - 1][m - 3] = -1
        return tuple(tuple(r) for r in rows)

    cases = []
    for m in range(2, 9):
        cases.append((AlgebraFamily.SL, m + 1, m))
        cases.append((AlgebraFamily.SP, m, m))
        if m >= 3:
            cases.append((AlgebraFamily.SO_EVEN, m, m))
        cases.append((AlgebraFamily.SO_ODD, m, m))
    for family, n, m in cases:
        A = L.cartan_matrix(root_datum(family, n))
        assert A.entries == expected(family, m), (family, n)
    print("criterion 5 (Cartan matrices match the printed patterns, ranks 2-8): PASS")


def test_criterion_6_weyl_groups():
    cap = 50_000
    enumerated = {}
    for family, n in family_ranks(8):
        spec = AlgebraSpec(family, n)
        formula = weyl_order_formula(spec)
        if formula > cap:
            continue
        group = weyl_group(family, n)
        assert len(group) == formula, (family, n)
        enumerated[(family, n)] = group
        rd = root_datum(family, n)
        gens = simple_reflections(rd)
        root_set = set(rd.roots)
        for g in gens:
            assert {apply(g, root) for root in rd.roots} == root_set, (family, n)
        if n <= 4:
            for g in group:
                assert {apply(g, root) for root in rd.roots} == root_set, (family, n)
    for n in range(1, 7):
        assert enumerated[(AlgebraFamily.SO_ODD, n)] == enumerated[(AlgebraFamily.SP, n)]
    print("criterion 6 (enumerated Weyl orders; W permutes the roots; B = C): PASS")


def test_criterion_7_dynkin_round_trip():
    coincidences = {"C1": "A1", "B1": "A1", "C2": "B2", "D2": "A1+A1", "D3": "A3"}
    letter = {
        AlgebraFamily.SL: "A",
        AlgebraFamily.SP: "C",
        AlgebraFamily.SO_EVEN: "D",
        AlgebraFamily.SO_ODD: "B",
    }
    for family, n in family_ranks(8):
        rd = root_datum(family, n)
        A = L.cartan_matrix(rd)
        d = build_diagram(A)
        assert check_positive_definite(A), (family, n)
        name = "+".join(classify(d))
        canonical = f"{letter[family]}{rd.spec.lie_rank}"
        assert name == coincidences.get(canonical, canonical), (family, n, name)

    for n in range(2, 9):
        db = build_diagram(L.cartan_matrix(root_datum(AlgebraFamily.SO_ODD, n)))
        dc = build_diagram(L.cartan_matrix(root_datum(AlgebraFamily.SP, n)))
        assert arrows(db) == tuple((b, a) for a, b in arrows(dc)), n

    affine_controls = [
        CartanMatrix(((2, -1, -1), (-1, 2, -1), (-1, -1, 2))),  # cycle
        CartanMatrix(((2, -2, 0), (-1, 2, -1), (0, -2, 2))),  # inward double edges
    ]
    star = [[2, -1, -1, -1, -1]] + [
        [-1 if j == 0 else 2 if j == i else 0 for j in range(5)] for i in range(1, 5)
    ]
    affine_controls.append(CartanMatrix(tuple(tuple(r) for r in star)))  # D fork + 1
    for A in affine_controls:
        assert not check_positive_definite(A)
    print("criterion 7 (Dynkin round trip; B/C arrows opposite; affine controls rejected): PASS")


def test_criterion_8_serre_relations():
    saw_depth_three = False
    for family, n in family_ranks(4):
        rd = root_datum(family, n)
        pairing = L.coroot_pairing_matrix(rd)
        presentation = serre_presentation(pairing)
        report = verify_serre(rd, presentation)
        assert report.all_passed, (family, n, [c.name for c in report.failures()])
        saw_depth_three = saw_depth_three or any(
            len(rel.word) == 4 for rel in presentation.relations
        )
    assert saw_depth_three
    print("criterion 8 (Serre relations hold exactly, incl. depth-3 nilpotency): PASS")


def test_criterion_9_invariants():
    reported = []
    for family, n in family_ranks(8):
        rd = root_datum(family, n)
        spec = rd.spec
        if weyl_order_formula(spec) <= 50_000:
            suite = build_suite(family, spec.lie_rank)
            assert suite.degree_product() == len(weyl_group(family, n)), (family, n)
            assert check_invariance(suite, simple_reflections(rd)), (family, n)

    for n in range(1, 5):
        suite = build_suite(AlgebraFamily.SP, n)
        assert jacobian_criterion(suite)
        closed = (full_product(n) * vandermonde(n, 2)).scale(
            2**n * math.factorial(n)
        )
        assert jacobian(suite) == closed, n

    for n in range(2, 5):
        suite = build_suite(AlgebraFamily.SO_EVEN, n)
        J = jacobian(suite)
        assert not J.is_zero()
        ratio = constant_ratio(J, vandermonde(n, 2))
        assert ratio is not None and ratio != 0, n
        reported.append(f"D_{n} constant {ratio} (printed {(-2) ** (n - 1) * math.factorial(n - 1)})")

    for n in range(1, 5):
        suite = build_suite(AlgebraFamily.SL, n)
        J = jacobian(suite)
        assert not J.is_zero()
        closed = vandermonde(n) * doubled_coordinate_forms(n)
        ratio = constant_ratio(J, closed)
        assert ratio is not None and ratio != 0, n
        reported.append(f"A_{n} constant {ratio} (printed {math.factorial(n + 1)})")

    print("criterion 9 (invariants: degrees, invariance, Jacobians): PASS")
    for line in reported:
        print("  " + line)


def test_criterion_10_cli_contract(tmp_path):
    for family, n in (("sl", "3"), ("sp", "3"), ("so-even", "4"), ("so-odd", "3")):
        for fmt, ext in (("text", "txt"), ("json", "json")):
            argv = ["info", family, n] + ([] if fmt == "text" else ["--format", "json"])
            code1, out1 = run_cli(argv)
            code2, out2 = run_cli(argv)
            assert code1 == code2 == 0
            assert out1 == out2
            golden = (GOLDEN / f"info_{family}_{n}.{ext}").read_text(encoding="utf-8")
            assert out1 == golden, (family, n, fmt)

    bad = tmp_path / "cycle.json"
    bad.write_text(
        json.dumps({"cartan": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}), encoding="utf-8"
    )
    code, out = run_cli(["classify", str(bad)])
    assert code == 1
    assert "positive definiteness fails" in out

    broken = tmp_path / "broken.json"
    broken.write_text("{oops", encoding="utf-8")
    code, _ = run_cli(["classify", str(broken)])
    assert code == 2

    code, _ = run_cli(["verify", "sl", "3", "all"])
    assert code == 0
    print("criterion 10 (CLI golden stability and exit-code contract): PASS")
