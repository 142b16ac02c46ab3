"""Diagram construction, classification, definiteness, Serre presentations."""

import re
from fractions import Fraction

import pytest

from conftest import arrows, family_ranks, multiplicities, root_datum, root_vector

import liealg as L
from liealg import AlgebraFamily, CartanMatrix
from liealg.dynkin import (
    ascii_diagram,
    build_diagram,
    check_positive_definite,
    classify,
    lengths_from_cartan,
    serre_presentation,
    verify_serre,
)
from liealg.serre import SerrePresentation, SerreRelation


def diagram_for(family, n):
    rd = root_datum(family, n)
    A = L.cartan_matrix(rd)
    lengths = L.root_lengths(rd)
    return build_diagram(A), A, lengths


def chain_cartan(m):
    rows = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(m)] for i in range(m)]
    return CartanMatrix(rows)


def fork_cartan(branches):
    """Simply laced star: one center, chains of the given lengths."""
    size = 1 + sum(branches)
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = 2
    at = 1
    for length in branches:
        prev = 0
        for k in range(length):
            rows[prev][at] = rows[at][prev] = -1
            prev = at
            at += 1
    return CartanMatrix(rows)


def edges_cartan(size, edges):
    """Cartan matrix with the given (i, j, A_ij, A_ji) off-diagonal pairs."""
    rows = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
    for i, j, aij, aji in edges:
        rows[i][j], rows[j][i] = aij, aji
    return CartanMatrix(rows)


def simple_edges(*pairs):
    return [(i, j, -1, -1) for i, j in pairs]


def raises_text(error, text):
    return pytest.raises(error, match=f"^{re.escape(text)}$")


# Shapes outside the simple list, each with its Cartan matrix and drawing.
# A shape that is neither a path nor one fork with a length-1 arm is drawn
# as its edge list.
NOT_SIMPLE_SHAPES = {
    "triangle": (
        edges_cartan(3, simple_edges((0, 1), (1, 2), (0, 2))),
        "edges(1~2x1,1~3x1,2~3x1)",
    ),
    "degree_four_star": (fork_cartan((1, 1, 1, 1)), "edges(1~2x1,1~3x1,1~4x1,1~5x1)"),
    "fork_arms_2_2_2": (
        fork_cartan((2, 2, 2)),
        "edges(1~2x1,1~4x1,1~6x1,2~3x1,4~5x1,6~7x1)",
    ),
    "two_forks": (
        edges_cartan(6, simple_edges((0, 1), (0, 2), (0, 3), (3, 4), (3, 5))),
        "edges(1~2x1,1~3x1,1~4x1,4~5x1,4~6x1)",
    ),
    "fork_with_double_edge": (
        edges_cartan(5, simple_edges((0, 1), (0, 2), (0, 3)) + [(3, 4, -2, -1)]),
        "o-o-o=>o\n   \\-o",
    ),
    "path_two_doubles": (edges_cartan(3, [(0, 1, -2, -1), (1, 2, -1, -2)]), "o=>o<=o"),
    "triple_on_three": (edges_cartan(3, [(0, 1, -1, -1), (1, 2, -3, -1)]), "o-o==>o"),
}


def shape_diagram(name):
    A, _ = NOT_SIMPLE_SHAPES[name]
    return build_diagram(A)


class TestCartanMatrixEntries:
    @pytest.mark.parametrize("rows,position,kind", [
        (((2.0, -1), (-1, 2)), "(1,1)", "float"),
        (((2, False), (0, 2)), "(1,2)", "bool"),
        (((Fraction(2), -1), (-1, 2)), "(1,1)", "Fraction"),
        (((2, -1), (-1.0, 2)), "(2,1)", "float"),
    ])
    def test_an_entry_that_is_not_an_int_raises_naming_its_position(self, rows, position, kind):
        with pytest.raises(TypeError, match=rf"{re.escape(position)}.*{kind}"):
            CartanMatrix(rows)

    def test_rows_given_as_lists_are_stored_as_tuples(self):
        from_lists = CartanMatrix([[2, -1], [-1, 2]])
        from_tuples = CartanMatrix(((2, -1), (-1, 2)))
        assert from_lists.entries == ((2, -1), (-1, 2))
        assert from_lists == from_tuples
        assert hash(from_lists) == hash(from_tuples)
        assert len({from_lists, from_tuples}) == 1


class TestBuildDiagram:
    def test_a_chain_no_arrows(self):
        d, _, _ = diagram_for(AlgebraFamily.SL, 4)
        assert arrows(d) == ()
        assert all(
            d.multiplicity(i, j) == (1 if abs(i - j) == 1 else 0)
            for i in range(3)
            for j in range(3)
            if i != j
        )

    def test_c_family_arrow_points_to_chain(self):
        for n in (2, 3, 4):
            d, _, lengths = diagram_for(AlgebraFamily.SP, n)
            assert d.multiplicity(n - 2, n - 1) == 2
            assert arrows(d) == ((n - 1, n - 2),)
            assert lengths[n - 2] < lengths[n - 1]

    def test_b_family_arrow_points_to_last(self):
        for n in (2, 3, 4):
            d, _, lengths = diagram_for(AlgebraFamily.SO_ODD, n)
            assert arrows(d) == ((n - 2, n - 1),)
            assert lengths[n - 2] > lengths[n - 1]

    def test_b_c_opposite_arrows(self):
        for n in range(2, 9):
            db, _, _ = diagram_for(AlgebraFamily.SO_ODD, n)
            dc, _, _ = diagram_for(AlgebraFamily.SP, n)
            assert multiplicities(db) == multiplicities(dc)
            assert arrows(db) == tuple((b, a) for a, b in arrows(dc))

    def test_equal_length_multi_edge_rejected(self):
        # A_12 = A_21 = -2 is the one multiple edge between equal lengths
        # that a Cartan matrix admits, and its multiplicity is 4.
        A = CartanMatrix(((2, -2), (-2, 2)))
        with raises_text(ValueError, "edge multiplicity 4 between vertices 1,2 exceeds 3"):
            build_diagram(A)

    def test_multiplicity_above_three_rejected(self):
        A = CartanMatrix(((2, -2), (-3, 2)))
        with raises_text(ValueError, "edge multiplicity 6 between vertices 1,2 exceeds 3"):
            build_diagram(A)


class TestDynkinDiagramConstructor:
    @pytest.mark.parametrize("args", [
        (2, ((0, 7), (7, 0)), ((0, 1),)),  # the fields a diagram once held
        (2, ((0, 2), (2, 0)), ()),
        (((2, -1), (-1, 2)),),  # entries, not a CartanMatrix
        (None,),
    ], ids=["three_fields", "no_arrow", "entries", "none"])
    def test_anything_but_a_cartan_matrix_is_a_type_error(self, args):
        with pytest.raises(TypeError):
            L.DynkinDiagram(*args)

    @pytest.mark.parametrize("pair,m", [((-2, -2), 4), ((-2, -3), 6), ((-3, -3), 9)])
    def test_a_multiplicity_above_three_raises(self, pair, m):
        A = edges_cartan(3, [(0, 1, -1, -1), (1, 2, *pair)])
        with raises_text(ValueError, f"edge multiplicity {m} between vertices 2,3 exceeds 3"):
            L.DynkinDiagram(A)

    def test_the_first_pair_in_row_major_order_is_named(self):
        A = edges_cartan(3, [(0, 2, -2, -2), (1, 2, -3, -3)])
        with raises_text(ValueError, "edge multiplicity 4 between vertices 1,3 exceeds 3"):
            L.DynkinDiagram(A)

    def test_the_diagram_holds_its_matrix(self):
        A = edges_cartan(3, [(0, 1, -1, -1), (1, 2, -1, -3)])
        d = L.DynkinDiagram(A)
        assert d.cartan is A and d.nvertices == 3
        assert multiplicities(d) == ((0, 1, 0), (1, 0, 3), (0, 3, 0))
        assert arrows(d) == ((2, 1),)
        assert d == L.DynkinDiagram(CartanMatrix(A.entries))
        flipped = L.DynkinDiagram(CartanMatrix(tuple(zip(*A.entries))))
        assert flipped != d and arrows(flipped) == ((1, 2),)


class TestPositiveDefinite:
    @pytest.mark.parametrize("family,n", family_ranks(8))
    def test_families_pass(self, family, n):
        _, A, _ = diagram_for(family, n)
        assert check_positive_definite(A)

    def test_affine_cycle_fails(self):
        A = CartanMatrix(((2, -1, -1), (-1, 2, -1), (-1, -1, 2)))
        assert not check_positive_definite(A)

    def test_affine_double_ended_chain_fails(self):
        # two double edges pointing inward (long, short, long)
        A = CartanMatrix(((2, -2, 0), (-1, 2, -1), (0, -2, 2)))
        lengths = lengths_from_cartan(A)
        assert lengths[0] == lengths[2] > lengths[1]
        assert not check_positive_definite(A)

    def test_affine_extended_fork_fails(self):
        # star with four simple branches around one center
        assert not check_positive_definite(fork_cartan((1, 1, 1, 1)))

    def test_single_vertex_passes(self):
        assert check_positive_definite(CartanMatrix(((2,),)))

    def test_a_matrix_that_no_lengths_symmetrize_raises(self):
        # The classify golden "inconsistent_and_multiplicity_four": around the cycle
        # 1-2-3 the ratios A_ij / A_ji give one root two lengths.
        A = CartanMatrix(((2, -2, -1), (-2, 2, -2), (-1, -1, 2)))
        with raises_text(ValueError, "Cartan matrix implies inconsistent root lengths"):
            check_positive_definite(A)


CLASSIFICATION_EXPECTED = {
    (AlgebraFamily.SL, 2): ("A1",),
    (AlgebraFamily.SL, 5): ("A4",),
    (AlgebraFamily.SP, 1): ("A1",),
    (AlgebraFamily.SP, 2): ("B2",),
    (AlgebraFamily.SP, 4): ("C4",),
    (AlgebraFamily.SO_EVEN, 2): ("A1", "A1"),
    (AlgebraFamily.SO_EVEN, 3): ("A3",),
    (AlgebraFamily.SO_EVEN, 6): ("D6",),
    (AlgebraFamily.SO_ODD, 1): ("A1",),
    (AlgebraFamily.SO_ODD, 4): ("B4",),
}


class TestClassify:
    def test_expected_names(self):
        for (family, n), expected in CLASSIFICATION_EXPECTED.items():
            d, _, _ = diagram_for(family, n)
            assert classify(d) == expected, (family, n)

    def test_sl4_is_a3(self):
        d, _, _ = diagram_for(AlgebraFamily.SL, 4)
        assert classify(d) == ("A3",)

    def test_so8_is_d4(self):
        d, _, _ = diagram_for(AlgebraFamily.SO_EVEN, 4)
        assert classify(d) == ("D4",)

    def test_e_series_patterns(self):
        for c, name in ((2, "E6"), (3, "E7"), (4, "E8")):
            A = fork_cartan((1, 2, c))
            d = build_diagram(A)
            assert classify(d) == (name,)

    def test_f4_pattern(self):
        A = CartanMatrix(
            ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))
        )
        d = build_diagram(A)
        assert classify(d) == ("F4",)

    def test_g2_pattern(self):
        A = CartanMatrix(((2, -3), (-1, 2)))
        d = build_diagram(A)
        assert classify(d) == ("G2",)

    def test_cycle_not_simple(self):
        A = CartanMatrix(((2, -1, -1), (-1, 2, -1), (-1, -1, 2)))
        d = build_diagram(A)
        assert classify(d) == ("NotSimple",)

    def test_five_branch_star_not_simple(self):
        A = fork_cartan((1, 1, 1, 1))
        d = build_diagram(A)
        assert classify(d) == ("NotSimple",)

    @pytest.mark.parametrize("name", sorted(NOT_SIMPLE_SHAPES))
    def test_unlisted_shapes_not_simple(self, name):
        assert classify(shape_diagram(name)) == ("NotSimple",)

    @pytest.mark.parametrize("family,n", family_ranks(8))
    def test_round_trip_names_expected_family(self, family, n):
        d, _, _ = diagram_for(family, n)
        names = classify(d)
        lie_rank = root_datum(family, n).spec.lie_rank
        canonical = {
            AlgebraFamily.SL: f"A{lie_rank}",
            AlgebraFamily.SP: f"C{lie_rank}",
            AlgebraFamily.SO_EVEN: f"D{lie_rank}",
            AlgebraFamily.SO_ODD: f"B{lie_rank}",
        }[family]
        coincidences = {"C1": "A1", "B1": "A1", "C2": "B2", "D2": "A1+A1", "D3": "A3"}
        expected = coincidences.get(canonical, canonical)
        assert "+".join(names) == expected


class TestAscii:
    def test_chain(self):
        d, _, _ = diagram_for(AlgebraFamily.SL, 4)
        assert ascii_diagram(d) == "o-o-o"

    def test_c3(self):
        d, _, _ = diagram_for(AlgebraFamily.SP, 3)
        assert ascii_diagram(d) == "o-o<=o"

    def test_b3(self):
        d, _, _ = diagram_for(AlgebraFamily.SO_ODD, 3)
        assert ascii_diagram(d) == "o-o=>o"

    def test_d5_fork(self):
        d, _, _ = diagram_for(AlgebraFamily.SO_EVEN, 5)
        assert ascii_diagram(d) == "o-o-o-o\n     \\-o"

    @pytest.mark.parametrize("name", sorted(NOT_SIMPLE_SHAPES))
    def test_unlisted_shapes(self, name):
        assert ascii_diagram(shape_diagram(name)) == NOT_SIMPLE_SHAPES[name][1]


class TestLengthsFromCartan:
    def test_simply_laced_all_equal(self):
        lengths = lengths_from_cartan(chain_cartan(4))
        assert len(set(lengths)) == 1

    def test_ratio_recovery(self):
        rd = root_datum(AlgebraFamily.SP, 3)
        A = L.cartan_matrix(rd)
        derived = lengths_from_cartan(A)
        actual = L.root_lengths(rd)
        scale = actual[0] / derived[0]
        assert [scale * x for x in derived] == list(actual)


class TestSerrePresentation:
    def test_rank_one_relations(self):
        p = serre_presentation(CartanMatrix(((2,),)))
        described = [r.describe() for r in p.relations]
        assert described == ["[X1,Y1] = H1", "[H1,X1] = 2 X1", "[H1,Y1] = -2 Y1"]

    def test_a2_includes_depth_two_nilpotency(self):
        p = serre_presentation(chain_cartan(2))
        described = {r.describe() for r in p.relations}
        assert "[X1,[X1,X2]] = 0" in described
        assert "[Y2,[Y2,Y1]] = 0" in described

    def test_c2_with_minus_two_entry_gives_depth_three(self):
        A = CartanMatrix(((2, -1), (-2, 2)))
        p = serre_presentation(A)
        described = {r.describe() for r in p.relations}
        assert "[X2,[X2,[X2,X1]]] = 0" in described
        assert "[X1,[X1,X2]] = 0" in described

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_verification_passes_with_pairing_matrix(self, family, n):
        rd = root_datum(family, n)
        p = serre_presentation(L.coroot_pairing_matrix(rd))
        report = verify_serre(rd, p)
        assert report.all_passed, [c.name for c in report.failures()]

    def test_sp4_depth_three_nilpotency_is_sharp(self):
        # (ad X1)^2 X2 is nonzero while (ad X1)^3 X2 vanishes.
        rd = root_datum(AlgebraFamily.SP, 2)
        from liealg.edges import mat_bracket

        x1 = root_vector(rd, rd.fundamental_roots[0])
        x2 = root_vector(rd, rd.fundamental_roots[1])
        twice = mat_bracket(x1, mat_bracket(x1, x2))
        assert not twice.is_zero()
        assert mat_bracket(x1, twice).is_zero()

    def test_corrupted_matrix_fails(self):
        rd = root_datum(AlgebraFamily.SL, 3)
        good = L.coroot_pairing_matrix(rd)
        flipped = CartanMatrix(((2, 0), (0, 2)))  # breaks the off-diagonal pairing
        report = verify_serre(rd, serre_presentation(flipped))
        assert not report.all_passed

    def test_rank_mismatch_rejected(self):
        rd = root_datum(AlgebraFamily.SL, 3)
        with pytest.raises(ValueError):
            verify_serre(rd, serre_presentation(CartanMatrix(((2,),))))


class TestSerreRecords:
    def test_a_presentation_needs_a_cartan_matrix(self):
        with raises_text(TypeError, "SerrePresentation needs a CartanMatrix, got NoneType"):
            SerrePresentation(None, ())

    @pytest.mark.parametrize("relations", [[], (None,), ("[X1,Y1] = H1",)],
                             ids=["list", "none", "text"])
    def test_the_relations_are_a_tuple_of_serre_relations(self, relations):
        with raises_text(TypeError, "Serre relations must be a tuple of SerreRelation"):
            SerrePresentation(chain_cartan(2), relations)

    def test_a_relation_beyond_the_rank_is_rejected(self):
        # The A2 relations name generators 1 and 2; a rank-1 matrix has only 1,
        # as does sl2, so the presentation would pass verify_serre's rank check.
        relations = serre_presentation(chain_cartan(2)).relations
        with raises_text(ValueError, "[H1,H2] = 0 names a generator beyond rank 1"):
            verify_serre(
                root_datum(AlgebraFamily.SL, 2), SerrePresentation(CartanMatrix([[2]]), relations)
            )
        target = SerreRelation((("X", 0), ("Y", 0)), ("H", 1))
        with pytest.raises(ValueError, match="beyond rank 1$"):
            SerrePresentation(CartanMatrix([[2]]), (target,))
        assert SerrePresentation(chain_cartan(2), (target,)).relations == (target,)

    @pytest.mark.parametrize("word,target,error", [
        ((("Z", 0),), None, ValueError),
        ((("x", 0),), None, ValueError),
        ((("X", -1),), None, ValueError),
        ((("X", True),), None, TypeError),
        ((("X", 0.0),), None, TypeError),
        ((("X", 0, 1),), None, ValueError),
        (("X0",), None, TypeError),
        ((), None, ValueError),
        ((("X", 0),), ("Z", 0), ValueError),
        ((("X", 0),), ("H", False), TypeError),
    ])
    def test_a_relation_names_generators_h_x_y_with_int_indices(self, word, target, error):
        with pytest.raises(error):
            SerreRelation(word, target)

    @pytest.mark.parametrize("coefficient", [1.5, True, Fraction(2), "2"], ids=repr)
    def test_a_coefficient_that_is_not_an_int_raises(self, coefficient):
        # 1.5 was accepted and described as "X1 = 1.5 X1".
        with raises_text(
            TypeError, f"Serre coefficient must be an int, got {type(coefficient).__name__}"
        ):
            SerreRelation((("X", 0),), ("X", 0), coefficient)

    def test_a_coefficient_needs_a_target(self):
        # (X1, Y1) with coefficient 5 and no target was accepted, and described as
        # "[X1,Y1] = 0" while comparing unequal to the relation without it.
        with raises_text(ValueError, "a Serre relation with no target takes no coefficient"):
            SerreRelation((("X", 0), ("Y", 0)), None, 5)
        assert SerreRelation((("X", 0), ("Y", 0)), ("H", 0), 0).describe() == "[X1,Y1] = 0 H1"

    def test_generators_given_as_lists_are_stored_as_tuples(self):
        rel = SerreRelation([["X", 0], ["Y", 1]], ["H", 0], 2)
        assert rel == SerreRelation((("X", 0), ("Y", 1)), ("H", 0), 2)
        assert rel.word == (("X", 0), ("Y", 1)) and rel.target == ("H", 0)
        assert hash(rel) == hash(SerreRelation((("X", 0), ("Y", 1)), ("H", 0), 2))
