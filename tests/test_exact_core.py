"""Scalar, matrix, and linear-kernel behavior, all exact."""

import operator
import random
import sys
from fractions import Fraction

import pytest

from conftest import dense, from_rows, identity

from liealg.exact import canonical, format_rational, parse_rational
from liealg.edges import EdgeMatrix, mat_bracket
from liealg.matrices import SpanSolver, determinant, dot, is_positive_definite, solve_linear


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


class TestScalars:
    def test_field_axioms_on_sampled_triples(self):
        rng = random.Random(20240517)
        for _ in range(200):
            a, b, c = (random_fraction(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + 0 == a and a * 1 == a
            assert a + (-a) == 0
            if a:
                assert a * (1 / a) == 1

    def test_lowest_terms_and_positive_denominator(self):
        x = Fraction(6, -8)
        assert x.numerator == -3 and x.denominator == 4

    def test_parse_and_format(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational(" +6/4 ") == Fraction(3, 2)
        assert format_rational(Fraction(-1, 2)) == "-1/2"
        assert format_rational(Fraction(5)) == "5"
        for text in ("0.5x", "1/0", "1.5", "1e3", "1_000", ".5", "", "1/", "/2", "1/-2"):
            with pytest.raises(ValueError):
                parse_rational(text)

    @pytest.mark.parametrize("text,value", [
        (" 3 ", 3), ("\t-3/4\n", Fraction(-3, 4)), ("+5", 5), ("-0", 0), ("0/7", 0),
        ("+6/4", Fraction(3, 2)), ("-10/5", -2),
    ], ids=["spaces", "ascii-whitespace", "plus", "minus-zero", "zero-over", "plus-ratio",
            "minus-integral-ratio"])
    def test_parse_accepts_spaces_and_one_sign(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0", "1.5", "1e3", "1_000", "+-1",
                                      "--1", "- 1", "1 /2", "1/ 2", "1/+2", "0x10"])
    def test_parse_rejects_zero_denominators_and_other_numerals(self, text):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["\u0661", "-\u0661", "\uff11/\uff12", "1/2\u2003"],
                             ids=["arabic-indic", "signed-arabic-indic", "full-width", "em-space"])
    def test_parse_accepts_ascii_digits_and_spaces_only(self, text):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)

    def test_canonical_is_int_exactly_when_integral(self):
        for x, want in ((3, 3), (Fraction(6, 3), 2), (Fraction(-4, 1), -4), (Fraction(0), 0)):
            assert type(canonical(x)) is int and canonical(x) == want
        assert type(canonical(Fraction(1, 2))) is Fraction
        for bad in (0.5, 2.0, True, "1", None):
            with pytest.raises(TypeError, match="exact scalar expected"):
                canonical(bad)

    def test_format_is_str_within_the_limit_and_a_length_beyond(self):
        limit = sys.get_int_max_str_digits()
        widest = 10**limit - 1  # the longest integer str renders
        assert format_rational(Fraction(-widest, 7)) == str(Fraction(-widest, 7))
        for k, length in ((10**limit, limit + 1), (10**limit - 1 + 10**limit, limit + 1),
                          (10**(2 * limit), 2 * limit + 1)):
            assert format_rational(k) == f"<{length} digits>"
            assert format_rational(-k) == f"-<{length} digits>"
        assert format_rational(Fraction(3, 10**limit)) == f"3/<{limit + 1} digits>"


def E(dim, i, j):
    return EdgeMatrix.unit(dim, i, j)


class TestMatrixProduct:
    def test_edge_composition(self):
        assert E(2, 1, 2) @ E(2, 2, 1) == E(2, 1, 1)

    def test_edge_mismatch_gives_zero(self):
        assert (E(2, 1, 2) @ E(2, 1, 2)).is_zero()

    def test_identity(self):
        a = E(3, 2, 3) + E(3, 1, 1).scale(Fraction(5, 7))
        assert identity(3) @ a == a
        assert a @ identity(3) == a

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            E(2, 1, 1) @ E(3, 1, 1)
        with pytest.raises(ValueError):
            mat_bracket(E(2, 1, 1), E(3, 1, 1))

    def test_rejects_floats(self):
        for c in (0.5, True):
            with pytest.raises(TypeError):
                EdgeMatrix(2, {}).scale(c)


class TestBracket:
    def test_elementary_identity(self):
        assert mat_bracket(E(2, 1, 2), E(2, 2, 1)) == E(2, 1, 1) - E(2, 2, 2)

    def test_antisymmetry_on_self(self):
        a = E(3, 1, 2) + E(3, 3, 1)
        assert mat_bracket(a, a).is_zero()

    def test_sl2_relation(self):
        h = E(2, 1, 1) - E(2, 2, 2)
        e = E(2, 1, 2)
        assert mat_bracket(h, e) == e.scale(2)

    def test_jacobi_identity_all_edge_triples(self):
        # [x,[y,z]] = [[x,y],z] + [y,[x,z]] over the full edge basis, each dim.
        for dim in range(2, 7):
            edges = [E(dim, i, j) for i in range(1, dim + 1) for j in range(1, dim + 1)]
            pair = {}
            for a in range(len(edges)):
                for b in range(len(edges)):
                    pair[a, b] = mat_bracket(edges[a], edges[b])
            for y in range(len(edges)):
                for z in range(len(edges)):
                    inner = pair[y, z]
                    for x in range(len(edges)):
                        left = mat_bracket(edges[x], inner)
                        right = mat_bracket(pair[x, y], edges[z]) + mat_bracket(
                            edges[y], pair[x, z]
                        )
                        assert left == right

    def test_bracket_is_traceless_on_edge_pairs(self):
        for dim in range(2, 7):
            edges = [E(dim, i, j) for i in range(1, dim + 1) for j in range(1, dim + 1)]
            assert all(
                mat_bracket(a, b).trace() == 0 for a in edges for b in edges
            )


class TestTrace:
    def test_diagonal_difference(self):
        assert (E(2, 1, 1) - E(2, 2, 2)).trace() == 0

    def test_identity_trace(self):
        for n in (1, 4, 9):
            assert identity(n).trace() == n

    def test_off_diagonal_edge(self):
        assert E(2, 1, 2).trace() == 0


class TestLinearKernel:
    def test_sparse_rank(self):
        rows = [
            {0: Fraction(1), 1: Fraction(2)},
            {0: Fraction(2), 1: Fraction(4)},
            {2: Fraction(1)},
        ]
        assert len(SpanSolver(rows).independent) == 2

    def test_span_solver_expand(self):
        basis = [E(2, 1, 1), E(2, 1, 2), E(2, 2, 2)]
        solver = SpanSolver(m.edges for m in basis)
        target = E(2, 1, 1).scale(3) - E(2, 1, 2).scale(Fraction(1, 2))
        assert solver.expand(target.edges) == {0: Fraction(3), 1: Fraction(-1, 2)}
        with pytest.raises(ValueError):
            solver.expand(E(2, 2, 1).edges)

    def test_solve_linear(self):
        [sol] = solve_linear([[2, 1], [1, -1]], [5, 1])
        assert sol == [Fraction(2), Fraction(1)]
        with pytest.raises(ValueError):
            solve_linear([[1, 1], [2, 2]], [1, 3])

    def test_solve_linear_solves_each_right_hand_side_over_one_elimination(self):
        rows = [[2, 1], [1, -1]]
        rhs = ([5, 1], [1, 0], [0, 1])
        assert solve_linear(rows, *rhs) == [solve_linear(rows, b)[0] for b in rhs]
        assert solve_linear(rows) == []
        # The checks run over all right-hand sides, malformed first.
        with pytest.raises(ValueError, match="malformed"):
            solve_linear([[1, 1], [2, 2]], [1, 3], [1])
        with pytest.raises(ValueError, match="inconsistent"):
            solve_linear([[1, 1], [2, 2]], [1, 2], [1, 3])

    def test_span_solver_expand_member_is_expand_of_the_member(self):
        family = [{0: 2, 1: 4}, {0: 1, 1: 2}, {1: 3}, {0: Fraction(1, 2), 1: 7}, {}]
        solver = SpanSolver(family)
        assert solver.independent == (0, 2)
        for k, v in enumerate(family):
            assert solver.expand_member(k) == solver.expand(v), k
        with pytest.raises(IndexError):
            solver.expand_member(len(family))

    def test_determinant(self):
        assert determinant([[1, 2], [3, 4]]) == -2
        assert determinant([[Fraction(1, 2), 0], [7, Fraction(2)]]) == 1
        assert determinant([[1, 2], [2, 4]]) == 0

    def test_positive_definite(self):
        assert is_positive_definite([[2, -1], [-1, 2]])
        assert not is_positive_definite([[1, 2], [2, 1]])
        assert not is_positive_definite([[0]])

    def test_dot(self):
        assert dot([1, 2], [Fraction(1, 2), 3]) == Fraction(13, 2)
        with pytest.raises(ValueError):
            dot([1], [1, 2])


class TestSparseStorage:
    """No operation stores an explicit zero; equality compares the edge maps."""

    @staticmethod
    def assert_no_zeros(m):
        assert all(m.edges.values()), m.edges

    def test_cancellations_leave_no_zeros(self):
        a = E(3, 1, 2) + E(3, 2, 1).scale(Fraction(1, 3))
        x = E(3, 1, 1) + E(3, 1, 2)
        y = E(3, 1, 3) - E(3, 2, 3)
        h = E(3, 1, 1) - E(3, 2, 2)
        for m in (a - a, a + (-a), a.scale(0), x @ y, mat_bracket(h, h.scale(5))):
            self.assert_no_zeros(m)
            assert m == EdgeMatrix(3, {})
        bracket = mat_bracket(E(3, 1, 2), E(3, 2, 1))
        self.assert_no_zeros(bracket)
        assert bracket == h

    def test_random_operations_match_dense_rows(self):
        rng = random.Random(314)

        def sample(dim):
            return from_rows(
                [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(dim)] for _ in range(dim)]
            )

        for _ in range(200):
            dim = rng.randint(1, 4)
            a, b = sample(dim), sample(dim)
            da, db = dense(a), dense(b)
            signs = [rng.choice((1, -1)) for _ in range(dim)]
            for m, op in ((a + b, operator.add), (a - b, operator.sub)):
                assert dense(m) == tuple(tuple(map(op, ra, rb)) for ra, rb in zip(da, db))
            product = a @ b
            assert dense(product) == tuple(
                tuple(sum(da[i][k] * db[k][j] for k in range(dim)) for j in range(dim))
                for i in range(dim)
            )
            for m in (a + b, a - b, -a, a.scale(Fraction(-2, 3)),
                      a.signed_transpose(signs), product, mat_bracket(a, b)):
                self.assert_no_zeros(m)
            assert a - a == EdgeMatrix(dim, {})
            assert a.trace() == sum(da[i][i] for i in range(dim))
