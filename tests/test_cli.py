"""Command-line behavior: golden output, determinism, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from conftest import family_ranks, replace, root_datum, run_cli, src_env

from liealg import AlgebraFamily, AlgebraSpec, cli, cli_suites, forms, invariants, roots, weyl
from liealg.matrices import SpanSolver
from liealg.polynomials import MultiPoly

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("sl", "3"),
    ("sp", "3"),
    ("so-even", "4"),
    ("so-odd", "3"),
]


class TestGoldenInfo:
    @pytest.mark.parametrize("family,n", GOLDEN_CASES)
    def test_text_matches_golden(self, family, n):
        code, out = run_cli(["info", family, n])
        assert code == 0
        expected = (GOLDEN / f"info_{family}_{n}.txt").read_text(encoding="utf-8")
        assert out == expected

    @pytest.mark.parametrize("family,n", GOLDEN_CASES)
    def test_json_matches_golden(self, family, n):
        code, out = run_cli(["info", family, n, "--format", "json"])
        assert code == 0
        expected = (GOLDEN / f"info_{family}_{n}.json").read_text(encoding="utf-8")
        assert out == expected
        payload = json.loads(out)
        assert payload["schema"] == "liealg/1"

    @pytest.mark.parametrize("family,n", GOLDEN_CASES)
    def test_byte_identical_across_invocations(self, family, n):
        first = run_cli(["info", family, n, "--format", "json"])
        second = run_cli(["info", family, n, "--format", "json"])
        assert first == second


# Outputs that carry check verdicts; each golden file is the exact expected stdout.
CHECK_GOLDENS = [
    ("verify_sp_2_all.txt", ["verify", "sp", "2", "all"]),
    ("verify_sp_2_all.json", ["verify", "sp", "2", "all", "--format", "json"]),
    ("verify_so-even_4_all.txt", ["verify", "so-even", "4", "all"]),
    ("verify_so-even_4_all.json", ["verify", "so-even", "4", "all", "--format", "json"]),
    ("serre_sp_2.txt", ["serre", "sp", "2"]),
    ("serre_sp_2.json", ["serre", "sp", "2", "--format", "json"]),
    ("invariants_so-even_4.txt", ["invariants", "so-even", "4"]),
    ("invariants_so-even_4.json", ["invariants", "so-even", "4", "--format", "json"]),
]

def scaled(vectors, scale):
    """The vectors times ``scale``, each entry a "p/q" string."""
    return [[str(Fraction(c) * scale) for c in w] for w in vectors]


# The roots of A7 in R^8, e_i - e_j, and of E6 in R^8: the roots of E8 whose
# last three coordinates are equal.
A7_ROOTS = [[int(k == i) - int(k == j) for k in range(8)]
            for i in range(8) for j in range(8) if i != j]
E6_ROOTS = [w for w in (
    [[s * (k == i) + t * (k == j) for k in range(8)]
     for i, j in combinations(range(8), 2) for s, t in product((1, -1), repeat=2)]
    + [list(c) for c in product((Fraction(1, 2), Fraction(-1, 2)), repeat=8)
       if sum(x < 0 for x in c) % 2 == 0]
) if w[5] == w[6] == w[7]]
A7_SCALED = scaled(A7_ROOTS, Fraction(3, 2))
E6_SCALED = scaled(E6_ROOTS, Fraction(2, 3))

# One classify input per outcome: (payload, exit code).  The last two are
# larger failing sets, whose texts are those of a check of every pair.
CLASSIFY_GOLDENS = {
    "b2_vectors": (
        {"vectors": [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [1, -1], [-1, 1]]},
        0,
    ),
    "axiom_failure": ({"vectors": [[1], [-1], [2], [-2]]}, 1),
    "zero_vector": ({"vectors": [[1], [-1], [0]]}, 1),
    "all_zero": ({"vectors": [[0, 0], [0, 0]]}, 1),
    "missing_negative": ({"vectors": [[1, 1], [-1, -1], [1, -1], [-1, 1], [2, 0]]}, 1),
    "inconsistent_lengths": ({"cartan": [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]]}, 1),
    "multiplicity_four": ({"cartan": [[2, -2], [-2, 2]]}, 1),
    # Both reasons apply; the length check runs first, before build_diagram.
    "inconsistent_and_multiplicity_four": ({"cartan": [[2, -2, -1], [-2, 2, -2], [-1, -1, 2]]}, 1),
    "affine_triangle": ({"cartan": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}, 1),
    "a7_dropped_root": ({"vectors": A7_SCALED[:5] + A7_SCALED[6:]}, 1),
    "e6_doubled_root": ({"vectors": E6_SCALED + scaled(E6_ROOTS[10:11], Fraction(4, 3))}, 1),
}


class TestGoldenChecks:
    @pytest.mark.parametrize("name,argv", CHECK_GOLDENS)
    def test_matches_golden(self, name, argv, capsys):
        code, out = run_cli(argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fmt", ["txt", "json"])
    @pytest.mark.parametrize("case", sorted(CLASSIFY_GOLDENS))
    def test_classify_matches_golden(self, case, fmt, tmp_path, capsys):
        payload, expected_code = CLASSIFY_GOLDENS[case]
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        argv = ["classify", str(path)] + (["--format", "json"] if fmt == "json" else [])
        code, out = run_cli(argv)
        assert code == expected_code
        assert out == (GOLDEN / f"classify_{case}.{fmt}").read_text(encoding="utf-8")
        assert capsys.readouterr().err == ""


class TestInfoContent:
    def test_so_odd_2_has_eight_roots(self):
        code, out = run_cli(["info", "so-odd", "2"])
        assert code == 0
        assert "roots: 8" in out.splitlines()

    def test_sp3_diagram_arrow_toward_chain(self):
        _, out = run_cli(["info", "sp", "3"])
        assert "o-o<=o" in out

    def test_enumerate_weyl(self):
        code, out = run_cli(["info", "sl", "3", "--enumerate-weyl"])
        assert code == 0
        assert "weyl order (enumerated): 6" in out

    def test_enumerate_weyl_over_cap(self):
        code, out = run_cli(
            ["info", "sp", "4", "--enumerate-weyl", "--max-order", "100"]
        )
        assert code == 0
        assert "skipped" in out

    def test_enumerate_weyl_of_a8_at_its_order(self):
        # |W(A8)| = 9! = 362,880: H = W(A7) is formed, the other 8 cosets only counted.
        code, out = run_cli(["info", "sl", "9", "--enumerate-weyl", "--max-order", "362880"])
        assert code == 0
        assert "weyl order (enumerated): 362880" in out.splitlines()

    def test_enumerate_weyl_of_a8_one_below_its_order(self):
        code, out = run_cli(["info", "sl", "9", "--enumerate-weyl", "--max-order", "362879"])
        assert code == 0
        assert ("weyl order (enumerated): skipped; order 362880 exceeds --max-order 362879"
                in out.splitlines())

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "sl", "3", "--enumerate-weyl", "--max-order", "0"],
            ["info", "sl", "3", "--enumerate-weyl", "--max-order", "-5"],
            ["verify", "sl", "3", "weyl", "--max-order", "0"],
        ],
    )
    def test_max_order_below_one_is_usage_error(self, argv, capsys):
        code, _ = run_cli(argv)
        assert code == 2
        assert "--max-order: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["\uff13", "1_0", " 7", "7 ", "7\n", "0x7", "+", "", "9" * 5000])
    @pytest.mark.parametrize("where", ["n", "--max-order"])
    def test_integers_outside_the_grammar_are_usage_errors(self, text, where, capsys):
        argv = ["info", "sl", "3", "--enumerate-weyl", "--max-order", "10"]
        argv[2 if where == "n" else 5] = text
        code, out = run_cli(argv)
        assert (code, out) == (2, "")
        assert f"argument {where}: invalid int value: {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("n,cap", [("+3", "+6"), ("03", "006")])
    def test_signed_and_zero_padded_integers_are_accepted(self, n, cap):
        reference = run_cli(["info", "sl", "3", "--enumerate-weyl", "--max-order", "6"])
        assert run_cli(["info", "sl", n, "--enumerate-weyl", "--max-order", cap]) == reference


def _scale_a_partner(monkeypatch):
    decompose = roots.cartan_decompose

    def broken(r):
        rd = decompose(r)
        return replace(rd, partners={**rd.partners, (2, 0): rd.partners[(2, 0)].scale(2)})

    monkeypatch.setattr(roots, "cartan_decompose", broken)


def _wrong_sigma_entry(monkeypatch):
    monkeypatch.setitem(cli_suites.FAMILY_SIGMA_COEFFICIENT, AlgebraFamily.SP, lambda n: 4 * n)


def _send_a_root_off(monkeypatch):
    apply = weyl.apply
    monkeypatch.setattr(
        weyl, "apply",
        lambda g, x: tuple(2 * c for c in apply(g, x)) if tuple(x) == (2, 0) else apply(g, x),
    )


def _suite_with(change):
    """A breaker under which ``build_suite`` returns its suite with ``change(polys)``."""

    def breaker(monkeypatch):
        build = invariants.build_suite

        def broken(family, n):
            suite = build(family, n)
            return replace(suite, polys=change(suite.polys))

        monkeypatch.setattr(invariants, "build_suite", broken)

    return breaker


# (suite, breaker, the FAIL line of `verify sp 2 <suite>` under the breaker)
BROKEN_VERDICTS = [
    pytest.param("sl2", _scale_a_partner,
                 "sl2: triple 2a1: FAIL (x, y, h relations and a(h)=2)", id="sl2-triple"),
    pytest.param("killing", _wrong_sigma_entry,
                 "killing: sum coefficient: FAIL (got 12, expected 8)", id="killing-sum"),
    pytest.param("weyl", _send_a_root_off,
                 "weyl: root system is permuted: FAIL"
                 " (each generator maps the root set onto itself)", id="weyl-permuted"),
    pytest.param("invariants", _suite_with(lambda p: (p[0] * p[0], p[1])),
                 "invariants: degree product equals weyl order: FAIL"
                 " (degrees [4, 4] multiply to 16, |W| = 8)", id="invariants-degrees"),
    pytest.param("invariants",
                 _suite_with(lambda p: (p[0] + MultiPoly.monomial(2, (2, 0)), p[1])),
                 "invariants: invariance under simple reflections: FAIL"
                 " (symbolic equality after substitution)", id="invariants-invariance"),
    pytest.param("invariants", _suite_with(lambda p: (p[0], p[0])),
                 "invariants: jacobian criterion: FAIL"
                 " (exact Jacobian determinant is nonzero)", id="invariants-jacobian"),
]


class TestVerifyCommand:
    def test_all_suites_pass(self):
        code, out = run_cli(["verify", "sl", "3", "all"])
        assert code == 0
        assert out.strip().endswith("result: PASS")
        assert "FAIL" not in out

    def test_serre_lists_relations(self):
        code, out = run_cli(["verify", "sp", "2", "serre"])
        assert code == 0
        assert "[X1,[X1,[X1,X2]]] = 0: PASS" in out

    def test_weyl_reports_order(self):
        code, out = run_cli(["verify", "so-even", "2", "weyl"])
        assert code == 0
        assert "enumerated 4, closed form 4" in out

    @pytest.mark.parametrize("element,status", [((-1, 2, 3), "fail"), ((-1, -2, 3), "pass")])
    def test_so_even_sign_product_verdict(self, element, status, monkeypatch):
        # One extra generator: a single sign flip must fail the check, a double
        # flip (already in the D3 Weyl group) must pass it.
        reflections = weyl.simple_reflections
        monkeypatch.setattr(weyl, "simple_reflections", lambda rd: [*reflections(rd), element])
        checks = {c.name: c for c in cli_suites._checks_weyl(root_datum(AlgebraFamily.SO_EVEN, 3), 100)}
        assert checks["even sign changes only"].status == status
        code, out = run_cli(["verify", "so-even", "3", "weyl"])
        assert code == (1 if status == "fail" else 0)  # a single flip also doubles |W| to 48
        assert f"weyl: even sign changes only: {status.upper()}" in out

    def test_killing_routes_that_disagree_fail(self, monkeypatch):
        ad_gram = forms.cartan_killing_gram_ad

        def perturbed(r):
            gram = [list(row) for row in ad_gram(r)]
            gram[0][-1] += 1
            return tuple(map(tuple, gram))

        monkeypatch.setattr(forms, "cartan_killing_gram_ad", perturbed)
        code, out = run_cli(["verify", "sp", "2", "killing"])
        assert code == 1
        assert "killing: ad-trace route equals root-sum route: FAIL" in out

    @pytest.mark.parametrize("suite,breaker,line", BROKEN_VERDICTS)
    def test_broken_input_fails_its_verdict(self, suite, breaker, line, monkeypatch):
        breaker(monkeypatch)
        code, out = run_cli(["verify", "sp", "2", suite])
        assert code == 1
        assert line in out.splitlines()

    def test_unknown_suite_is_usage_error(self):
        code, _ = run_cli(["verify", "sl", "3", "nonsense"])
        assert code == 2

    def test_invalid_family_is_usage_error(self):
        code, _ = run_cli(["verify", "xx", "3", "all"])
        assert code == 2

    def test_invalid_rank_is_usage_error(self):
        code, _ = run_cli(["info", "sl", "1"])
        assert code == 2

    def test_all_suites_eliminate_the_basis_once(self, monkeypatch):
        sizes = []
        init = SpanSolver.__init__

        def counted(self, family):
            init(self, family)
            sizes.append(len(self.independent))

        monkeypatch.setattr(SpanSolver, "__init__", counted)
        code, _ = run_cli(["verify", "sp", "4", "all"])
        assert code == 0
        # Every other elimination is over at most Lie-rank vectors.
        spec = AlgebraSpec(AlgebraFamily.SP, 4)
        assert [size for size in sizes if size > spec.lie_rank] == [spec.dimension]

    def test_json_payload_shape(self):
        code, out = run_cli(["verify", "sp", "2", "killing", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert all(c["status"] in ("pass", "fail", "skip") for c in payload["checks"])


class TestClassifyCommand:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_sl3_root_vectors(self, tmp_path):
        vectors = [
            ["1", "-1", "0"],
            ["-1", "1", "0"],
            ["1", "0", "-1"],
            ["-1", "0", "1"],
            ["0", "1", "-1"],
            ["0", "-1", "1"],
        ]
        path = self.write(tmp_path, "roots.json", {"vectors": vectors})
        code, out = run_cli(["classify", path])
        assert code == 0
        assert "classification: A2" in out

    def test_b2_root_vectors_with_integers(self, tmp_path):
        vectors = [
            [1, 0], [-1, 0], [0, 1], [0, -1],
            [1, 1], [-1, -1], [1, -1], [-1, 1],
        ]
        path = self.write(tmp_path, "roots.json", {"vectors": vectors})
        code, out = run_cli(["classify", path])
        assert code == 0
        assert "classification: B2" in out

    def test_axiom_failure_exits_one(self, tmp_path):
        path = self.write(
            tmp_path, "bad.json", {"vectors": [["1", "0"], ["2", "0"], ["-1", "0"], ["-2", "0"]]}
        )
        code, out = run_cli(["classify", path])
        assert code == 1
        assert "FAIL" in out

    def test_cartan_matrix_file(self, tmp_path):
        path = self.write(
            tmp_path, "cartan.json", {"cartan": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]}
        )
        code, out = run_cli(["classify", path])
        assert code == 0
        assert "classification: C3" in out

    def test_affine_cycle_fails_definiteness(self, tmp_path):
        path = self.write(
            tmp_path, "cycle.json", {"cartan": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}
        )
        code, out = run_cli(["classify", path])
        assert code == 1
        assert "NotSimple: positive definiteness fails" in out

    def test_parse_error_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _ = run_cli(["classify", str(path)])
        assert code == 2

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"cartan": [[2]]}\xff')
        code, out = run_cli(["classify", str(path)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text: ")

    def test_deeply_nested_array_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, out = run_cli(["classify", str(path)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"

    def test_empty_file_exits_two(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        code, _ = run_cli(["classify", str(path)])
        assert code == 2

    def test_bad_cartan_shape_exits_two(self, tmp_path):
        path = self.write(tmp_path, "ragged.json", {"cartan": [[2, -1], [-1]]})
        code, _ = run_cli(["classify", str(path)])
        assert code == 2

    def test_missing_key_exits_two(self, tmp_path):
        path = self.write(tmp_path, "off.json", {"something": []})
        code, _ = run_cli(["classify", str(path)])
        assert code == 2

    @pytest.mark.parametrize("payload,keys", [
        ({"vectors": [["1", "-1"], ["-1", "1"]], "cartan": [[2]]}, '"vectors", "cartan"'),
        ({"cartan": [[2]], "note": "A1"}, '"cartan", "note"'),
        ({}, "none"),
        ([[2]], "none"),
    ])
    def test_document_outside_the_grammar_exits_two(self, tmp_path, capsys, payload, keys):
        # Exactly one of "vectors" and "cartan", and no other key.
        path = self.write(tmp_path, "mixed.json", payload)
        code, out = run_cli(["classify", path])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f'error: {path}: expected a JSON object with exactly one key, "vectors" or'
            f' "cartan"; got keys: {keys}\n'
        )

    @pytest.mark.parametrize("text,key", [
        ('{"vectors": [[1], [-1]], "vectors": [[1, 0], [0, 1]]}', "vectors"),
        ('{"cartan": [[2]], "cartan": [[2]]}', "cartan"),
    ], ids=["vectors", "cartan"])
    def test_a_repeated_key_exits_two(self, tmp_path, capsys, text, key):
        # json keeps the last of two equal keys; the file is rejected instead.
        path = tmp_path / "twice.json"
        path.write_text(text, encoding="utf-8")
        code, out = run_cli(["classify", str(path)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f'error: {path}: duplicate key "{key}"\n'


class TestSerreCommand:
    def test_pass_and_exit_zero(self):
        code, out = run_cli(["serre", "so-odd", "2"])
        assert code == 0
        assert out.strip().endswith("result: PASS")


class TestInvariantsCommand:
    def test_pass_and_degrees(self):
        code, out = run_cli(["invariants", "sp", "3"])
        assert code == 0
        assert "degrees: 2, 4, 6" in out
        assert "degree product: 48" in out

    @pytest.mark.parametrize("family,n", [
        (family.cli_name, str(n)) for family, n in family_ranks(5)
        if AlgebraSpec(family, n).lie_rank <= 4
    ])
    def test_jacobian_stays_off_the_symbolic_route(self, family, n, monkeypatch):
        # The classical suites are certified at one point, so the symbolic
        # determinant is never reached from the CLI.
        commands = [["invariants", family, n], ["verify", family, n, "invariants"],
                    ["verify", family, n, "all"]]
        expected = [run_cli(argv) for argv in commands]

        def refuse(*args, **kwargs):
            raise AssertionError("symbolic Jacobian called")

        monkeypatch.setattr(invariants, "jacobian", refuse)
        monkeypatch.setattr(invariants, "poly_det", refuse)
        for argv, before in zip(commands, expected):
            assert before[0] == 0
            assert "jacobian criterion: PASS" in before[1]
            assert run_cli(argv) == before


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "liealg", "info", "sl", "2"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert result.returncode == 0
        assert "algebra: sl_2" in result.stdout

    def test_usage_error_returncode(self):
        result = subprocess.run(
            [sys.executable, "-m", "liealg", "info"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert result.returncode == 2


def _closed_pipe():
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


def _full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    return os.open("/dev/full", os.O_WRONLY)


SINKS = [pytest.param(_closed_pipe, id="closed-pipe"), pytest.param(_full_device, id="full")]


def _run_into(sink, argv: list[str]) -> subprocess.CompletedProcess:
    fd = sink()
    try:
        return subprocess.run([sys.executable, "-m", "liealg", *argv], stdout=fd,
                              stderr=subprocess.PIPE, text=True, env=src_env())
    finally:
        os.close(fd)


class TestOutputFailure:
    @pytest.mark.parametrize("sink", SINKS)
    @pytest.mark.parametrize("argv", [
        ["info", "sl", "3"],
        ["info", "sp", "3", "--format", "json"],
        ["verify", "sp", "3", "all"],
        ["classify", "@file"],
    ], ids=["info", "info-json", "verify", "classify"])
    def test_a_failed_write_is_one_error_line_and_exit_2(self, sink, argv, tmp_path):
        path = tmp_path / "b2.json"
        path.write_text('{"cartan": [[2, -1], [-2, 2]]}', encoding="utf-8")
        result = _run_into(sink, [str(path) if arg == "@file" else arg for arg in argv])
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: cannot write output: ")
        assert result.stderr.count("\n") == 1 and result.stderr.count("error:") == 1

    @pytest.mark.parametrize("sink", SINKS)
    @pytest.mark.parametrize("argv", [["--help"], ["info", "--help"]], ids=["help", "info-help"])
    def test_a_failed_write_of_the_help_is_one_error_line_and_exit_2(self, sink, argv):
        result = _run_into(sink, argv)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: cannot write output: ")
        assert result.stderr.count("\n") == 1 and result.stderr.count("error:") == 1


def test_the_parser_selectors_name_every_suite_in_order():
    assert cli.SELECTORS == (*cli_suites.SUITES, "all")
