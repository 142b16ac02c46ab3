"""The CLI on arbitrary argv lists: an exit code of 0, 1 or 2, never an escape.

Argument lists are drawn from the commands, families, suites and flags, from
small and malformed integers (signs, leading zeros, underscores, non-ASCII
digits, a numeral over Python's int-conversion limit) and from good,
not-simple, non-UTF-8 and missing classify files: in a well-formed order,
with tokens then dropped, inserted or swapped, and as free token lists.  Each run calls
``cli.main`` in-process, so any exception other than argparse's exit fails
the test.  Every integer that parses is at most 3, so no run builds a large
algebra.  An exit of 2 prints exactly one stderr line that contains
``error:``; exits 0 and 1 print nothing on stderr.

``main`` reads a command line in the canonical order without argparse.  On
the same lists, whenever that parser returns a namespace it equals the one
argparse returns; every canonical command line takes that path, and a list
of other command lines (help, other spellings, bad values) does not.
"""

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from liealg import cli, cli_argparse

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

COMMANDS = ("info", "verify", "classify", "serre", "invariants")
FAMILIES = ("sl", "sp", "so-even", "so-odd")
INTEGERS = ("1", "2", "3", "+2", "02")
# Values that each position rejects.
BAD_COMMANDS = ("bogus", "", "INFO")
BAD_FAMILIES = ("SL", "so", "gl", "")
BAD_SUITES = ("nope", "", "ALL")
BAD_INTEGERS = ("0", "-1", "1_0", "٣", " 2", "2.0", "", "9" * 5000)
FLAGS = (
    "--format", "text", "json", "xml", "--format=json",
    "--max-order", "--max-order=1", "--enumerate-weyl", "--help", "-h", "--bogus", "-",
)
FILES = ("good", "not_simple", "bad_utf8", "missing")


@pytest.fixture(scope="module")
def classify_files(tmp_path_factory):
    """{"@kind": path} for the classify inputs; the missing one is never written."""
    root = tmp_path_factory.mktemp("classify")
    paths = {kind: root / f"{kind}.json" for kind in FILES}
    paths["good"].write_text(json.dumps({"cartan": [[2, -1], [-1, 2]]}), encoding="utf-8")
    paths["not_simple"].write_text(
        json.dumps({"cartan": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}), encoding="utf-8"
    )
    paths["bad_utf8"].write_bytes(b'{"cartan": [[2, "\xff"]]}')
    return {f"@{kind}": str(path) for kind, path in paths.items()}


# A file token is drawn as "@kind" and replaced by its path when the test runs.
FILE = st.sampled_from(FILES).map("@{}".format)
POOLS = (
    COMMANDS + BAD_COMMANDS,
    FAMILIES + BAD_FAMILIES,
    cli.SELECTORS + BAD_SUITES,
    INTEGERS + BAD_INTEGERS,
    FLAGS,
)
TOKEN = st.one_of(*map(st.sampled_from, POOLS), FILE)


def mostly(good, bad):
    """A good value at least half the time, else any of good and bad."""
    return st.one_of(st.sampled_from(good), st.sampled_from(good + bad))


# The options each command accepts, as groups of tokens.
OPTIONS = {
    "info": (("--enumerate-weyl",), ("--max-order",)),
    "verify": (("--max-order",),),
}
BAD_OPTIONS = (("--bogus",), ("-h",), ("--format", "xml"), ("--max-order",), ("--enumerate-weyl",))


@st.composite
def options(draw, command):
    groups = ((("--format",),) + OPTIONS.get(command, ()), BAD_OPTIONS)
    tokens = []
    for group in draw(st.lists(mostly(*groups), max_size=3)):
        if group == ("--format",):
            group += (draw(st.sampled_from(("text", "json"))),)
        elif group == ("--max-order",):
            group += (draw(mostly(INTEGERS, BAD_INTEGERS)),)
        tokens.extend(group)
    return tokens


@st.composite
def well_formed(draw):
    command = draw(mostly(COMMANDS, BAD_COMMANDS))
    if command == "classify":
        head = [draw(FILE)]
    else:
        head = [draw(mostly(FAMILIES, BAD_FAMILIES)), draw(mostly(INTEGERS, BAD_INTEGERS))]
        if command == "verify":
            head.append(draw(mostly(cli.SELECTORS, BAD_SUITES)))
    return [command, *head, *draw(options(command))]


@st.composite
def mangled(draw):
    argv = draw(well_formed())
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("drop", "insert", "swap")))
        if edit == "drop" and k < len(argv):
            del argv[k]
        elif edit == "insert":
            argv.insert(k, draw(TOKEN))
        elif edit == "swap" and k + 1 < len(argv):
            argv[k], argv[k + 1] = argv[k + 1], argv[k]
    return argv


ARGV = st.one_of(well_formed(), mangled(), st.lists(TOKEN, max_size=6))


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(ARGV)
def test_argv_ends_in_an_exit_code(classify_files, argv):
    argv = [classify_files.get(token, token) for token in argv]
    code, out, err = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 2:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, (argv, err)
    else:
        assert err == "", (argv, err)


@pytest.fixture(scope="module")
def argparser():
    return cli_argparse.build_parser()


def argparse_reads(argparser, argv: list[str]) -> dict:
    """vars() of argparse's namespace for argv; failing if argparse rejects it."""
    with redirect_stderr(io.StringIO()) as err:
        try:
            return vars(argparser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"argparse rejects {argv}: {err.getvalue()}")


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(ARGV)
def test_the_fast_parser_reads_what_argparse_reads(classify_files, argparser, argv):
    argv = [classify_files.get(token, token) for token in argv]
    fast = cli._parse_canonical(argv)
    if fast is not None:
        assert vars(fast) == argparse_reads(argparser, argv), argv


# Each command's positionals, with the values that parse, and its options.
POSITIONALS = {"family": FAMILIES, "n": INTEGERS, "suite": cli.SELECTORS, "path": ("@good",)}
HEADS = {"info": ("family", "n"), "verify": ("family", "n", "suite"), "classify": ("path",),
         "serre": ("family", "n"), "invariants": ("family", "n")}
SPELLINGS = {
    "--format": (("--format", "text"), ("--format", "json")),
    "--enumerate-weyl": (("--enumerate-weyl",),),
    "--max-order": tuple(("--max-order", k) for k in INTEGERS),
}


def canonical_argvs(command: str):
    """The command with every value of its positionals, then every ordered choice of
    distinct options, each with every value it takes."""
    flags = ("--format", *(group[0] for group in OPTIONS.get(command, ())))
    for head in itertools.product(*(POSITIONALS[name] for name in HEADS[command])):
        for k in range(len(flags) + 1):
            for chosen in itertools.permutations(flags, k):
                for tail in itertools.product(*(SPELLINGS[flag] for flag in chosen)):
                    yield [command, *head, *itertools.chain.from_iterable(tail)]


# A repeated option: the last occurrence wins, as in argparse.
REPEATED = (
    ["info", "sl", "3", "--format", "json", "--format", "text"],
    ["verify", "sp", "2", "weyl", "--max-order", "7", "--format", "json", "--max-order", "02"],
    ["info", "so-odd", "2", "--enumerate-weyl", "--max-order", "+5", "--enumerate-weyl"],
)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_canonical_command_line_takes_the_fast_path(classify_files, argparser, command):
    argvs = [*canonical_argvs(command), *(argv for argv in REPEATED if argv[0] == command)]
    for argv in argvs:
        argv = [classify_files.get(token, token) for token in argv]
        fast = cli._parse_canonical(argv)
        assert fast is not None, argv
        assert vars(fast) == argparse_reads(argparser, argv), argv


# Command lines outside the canonical order, or with a value that does not parse: the fast
# parser returns None and argparse reads them, with its help text or usage error.
NOT_CANONICAL = (
    [], ["bogus"], ["--help"], ["-h"], ["info", "--help"], ["verify", "sl", "3", "all", "-h"],
    ["info", "sl", "3", "--format=json"], ["info", "sl", "3", "--form", "json"],
    ["info", "sl", "3", "--enum"], ["info", "--", "sl", "3"], ["info", "sl", "3", "--"],
    ["info", "sl", "-1"], ["info", "-x", "3"], ["verify", "sl", "3", "-"], ["classify", "-"],
    ["info", "sl"], ["verify", "sl", "3"], ["info", "sl", "3", "4"], ["classify"],
    ["info", "sl", "x"], ["info", "sl", "1_0"], ["info", "sl", "9" * 5000],
    ["info", "sl", "3", "--format", "xml"], ["info", "sl", "3", "--format"],
    ["info", "sl", "3", "--max-order"], ["info", "sl", "3", "--max-order", "0"],
    ["verify", "sl", "3", "all", "--max-order", "-5"], ["info", "sl", "3", "--max-order", "٣"],
    ["serre", "sl", "3", "--enumerate-weyl"], ["classify", "f.json", "--max-order", "5"],
    ["info", "--format", "json", "sl", "3"], ["verify", "sl", "3", "--max-order", "5", "all"],
)


@pytest.mark.parametrize("argv", NOT_CANONICAL, ids=lambda argv: " ".join(argv)[:40] or "empty")
def test_every_other_command_line_is_left_to_argparse(argv):
    assert cli._parse_canonical(argv) is None
