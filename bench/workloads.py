"""Seeded command batches for the four benchmark workloads.

A batch is a list of distinct commands.  The loop in ``run.py`` replays the
batch round after round, each round in a fresh seeded order, so every
distinct command repeats and percentiles rest on repeats.  The costly part
of each grid (families, ranks, suites, root-system types) is fixed; the
seed picks output formats, file transforms, Cartan-file types, negative
cases and the order of every round.  So two seeds give different batches
whose rounds cost about the same.

Each command carries an ``expect`` record for the oracle (``oracle.py``),
built from the closed forms in ``textbook.py`` and from the generator's own
knowledge of the files it wrote, never from the program's output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import textbook as tb

WORKLOADS = ("derive", "verify", "classify", "group")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # arguments after `python -m liealg`
    expect: dict


@dataclass
class Batch:
    workload: str
    seed: int
    commands: list[Command]
    warmup: Command
    files: dict[str, str] = field(default_factory=dict)  # name -> JSON text
    shares: dict[str, float] = field(default_factory=dict)

    def round_order(self, k: int) -> list[int]:
        """The seeded order of round k over the distinct commands."""
        order = list(range(len(self.commands)))
        random.Random(f"{self.workload}:{self.seed}:round:{k}").shuffle(order)
        return order


def family_for_rank(family: str, rank: int) -> int:
    """The CLI parameter n whose Lie rank is ``rank``."""
    return rank + 1 if family == "sl" else rank


def _formats(rng: random.Random, count: int) -> list[str]:
    """Exactly half text and half json (text gets the odd one), shuffled."""
    out = ["json"] * (count // 2) + ["text"] * (count - count // 2)
    rng.shuffle(out)
    return out


def _info(family: str, n: int, fmt: str, max_order: int | None = None) -> Command:
    argv = ["info", family, str(n)]
    if max_order is not None:
        argv.append("--enumerate-weyl")
        if max_order != 100_000:
            argv += ["--max-order", str(max_order)]
    if fmt == "json":
        argv += ["--format", "json"]
    expect = {"kind": "info", "family": family, "n": n, "format": fmt, "max_order": max_order}
    return Command(tuple(argv), expect)


def _verify(family: str, n: int, suite: str, fmt: str) -> Command:
    argv = ["verify", family, str(n), suite] + (["--format", "json"] if fmt == "json" else [])
    expect = {"kind": "verify", "family": family, "n": n, "suite": suite, "format": fmt}
    return Command(tuple(argv), expect)


def _invariants(family: str, n: int, fmt: str) -> Command:
    argv = ["invariants", family, str(n)] + (["--format", "json"] if fmt == "json" else [])
    return Command(tuple(argv), {"kind": "invariants", "family": family, "n": n, "format": fmt})


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

# derive: `info` on all four families with no Weyl enumeration, so build and
# cartan_decompose do the work and no axioms, Killing-ad or Weyl code runs.
# Every family at every Lie rank 3-7; the seed picks which half prints JSON.
DERIVE_RANKS = range(3, 8)


def derive(seed: int, workdir: str) -> Batch:
    rng = random.Random(f"derive:{seed}")
    picks = [(family, rank) for family in tb.FAMILIES for rank in DERIVE_RANKS]
    formats = _formats(rng, len(picks))
    commands = [
        _info(family, family_for_rank(family, rank), fmt)
        for (family, rank), fmt in zip(picks, formats)
    ]
    shares = {"json": formats.count("json") / len(formats)}
    return Batch("derive", seed, commands, _info("sl", 4, "text"), shares=shares)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# verify: the check suites do the work and decomposition little.  Half the
# commands run `all`, half a single suite, so the amount of work one command
# shares across suites varies; that is where compute-once changes show.
# `all` runs at Lie rank 2-4 (so-even 3-4); each suite runs alone at Lie
# rank 4 or 5, on two families (axioms and serre on one).  The seed picks
# the formats.
VERIFY_ALL_RANKS = {"sl": (2, 3, 4), "sp": (2, 3), "so-odd": (2, 3, 4), "so-even": (3, 4)}
VERIFY_SINGLES = {  # family: (Lie rank, suites run alone)
    "sl": (5, ("axioms", "invariants")),
    "sp": (4, ("sl2", "killing", "weyl")),
    "so-odd": (4, ("sl2", "killing", "invariants")),
    "so-even": (5, ("serre", "weyl")),
}


def verify(seed: int, workdir: str) -> Batch:
    rng = random.Random(f"verify:{seed}")
    picks = [(family, rank, "all") for family in tb.FAMILIES for rank in VERIFY_ALL_RANKS[family]]
    picks += [(family, rank, suite) for family, (rank, suites) in VERIFY_SINGLES.items()
              for suite in suites]
    formats = _formats(rng, len(picks))
    commands = [
        _verify(family, family_for_rank(family, rank), suite, fmt)
        for (family, rank, suite), fmt in zip(picks, formats)
    ]
    shares = {"all": sum(c.expect["suite"] == "all" for c in commands) / len(commands)}
    return Batch("verify", seed, commands, _verify("sl", 3, "all", "text"), shares=shares)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

# classify: user-supplied root vectors checked with the plain dot product, so
# verify_root_axioms runs without any matrix algebra, plus Cartan-matrix
# files (sums of simple types with relabelled vertices) and negative inputs
# with known exit codes.  Per round: seventeen vector files of fixed types
# (the seed picks the transforms), four Cartan files of seeded types, one
# dropped root (exit 1), one affine Cartan matrix (exit 1) and one truncated
# file (exit 2).
VECTOR_TYPES = (("A", 3), ("A", 4), ("A", 5), ("A", 6), ("A", 7), ("B", 3), ("B", 4), ("B", 5),
                ("C", 3), ("C", 4), ("C", 5), ("D", 4), ("D", 5), ("D", 6), ("G", 2), ("F", 4),
                ("E", 6))
SIMPLE_TYPES = [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)] \
    + [("C", r) for r in range(3, 9)] + [("D", r) for r in range(4, 9)] \
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
SCALES = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3, 2),
          Fraction(-2, 3), Fraction(5, 3), Fraction(7, 4))


def _rational_cell(rng: random.Random, x: Fraction):
    if x.denominator == 1 and rng.random() < 0.5:
        return int(x)
    return str(x)


def _transformed_vectors(rng: random.Random, roots: list[tb.Vector]) -> list[list]:
    """A seeded signed coordinate permutation, a common rational rescale and a shuffle."""
    m = len(roots[0])
    perm = list(range(m))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(m)]
    c = rng.choice(SCALES)
    rows = [[_rational_cell(rng, c * signs[k] * v[perm[k]]) for k in range(m)] for v in roots]
    rng.shuffle(rows)
    return rows


def _relabelled(rng: random.Random, blocks: list[list[list[int]]]) -> list[list[int]]:
    """Block-diagonal sum of Cartan matrices with a seeded vertex relabelling."""
    size = sum(len(b) for b in blocks)
    full = [[0] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                full[offset + i][offset + j] = x
        offset += len(b)
    perm = list(range(size))
    rng.shuffle(perm)
    return [[full[perm[i]][perm[j]] for j in range(size)] for i in range(size)]


def _affine_cartan(rng: random.Random) -> list[list[int]]:
    """Affine A~_r (a cycle) or D~_4 (a star): positive semidefinite, not definite."""
    if rng.random() < 0.5:
        r = rng.randint(2, 6)
        m = r + 1
        A = [[2 if i == j else -1 if (i - j) % m in (1, m - 1) else 0 for j in range(m)]
             for i in range(m)]
    else:
        A = [[2, -1, -1, -1, -1]] + [[-1] + [2 if i == j else 0 for j in range(4)] for i in range(4)]
    return _relabelled(rng, [A])


def classify(seed: int, workdir: str) -> Batch:
    rng = random.Random(f"classify:{seed}")
    files: dict[str, str] = {}
    commands: list[Command] = []
    kinds: list[str] = []

    def add_file(payload: dict, expect: dict, text: str | None = None) -> None:
        name = f"input{len(files):02d}.json"
        files[name] = json.dumps(payload) if text is None else text
        fmt = rng.choice(("text", "json"))
        path = f"{workdir}/{name}"
        argv = ("classify", path) + (("--format", "json") if fmt == "json" else ())
        commands.append(Command(argv, dict(expect, kind="classify", format=fmt)))
        kinds.append(expect["case"])

    for letter, r in VECTOR_TYPES:
        rows = _transformed_vectors(rng, tb.root_system(letter, r))
        add_file({"vectors": rows}, {"case": "vectors", "types": [[letter, r]], "exit": 0})

    for parts in (1, 1, 2, 3):
        types = [rng.choice(SIMPLE_TYPES) for _ in range(parts)]
        A = _relabelled(rng, [tb.textbook_cartan(letter, r) for letter, r in types])
        add_file({"cartan": A},
                 {"case": "cartan", "types": [list(t) for t in types], "matrix": A, "exit": 0})

    letter, r = rng.choice((("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)))
    rows = _transformed_vectors(rng, tb.root_system(letter, r))
    rows.pop(rng.randrange(len(rows)))
    add_file({"vectors": rows}, {"case": "dropped_root", "exit": 1})

    add_file({"cartan": _affine_cartan(rng)}, {"case": "affine", "exit": 1})

    letter, r = rng.choice(SIMPLE_TYPES)
    text = json.dumps({"cartan": tb.textbook_cartan(letter, r)})
    add_file({}, {"case": "truncated", "exit": 2}, text=text[: rng.randint(1, len(text) - 2)])

    warm_name = "warmup.json"
    files[warm_name] = json.dumps({"vectors": _transformed_vectors(rng, tb.root_system("A", 2))})
    warmup = Command(("classify", f"{workdir}/{warm_name}"),
                     {"kind": "classify", "case": "vectors", "types": [["A", 2]], "exit": 0,
                      "format": "text"})
    shares = {"negative": sum(k in ("dropped_root", "affine", "truncated") for k in kinds)
              / len(kinds)}
    return Batch("classify", seed, commands, warmup, files=files, shares=shares)


# ---------------------------------------------------------------------------
# group
# ---------------------------------------------------------------------------

# group: the Weyl breadth-first closure, the only layer whose memory grows
# with |W|, dominates here.  `info --enumerate-weyl` with |W| from 384 to
# 23040, over-cap runs that enumerate --max-order + 1 elements before
# reporting "skipped", and `invariants` at Lie rank 2 (3 for so-even), 4
# and 5 for every family (the symbolic Jacobian runs at rank <= 4 and is
# skipped above it).
GROUP_ENUMERATE = (("sp", 4), ("so-odd", 4), ("sl", 6), ("so-even", 5), ("sp", 5),
                   ("so-odd", 5), ("sl", 7), ("so-even", 6))
# |W| = 384, 384, 720, 1920, 3840, 3840, 5040, 23040
# (family, n, --max-order): |W| = 40320, 23040, 3840, 3840.
GROUP_OVER_CAP = (("sl", 8, 10_000), ("so-even", 6, 10_000), ("sp", 5, 2_000),
                  ("so-odd", 5, 2_000))
GROUP_INVARIANT_RANKS = {"sl": (2, 4, 5), "sp": (2, 4, 5), "so-odd": (2, 4, 5), "so-even": (3, 4, 5)}


def group(seed: int, workdir: str) -> Batch:
    rng = random.Random(f"group:{seed}")
    picks = [("info", family, n, 100_000) for family, n in GROUP_ENUMERATE]
    picks += [("info", family, n, cap) for family, n, cap in GROUP_OVER_CAP]
    picks += [("invariants", family, family_for_rank(family, rank), None)
              for family in tb.FAMILIES for rank in GROUP_INVARIANT_RANKS[family]]
    formats = _formats(rng, len(picks))
    commands = [
        _info(family, n, fmt, cap) if kind == "info" else _invariants(family, n, fmt)
        for (kind, family, n, cap), fmt in zip(picks, formats)
    ]
    shares = {"over_cap": len(GROUP_OVER_CAP) / len(commands)}
    return Batch("group", seed, commands, _info("sl", 5, "text", 100_000), shares=shares)


GENERATORS = {"derive": derive, "verify": verify, "classify": classify, "group": group}


def generate(workload: str, seed: int, workdir: str) -> Batch:
    return GENERATORS[workload](seed, workdir)
