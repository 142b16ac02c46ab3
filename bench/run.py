"""Benchmark of the liealg command line, one command per fresh process.

Usage, from the repository root:

    python3 bench/run.py --workload derive --seed 1 --seconds 15 --trace 0

Workloads: derive, verify, classify, group (see workloads.py for why each
was chosen).  The batch is generated from --seed; the program receives only
the generated argv and input files.  Commands run one at a time from this
process, a closed loop with one client: the next command starts when the
previous one has exited.  Whole rounds over the batch repeat until
--seconds have passed and at least MIN_COMMANDS commands have run.  Every
output is checked by oracle.py.  Each timed command is paired with a fixed
reference process, and times are reported at the speed at which that
process takes REFERENCE_S (see REFERENCE below).

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 every command runs once untraced and once under traced.py, and
the line reports per-layer self times and counts (means per command) and
the tracing overhead.  Progress and a summary go to stderr.  The metric
list with units and directions is in METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import traced
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_work"

SETUP_REPEATS = 5
MIN_COMMANDS = 40
# The tail percentile: with at least MIN_COMMANDS samples, at least ten lie beyond it.
TAIL_PERCENTILE = 75
COMMAND_TIMEOUT_S = 30
# No command starts after this, so that a run ends well within 180 s.
RUN_LIMIT_S = 110

# Children see only this environment, so that every commit is measured alike:
# sources from src/, a fixed hash seed, and no bytecode cache, so every
# command compiles the package afresh and nothing is written into src/.
CHILD_ENV = {
    "PATH": os.defpath,
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "LC_ALL": "C.UTF-8",
}
PLAIN = (sys.executable, "-m", "liealg")

# New processes on a shared host run up to 1.7 times slower in phases lasting
# seconds to minutes, which a long-lived process does not see.  So each timed
# command is paired with this fixed, stdlib-only process, run just before it,
# which does the kind of work a command does (start-up, imports, compiling
# source, Fraction arithmetic); the command's latency is scaled by
# REFERENCE_S over the reference's latency.  Times are thus reported at a
# fixed machine speed, at which the reference process takes REFERENCE_S.
REFERENCE = (sys.executable, "-c",
             "import argparse, dataclasses, enum, fractions, json, typing\n"
             "source = open(fractions.__file__).read()\n"
             "compile(source, 'a', 'exec'); compile(source, 'b', 'exec')\n"
             "sum(fractions.Fraction(i, i + 1) * fractions.Fraction(2, 3) for i in range(1, 3000))\n")
REFERENCE_S = 0.1


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


@dataclass(frozen=True)
class Sample:
    """One finished command: latency, peak RSS, exit code and output."""

    latency_s: float
    rss_kb: int
    exit_code: int
    stdout: str
    stderr: str


def spawn(prefix: tuple[str, ...], argv: tuple[str, ...], scratch: Path) -> Sample:
    """Run one command to completion; latency is from spawn to exit."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(prefix + argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT, env=CHILD_ENV)
        signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:  # a timeout, or this process being stopped
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, _Timeout):
                raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(latency, usage.ru_maxrss, proc.returncode,
                  out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def reference_s(scratch: Path) -> float:
    """Latency of one REFERENCE process."""
    sample = spawn(REFERENCE, (), scratch)
    if sample.exit_code != 0:
        raise RuntimeError(f"reference process failed: {sample.stderr.strip()[-300:]}")
    return sample.latency_s


def judge(command: workloads.Command, sample: Sample) -> tuple[str | None, int]:
    """(error or None, skips reported) for one finished command."""
    try:
        return None, oracle.check(command.expect, sample.exit_code, sample.stdout, sample.stderr)
    except oracle.Mismatch as exc:
        return f"{' '.join(command.argv)}: {exc}", 0
    except Exception as exc:  # output so malformed that the oracle could not read it
        return f"{' '.join(command.argv)}: unreadable output ({type(exc).__name__}: {exc})", 0


def set_up(workload: str, seed: int, workdir: Path) -> tuple[workloads.Batch, str | None]:
    """Generate the batch, write its files, and run one untimed warm-up command."""
    batch = workloads.generate(workload, seed, workdir.relative_to(ROOT).as_posix())
    for name, text in batch.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    error, _ = judge(batch.warmup, spawn(PLAIN, batch.warmup.argv, workdir))
    return batch, error


def measure(batch: workloads.Batch, seconds: float, trace: bool, workdir: Path) -> dict:
    """Whole rounds until `seconds` have passed and MIN_COMMANDS have run (untraced)."""
    samples: list[Sample] = []
    references: list[float] = []
    traced_samples: list[Sample] = []
    layers: list[dict[str, float]] = []
    errors: list[str] = []
    skips = 0
    rounds = 0
    layer_path = workdir / "layers.json"
    traced_prefix = (sys.executable, str(BENCH / "traced.py"), str(layer_path))
    start = time.perf_counter()
    while True:
        for index in batch.round_order(rounds):
            if time.perf_counter() - start > RUN_LIMIT_S:
                break
            command = batch.commands[index]
            if not trace:
                references.append(reference_s(workdir))
            sample = spawn(PLAIN, command.argv, workdir)
            samples.append(sample)
            error, skipped = judge(command, sample)
            if error:
                errors.append(error)
            skips += skipped
            if trace:
                sample = spawn(traced_prefix, command.argv, workdir)
                traced_samples.append(sample)
                error, skipped = judge(command, sample)
                if error:
                    errors.append(error)
                layer = json.loads(layer_path.read_text()) if layer_path.exists() else {}
                layer["cli.checks_skipped"] = skipped
                layers.append(layer)
                layer_path.unlink(missing_ok=True)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed > RUN_LIMIT_S or (
                elapsed >= seconds and (trace or len(samples) >= MIN_COMMANDS)):
            break
    return {"samples": samples, "references": references, "traced": traced_samples,
            "layers": layers,
            "errors": errors, "skips": skips, "rounds": rounds, "wall_s": elapsed}


def end_to_end(result: dict, setup_s: float) -> dict[str, tuple[float, str]]:
    """Metrics at the reference machine speed (see REFERENCE)."""
    latencies = [s.latency_s * REFERENCE_S / ref
                 for s, ref in zip(result["samples"], result["references"])]
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return {
        "setup_s": (setup_s, "s"),
        "cmd_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        f"cmd_tail_p{TAIL_PERCENTILE}_ms": (tail * 1000, "ms"),
        "cmds_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (max(s.rss_kb for s in result["samples"]) / 1024, "MB"),
    }


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    layers = result["layers"]
    names = ["cli.import_s", *traced.TIME_METRICS, *traced.COUNT_METRICS, "cli.checks_skipped"]
    out = {}
    for name in names:
        values = [layer.get(name, 0) for layer in layers]
        out[name] = (sum(values) / len(values), "s" if name.endswith("_s") else "count")
    plain = sum(s.latency_s for s in result["samples"])
    out["trace.overhead_ratio"] = (sum(s.latency_s for s in result["traced"]) / plain, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "liealg" / "cli.py").is_file():
        print(f"error: no liealg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        setups = []
        for _ in range(SETUP_REPEATS):
            scale = REFERENCE_S / reference_s(workdir)
            begin = time.perf_counter()
            batch, warmup_error = set_up(args.workload, args.seed, workdir)
            setups.append((time.perf_counter() - begin) * scale)
            if warmup_error:
                break
        result = measure(batch, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    errors = ([warmup_error] if warmup_error else []) + result["errors"]
    attempted = len(result["samples"]) + len(result["traced"])
    metrics = per_layer(result) if args.trace else end_to_end(result, statistics.median(setups))
    print(f"workload {args.workload} seed {args.seed}: {len(batch.commands)} distinct commands,"
          f" {result['rounds']} rounds, {attempted} commands in {result['wall_s']:.2f} s,"
          f" {len(errors)} failed, {result['skips']} checks skipped; mix {batch.shares}",
          file=sys.stderr)
    print(f"children: {' '.join(PLAIN)} with {CHILD_ENV}", file=sys.stderr)
    if result["references"]:
        raw = [s.latency_s * 1000 for s in result["samples"]]
        print(f"unscaled: cmd_p50_ms {statistics.median(raw):.1f}, reference process median"
              f" {statistics.median(result['references']) * 1000:.1f} ms,"
              f" loop {len(raw) / result['wall_s']:.3f} commands/s", file=sys.stderr)
    for error in errors[:10]:
        print(f"FAIL {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(result["errors"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
