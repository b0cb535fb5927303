#!/usr/bin/env python3
"""Benchmark of the conicring command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload classify --seed 1 --seconds 18 --trace 0

One client issues one CLI invocation (an op) at a time and waits for it:
a closed loop with no threads.  In-process workloads call `cli.main(argv)`
with stdout captured; `cold_cli` starts `python -m conicring` per op.  An op
fails when it exits 1 or 2 or passes its time limit; a wrong output aborts
the run.  `--trace 0` runs ops until their time, measured against a
reference loop (see `Clock`), reaches `--seconds`, and prints the
end-to-end metrics; `--trace 1` runs a fixed number of ops twice, plain and
traced, and prints the per-layer metrics.  The last line of stdout is the
result as JSON; the line before it records the machine, the raw timings,
the inputs and a digest of the outputs.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, islice
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
WORK = ROOT / ".bench_work"

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 7
#: Per-op time limits; an op that passes its limit counts as failed.
OP_LIMIT_S = 10.0
CHILD_LIMIT_S = 20.0
#: The reference loop, timed between ops at least every PROBE_EVERY_S;
#: times are reported as if it took NOMINAL_PROBE_S (about its time on the
#: 2-vCPU Xeon VM this benchmark was written on).  See `Clock`.
PROBE_SIZE = 1200
PROBE_EVERY_S = 0.05
NOMINAL_PROBE_S = 0.00075
#: On a heavily loaded machine a run also stops after this many times
#: --seconds of wall-clock op time, so that its length stays bounded.
MAX_RAW_FACTOR = 1.5
#: Ops in a traced run, so that its call counts repeat on the same seed.
TRACE_OPS = {"classify": 150, "ring": 300, "product": 120, "cold_cli": 120}

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an in-process op that passed its limit."""


def _on_alarm(signum, frame):
    raise OpTimeout


def _on_term(signum, frame):
    sys.exit(128 + signum)  # unwinds: a running child is killed, files removed


def conicring_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "conicring" or k.startswith("conicring.")}


def load_cli():
    """Import conicring.cli afresh: new modules, so every cache starts empty."""
    for name in conicring_modules():
        del sys.modules[name]
    cli = importlib.import_module("conicring.cli")
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise RuntimeError(f"imported {cli.__file__}, not this checkout's src/")
    return cli


def run_in_process(cli, argv):
    """(exit code or None on timeout, seconds, stdout) of cli.main(argv)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        code = None
    except SystemExit as exc:
        code = exc.code
    return code, time.perf_counter() - t0, out.getvalue()


def run_child(argv, cwd: Path):
    """(exit code or None on timeout, seconds, stdout) of python -m conicring."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "conicring", *argv], cwd=cwd, env=env,
            capture_output=True, text=True, timeout=CHILD_LIMIT_S,
        )
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = None, ""
    return code, time.perf_counter() - t0, out


def set_up(warmup):
    """Import conicring, build the parser and run one warm-up op; timed."""
    t0 = time.perf_counter()
    cli = load_cli()
    cli.build_parser()
    code, _, out = run_in_process(cli, warmup.argv)
    seconds = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"warm-up op exited {code}")
    return seconds, cli, out


def set_up_aside(warmup) -> float:
    """Time one more set-up in fresh modules, then restore the run's modules."""
    saved = conicring_modules()
    seconds, _, _ = set_up(warmup)
    for name in conicring_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    return seconds


class Clock:
    """Op times in units of a reference loop, reported in nominal seconds.

    On a shared machine a core's speed moves by a third within seconds and
    by a fifth between minutes as other tenants load it, and every
    wall-clock metric moves with it.  So a fixed pure-Python loop, which
    does not touch conicring but allocates and hashes small objects as
    conicring does, is timed between ops, and an op's time is divided by
    the loop's time just around it (the faster of the probes before and
    after, so that one interrupted probe does not count) and multiplied by
    NOMINAL_PROBE_S.  This assumes conicring slows down in the same
    proportion as the loop.  The raw figures are printed next to the
    result.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.probe()

    def probe(self) -> None:
        t0 = time.perf_counter()
        objects = [frozenset((i, i + 1, i % 7)) for i in range(PROBE_SIZE)]
        sorted(len(o) for o in set(objects))
        t1 = time.perf_counter()
        self.times.append(t1)
        self.durations.append(t1 - t0)

    def probe_if_due(self) -> None:
        if time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.probe()

    def scale(self, start: float, end: float | None = None) -> float:
        """Nominal seconds per second for an interval; without `end`, so far."""
        before = self.durations[bisect.bisect_right(self.times, start) - 1]
        after = before if end is None else self.durations[bisect.bisect_left(self.times, end)]
        return NOMINAL_PROBE_S / min(before, after)


def pin_to_one_cpu() -> None:
    """Keep the run, its probes and its children on one core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def verify(results, oracles):
    """Check every successful output; return (failed count, digest info).

    The digest covers each op's exit code and, when it succeeded, its
    stdout.  Checkpoints at powers of two let runs of different lengths on
    the same seed be compared over their common prefix.
    """
    failed = 0
    digest, checkpoints = hashlib.sha256(), {}
    for n, (op, code, _, out) in enumerate(results, 1):
        if code == 0:
            try:
                checks.CHECKERS[op.kind](op.expect, out, oracles)
            except checks.WrongOutput as exc:
                raise checks.WrongOutput(f"op {n} ({op.label} {' '.join(op.argv)}): {exc}") from None
        else:
            failed += 1
        digest.update(f"{n} {code}\n{out if code == 0 else ''}".encode())
        if n & (n - 1) == 0:
            checkpoints[n] = digest.hexdigest()[:16]
    return failed, {"digest": digest.hexdigest(), "digest_checkpoints": checkpoints}


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: the 11th largest."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (1 - 10 / n)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "conicring").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def timed_run(args, workdir: Path):
    fixed, stream = workloads.make_ops(args.workload, args.seed, workdir)
    ops = chain(fixed, stream)
    if args.max_ops:
        ops = islice(ops, args.max_ops)
    warmup = workloads.warmup_op(args.workload, workdir)
    clock = Clock()
    start = time.perf_counter()
    seconds, cli, warm_out = set_up(warmup)
    clock.probe()
    setups = [(start, seconds)]
    if args.workload == "cold_cli":
        def runner(argv):
            return run_child(argv, workdir)
    else:
        def runner(argv):
            return run_in_process(cli, argv)

    def set_up_again():
        clock.probe()
        start = time.perf_counter()
        setups.append((start, set_up_aside(warmup)))
        clock.probe()

    # Runs until the ops' nominal time reaches --seconds.  Each op's input
    # files are written when the op is drawn, between ops.
    results, starts, elapsed, raw_elapsed = [], [], 0.0, 0.0
    for op in ops:
        clock.probe_if_due()
        starts.append(time.perf_counter())
        results.append((op, *runner(op.argv)))
        raw_elapsed += results[-1][2]
        elapsed += results[-1][2] * clock.scale(starts[-1])
        # The other set-ups are spread over the run, between ops, so that
        # their median sees the machine as the ops did.
        while len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
            set_up_again()
        if elapsed >= args.seconds or raw_elapsed >= MAX_RAW_FACTOR * args.seconds:
            break
    clock.probe()
    who = resource.RUSAGE_CHILDREN if args.workload == "cold_cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    while len(setups) < SETUP_REPEATS:
        set_up_again()
    oracles = load_oracles()
    checks.CHECKERS[warmup.kind](warmup.expect, warm_out, oracles)
    failed, digest = verify(results, oracles)
    raw = [r[2] for r in results]
    latencies = [t * clock.scale(s, s + t) for s, t in zip(starts, raw)]
    setup_times = [t * clock.scale(s, s + t) for s, t in setups]
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_ms * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "latency_tail_percentile": round(tail_pct, 3),
        "latency_samples": len(latencies),
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "raw_setup_s": statistics.median(t for _, t in setups),
        "probes": len(clock.times),
        "probe_median_ms": statistics.median(clock.durations) * 1e3,
        "setup_samples_s": setup_times,
        "fixed_rows": [
            {"row": op.label, "exit": code, "ms": round(sec * 1e3, 3)}
            for op, code, sec, _ in results if op.label.startswith("fixed:")
        ],
        **digest,
    }
    return len(results), failed, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, info


def traced_run(args, workdir: Path):
    """The same ops twice from fresh imports: plain, then traced."""
    fixed, stream = workloads.make_ops(args.workload, args.seed, workdir)
    ops = list(islice(chain(fixed, stream), args.max_ops or TRACE_OPS[args.workload]))
    warmup = workloads.warmup_op(args.workload, workdir)

    def run_all(cli, tracer=None):
        t0 = time.perf_counter()
        out = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            out.append((op, *run_in_process(cli, op.argv)))
        return out, time.perf_counter() - t0

    _, cli, _ = set_up(warmup)
    plain, plain_s = run_all(cli)
    _, cli, _ = set_up(warmup)
    tracer = spans.Tracer()
    tracer.install()
    traced, traced_s = run_all(cli, tracer)

    oracles = load_oracles()
    verify(plain, oracles)
    failed, digest = verify(traced, oracles)
    for (op, c1, _, o1), (_, c2, _, o2) in zip(plain, traced):
        if c1 == c2 == 0 and o1 != o2:
            raise checks.WrongOutput(f"{op.label}: traced output differs from the plain run")
    per_layer = tracer.metrics()
    per_layer["trace.overhead_frac"] = traced_s / plain_s - 1
    spans_path = WORK / f"spans-{args.workload}.npz"
    tracer.write(spans_path)
    units = spans.metric_units()
    info = {"plain_s": plain_s, "traced_s": traced_s, "spans": len(tracer),
            "spans_file": str(spans_path.relative_to(ROOT)), **digest}
    return len(ops), failed, {k: (per_layer[k], units[k][0]) for k in units}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many ops (0: no cap); for smoke tests")
    args = parser.parse_args(argv)

    for required in (SRC / "conicring" / "__init__.py", ORACLES):
        if not required.is_file():
            print(f"error: {required.relative_to(ROOT)} not found; "
                  "run from the root of a conicring checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    pin_to_one_cpu()

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        correct = True
        try:
            attempted, failed, metrics, info = run(args, workdir)
        except checks.WrongOutput as exc:
            print(f"wrong output: {exc}", file=sys.stderr)
            correct, attempted, failed, metrics, info = False, 1, 0, {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      **environment(), **info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
