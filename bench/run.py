#!/usr/bin/env python3
"""qkring's benchmark: cold-process certification workloads.

Usage (from the repository root):

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0

One parent process runs a closed loop with one client: operations run one
after another, and each is a fresh Python process, because a CLI user pays
the cold lru_cache cost of relations_for, _character_table and _embedding
on every call.  A pass is one run over a workload's operations; passes
repeat until --seconds is used up.  Every answer is checked against a
known answer (workloads.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (layers.py), plus the
tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Import timings: a few at the start, then some before every pass, so that
# setup_s sees the same drift of host speed over the run as wall_s does.
SETUP_OPENING = 5
SETUP_PER_PASS = 2
IMPORT_ARGV = ["-c", "import qkring"]
OP_TIMEOUT_S = 60.0
# Operation time limits are cut so that no operation runs past this point,
# which keeps a run well within 180 s even when an operation runs away.
HARD_LIMIT_S = 140.0


class Runner:
    """Spawns operations one at a time and measures each process."""

    def __init__(self, seconds: float):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.hard_deadline = time.perf_counter() + max(seconds, HARD_LIMIT_S)

    def spawn(self, argv):
        """Run one process to its end.

        Returns (returncode or None on timeout, stdout, stderr, spawn time,
        exit time).
        """
        limit = max(1.0, min(OP_TIMEOUT_S, self.hard_deadline - time.perf_counter()))
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=limit)
        except subprocess.TimeoutExpired:
            return None, "", "", start, time.perf_counter()
        return proc.returncode, proc.stdout, proc.stderr, start, time.perf_counter()


def operation_argv(op: workloads.Op, trace_file=None, op_id=""):
    call = json.dumps(op.call)
    if trace_file is not None:
        return [str(BENCH_DIR / "shim.py"), str(trace_file), op_id, call]
    if "cli" in op.call:
        return ["-m", "qkring", *op.call["cli"]]
    return [str(BENCH_DIR / "operation.py"), call]


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.failures = []  # (op name, reason)
        self.attempted = 0
        self.traces = []


def run_pass(runner: Runner, ops, trace_dir=None, label="") -> Pass:
    """One pass: the first spawn to the last exit is its wall time.

    Verdicts are checked after the pass, so the check is not timed.
    """
    result = Pass()
    answers = []
    for index, op in enumerate(ops):
        trace_file = None if trace_dir is None else trace_dir / f"{label}-{index}.json"
        code, stdout, stderr, start, end = runner.spawn(
            operation_argv(op, trace_file, f"{label}/{index}"))
        if index == 0:
            first = start
        answers.append((op, code, stdout, stderr, trace_file))
    result.wall = end - first
    for op, code, stdout, stderr, trace_file in answers:
        result.attempted += 1
        reason = workloads.verdict(op, code, stdout)
        if reason is not None:
            detail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
            result.failures.append((op.name, " ".join([reason, *detail])[:300]))
        if trace_file is not None and trace_file.exists():
            with open(trace_file) as fh:
                result.traces.append(json.load(fh))
            trace_file.unlink()
    return result


def time_import(runner: Runner) -> float:
    """Wall time of a fresh interpreter that imports qkring and exits."""
    code, _, stderr, start, end = runner.spawn(IMPORT_ARGV)
    if code != 0:
        raise RuntimeError(f"import qkring failed: {stderr.strip()}")
    return end - start


def tail(samples):
    """The highest of p99, p90 and p50 with at least ten samples beyond it.

    Returns (value, label).  A run holds fewer than 20 passes, so no such
    percentile exists; the slowest pass is reported then, labelled "max".
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99, 90, 50):
        index = math.ceil(p / 100 * n) - 1
        if n - 1 - index >= 10:
            return ordered[index], f"p{p}"
    return ordered[-1], "max"


def run_loop(runner: Runner, ops, seconds: float, trace_dir=None, setup=None):
    """Passes until the next one would end after --seconds.

    With a trace directory, each round is an untraced pass then a traced one.
    With a ``setup`` list, import timings are appended to it before each pass.
    """
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while True:
        round_start = time.perf_counter()
        if setup is not None:
            setup.extend(time_import(runner) for _ in range(SETUP_PER_PASS))
        plain.append(run_pass(runner, ops))
        if trace_dir is not None:
            traced.append(run_pass(runner, ops, trace_dir, label=f"pass{len(traced)}"))
        now = time.perf_counter()
        if now + (now - round_start) > deadline or now > runner.hard_deadline:
            return plain, traced


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qkring" / "__init__.py").is_file():
        print(f"error: no qkring sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qkring

    if Path(qkring.__file__).resolve().parent != SRC / "qkring":
        print(f"error: imported qkring from {qkring.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed, qkring)
    runner = Runner(args.seconds)
    print(f"machine: nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} platform={platform.platform()}")
    print(f"workload {args.workload}: {len(ops)} operations per pass, closed loop, "
          f"one client, each operation a fresh Python process, seed {args.seed}")
    for op in ops:
        print(f"  op {op.name}")

    if args.trace:
        trace_dir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
        try:
            plain, traced = run_loop(runner, ops, args.seconds, trace_dir)
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)
        passes = plain + traced
    else:
        runner.spawn(IMPORT_ARGV)  # writes the bytecode cache on a fresh checkout
        setup = [time_import(runner) for _ in range(SETUP_OPENING)]
        plain, traced = run_loop(runner, ops, args.seconds, setup=setup)
        passes = plain

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    walls = [p.wall for p in plain]
    wall_s = statistics.median(walls)
    for name, reason in failures[:10]:
        print(f"FAILED {name}: {reason}")
    print(f"failed_ratio {fmt(len(failures) / attempted)} ratio "
          f"({len(failures)} of {attempted} operations)")

    metrics = {}
    if args.trace:
        traced_wall = statistics.median(p.wall for p in traced)
        print(f"untraced wall_s {fmt(wall_s)} s (median of {len(plain)} passes); "
              f"traced wall_s {fmt(traced_wall)} s (median of {len(traced)} passes)")
        print("no layer waits: operations run one at a time, nothing runs "
              "concurrently, so there is no waiting time to report")
        print(f"unmeasured layers: {', '.join(layers.UNMEASURED)} "
              "(on no workload's measured path)")
        sums = [layers.PassTrace(p.traces) for p in traced]
        for metric in layers.METRICS:
            if metric.name == "trace.overhead_s":
                value = traced_wall - wall_s
            else:
                value = statistics.median(s.value(metric.name) for s in sums)
            metrics[metric.name] = {"value": value, "unit": metric.unit}
            quiet = (f"; no change predicted on {', '.join(metric.unchanged)}"
                     if metric.unchanged else "")
            print(f"{metric.name} {fmt(value)} {metric.unit}  "
                  f"[moves {metric.moves}{quiet}]")
        print(f"per-layer values: median of {len(traced)} traced passes; "
              f"tracing overhead {fmt(traced_wall - wall_s)} s per pass")
    else:
        tail_value, tail_label = tail(walls)
        # The largest RSS of any child waited for, in KB on Linux.  The
        # import-only children are smaller than every operation.  A child's
        # ru_maxrss starts at this process's RSS when it was spawned (about
        # 18 MB), so only operations that grow past that move the value.
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "wall_s.tail": {"value": tail_value, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        counts = {"setup_s": f"median of {len(setup)} imports spread over the run",
                  "wall_s": f"median of {len(walls)} passes",
                  "wall_s.tail": f"{tail_label} of {len(walls)} passes"
                                 + (" (no percentile has ten passes beyond it)"
                                    if tail_label == "max" else ""),
                  "peak_rss_mb": f"largest ru_maxrss of {attempted} operations "
                                 "and the import timings"}
        print("pass wall_s: " + " ".join(fmt(w) for w in walls))
        for name, entry in metrics.items():
            print(f"{name} {fmt(entry['value'])} {entry['unit']}  ({counts[name]})")

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
