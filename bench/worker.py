"""One workload in its own process: set up, measure, check, report.

`run.py` starts this script from the root of a checkout and reads the JSON
object on its last line of output.  The loop is closed: one client, one op at
a time.  It runs whole blocks of inputs until `--seconds` have passed and at
least MIN_OPS ops are done.  Each op is timed alone; input generation and the
output checks run outside the timed region.

Times are reported at a reference host speed.  On a shared machine the speed
of this process drifts by up to two-thirds, in spells that last longer than a
run, and the drift slows pure-Python work nearly alike.  So a fixed reference
kernel, which does not touch the package, is timed right before every op, and
each op's time is scaled by REFERENCE_NS over the median of the kernel times
nearest to it: a time reads as it would where the kernel takes REFERENCE_NS.
The set-up time is scaled the same way, by kernel runs right after it.  The
raw times are reported next to them.

With `--setup-only` the process stops after the warm-up op and reports only
its set-up time, counted from `--t0` (a `time.monotonic_ns()` reading the
parent took just before starting it).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

MIN_OPS = 100  # so that at least ten samples lie beyond p90
HARD_STOP_S = 140  # a run ends here even short of MIN_OPS, to finish inside 180 s
IMPORT_PROBES = 5
REFERENCE_NS = 500_000  # nominal time of one reference kernel run
SETUP_KERNELS = 9
WINDOW = 2  # an op is scaled by the kernel runs of the ops up to WINDOW away in its block


def reference_ns() -> int:
    """Time one run of the reference kernel: exact rational sums and dict
    churn, pure Python like the package, with the collector off so that a
    collector setting made by the package cannot change it."""
    from fractions import Fraction

    gc.disable()
    try:
        start = time.perf_counter_ns()
        acc, seen = Fraction(0), {}
        for i in range(1, 200):
            acc += Fraction(i % 7 + 1, i % 11 + 2)
            seen[(i, acc.denominator % 13)] = acc
        return time.perf_counter_ns() - start
    finally:
        gc.enable()


def make_workload(name: str, root: Path, workdir: Path):
    import workloads

    if name == "cli":
        return workloads.Cli(root, workdir)
    from tracing import plain_api

    kinds = {
        "arrangement": workloads.Arrangement,
        "reduce-random": workloads.ReduceRandom,
        "reduce-chain": workloads.ReduceChain,
    }
    return kinds[name](plain_api())


def timed(wl, api, inp):
    """Run one op; returns (nanoseconds, output, problems)."""
    start = time.perf_counter_ns()
    try:
        out = wl.op(api, inp)
    except Exception as exc:  # a failed op is counted, not fatal
        return time.perf_counter_ns() - start, None, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter_ns() - start
    try:
        return elapsed, out, wl.check(inp, out)
    except Exception as exc:
        return elapsed, out, [f"check raised {type(exc).__name__}: {exc}"]


def import_ms(root: Path) -> float:
    """Median wall time of a bare `import mmp_elliptic` subprocess."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "import mmp_elliptic"], cwd=root, env=env, check=True)
        samples.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(samples)


def blocks(args, first: list, make_block, min_ops: int):
    """Yield whole blocks of inputs until --seconds have passed and at least
    `min_ops` inputs were handed out."""
    begin, k, ops, inputs = time.monotonic(), 0, 0, first
    while True:
        yield inputs
        k, ops = k + 1, ops + len(inputs)
        elapsed = time.monotonic() - begin
        if (elapsed >= args.seconds and ops >= min_ops) or elapsed >= HARD_STOP_S:
            return
        inputs = make_block(k)


def measure(args, root: Path, workdir: Path) -> dict:
    wl = make_workload(args.workload, root, workdir)

    def make_block(k: int) -> list:
        return wl.block(random.Random(f"{args.workload}/{args.seed}/{k}"))

    plain = wl.api()
    first = make_block(0)
    _, _, failures = timed(wl, plain, first[0])
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    speed = REFERENCE_NS / statistics.median(reference_ns() for _ in range(SETUP_KERNELS))
    result = {"setup_s": setup_s * speed, "raw_setup_s": setup_s}
    if args.setup_only:
        return {**result, "attempted": 1, "failed": len(failures[:1]), "failures": failures[:1]}
    failures = []
    ops = 0

    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer(wl.name)
        traced = wl.api(tracer)
        busy = {"plain": 0, "traced": 0}
        # no percentiles here, so no floor on the op count
        for inputs in blocks(args, first, make_block, 1):
            for inp in inputs:
                ops += 1
                tracer.op_id = ops
                # every input once untraced and once traced, alternating which goes first
                for mode in ("plain", "traced") if ops % 2 else ("traced", "plain"):
                    ns, _, problems = timed(wl, traced if mode == "traced" else plain, inp)
                    busy[mode] += ns
                    failures += problems[:1]
        metrics = layer_metrics(tracer.spans, ops)
        metrics["cli.import_ms"] = import_ms(root)
        metrics["trace.overhead_pct"] = 100 * (busy["traced"] / busy["plain"] - 1)
        spans = root / ".bench_work" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.write(spans / f"{args.workload}-seed{args.seed}.jsonl")
        return {**result, "attempted": 2 * ops, "failed": len(failures), "failures": failures[:5], "metrics": metrics}

    raw: list[int] = []
    scaled: list[float] = []
    for inputs in blocks(args, first, make_block, MIN_OPS):
        kernels = []
        for inp in inputs:
            kernels.append(reference_ns())
            ns, _, problems = timed(wl, plain, inp)
            raw.append(ns)
            failures += problems[:1]
        for i, ns in enumerate(raw[len(scaled):]):
            scaled.append(ns * REFERENCE_NS / statistics.median(kernels[max(0, i - WINDOW) : i + WINDOW + 1]))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    return {
        **result,
        "attempted": len(raw),
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "latencies_ns": scaled,
        "raw_latencies_ns": raw,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
