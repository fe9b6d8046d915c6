"""The repository benchmark: seeded workloads, every metric by name and unit.

Run it from the root of a checkout:

    python3 bench/run.py --workload arrangement --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

`BENCHMARK.json` names the workloads and the metrics with their units.  Each
workload runs in processes of its own (`bench/worker.py`), a closed loop of
one op at a time, and every output is checked after its op's timer stops.

With `--trace 0` the run reports the end-to-end metrics, with times scaled to
a reference host speed (see `worker.py`); the raw figures are printed too.
`setup_s`, the time from process start to the first timed op, is the median
over SETUP_RUNS processes.

With `--trace 1` a single process reports the per-layer metrics, taken from
spans recorded around each call into the package, and keeps the spans in
`.bench_work/spans/`.

The last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it say the same for a
reader.  The exit code is 0 only when every output checked out.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7  # the measuring process plus set-up-only ones


class BenchError(Exception):
    pass


def worker(root: Path, name: str, seed: int, extra: list[str], timeout: float) -> dict:
    """Start one worker process, wait for it, and return its report."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed)]
    argv += ["--t0", str(time.monotonic_ns())] + extra
    p = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=timeout)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{name} worker exited {p.returncode}: {p.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def latency_metrics(latencies_ns: list[float]) -> dict:
    return {
        "ops_per_s": len(latencies_ns) / (sum(latencies_ns) / 1e9),
        "op_p50_ms": statistics.median(latencies_ns) / 1e6,
        "op_p90_ms": statistics.quantiles(latencies_ns, n=10)[8] / 1e6,
    }


def run_workload(root: Path, spec: dict, name: str, seed: int, seconds: float, trace: int) -> dict:
    timeout = seconds + 150
    if trace:
        report = worker(root, name, seed, ["--seconds", str(seconds), "--trace", "1"], timeout)
        values = report["metrics"]
        wanted = spec["per_layer"]
    else:
        report = worker(root, name, seed, ["--seconds", str(seconds)], timeout)
        setups, raw_setups = [report["setup_s"]], [report["raw_setup_s"]]
        for _ in range(SETUP_RUNS - 1):
            probe = worker(root, name, seed, ["--setup-only"], 60)
            for key in ("attempted", "failed", "failures"):
                report[key] += probe[key]
            setups.append(probe["setup_s"])
            raw_setups.append(probe["raw_setup_s"])
        values = latency_metrics(report["latencies_ns"])
        values.update(peak_rss_mb=report["peak_rss_mb"], setup_s=statistics.median(setups))
        report["raw"] = latency_metrics(report["raw_latencies_ns"])
        report["raw"]["setup_s"] = statistics.median(raw_setups)
        report["samples"] = len(report["latencies_ns"])
        report["beyond_p90"] = sum(ns > values["op_p90_ms"] * 1e6 for ns in report["latencies_ns"])
        wanted = spec["end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise BenchError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    report["result"] = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return report


def describe(name: str, seed: int, report: dict) -> list[str]:
    r = report["result"]
    lines = [f"== {name} (seed {seed}): {r['attempted']} ops, {r['failed']} failed"]
    for metric, v in r["metrics"].items():
        note = ""
        if metric in report.get("raw", {}):
            note = f"  (raw {report['raw'][metric]:.6g})"
        if metric in ("op_p50_ms", "op_p90_ms"):
            note += f"  (n={report['samples']}, {report['beyond_p90']} beyond p90)"
        lines.append(f"  {metric:<40} {v['value']:>14.6g} {v['unit']}{note}")
    if "samples" in report:
        lines.append(f"  {'error_rate':<40} {r['failed'] / r['attempted']:>14.6g}  ({r['failed']} of {r['attempted']} ops)")
    lines += [f"  FAILED: {f}" for f in report["failures"][:5]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "mmp_elliptic" / "__init__.py").is_file():
        print("error: run from the root of a checkout holding src/mmp_elliptic", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        try:
            report = run_workload(root, spec, name, args.seed, seconds, args.trace)
        except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(name, args.seed, report)), flush=True)
        results[name] = report["result"]
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
