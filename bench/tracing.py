"""Spans recorded from outside the package, and the per-layer metrics they give.

The workloads call the package only through a namespace of its functions.
Untraced, those are the package functions themselves; traced, each is wrapped
so that one span per call is kept in memory: the span name (`layer.function`),
start and end in `perf_counter_ns`, the op it belongs to, whether the call
raised, and the counts taken from its arguments and result at the boundary.
Nothing inside the package is instrumented.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace
from typing import Callable

RECORD_KINDS = (
    "FiberToWeierstrass",
    "FiberToTwisted",
    "FiberToIntermediate",
    "LaNaveFlip",
    "TypeIIPseudoFormation",
    "WholeSectionContraction",
    "TreeCollapseToPoint",
    "TreeCollapseToCurve",
)

CLI_COMMANDS = (
    "walls",
    "walls_segment",
    "model_md",
    "model_json",
    "model_dot",
    "model_glob",
    "reduce",
    "validate",
    "volume",
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    op: str
    op_id: int
    error: bool = False
    counts: dict = field(default_factory=dict)


def _segment_counts(args, result) -> dict:
    return {
        "walls_scanned": len(args[2]),
        "walls_hit": sum(len(c.walls_hit) for c in result),
    }


def _reduce_counts(args, trace) -> dict:
    counts = Counter(str(rec.kind) for rec in trace.records)
    counts["records"] = len(trace.records)
    counts["halted"] = int(trace.halted is not None)
    return dict(counts)


# (layer, function, span name, counts taken at the boundary)
BOUNDARIES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("walls", "enumerate_walls", "walls.enumerate_walls", lambda a, r: {"walls": len(r)}),
    ("walls", "segment_walls", "walls.segment_walls", _segment_counts),
    ("walls", "walls_containing", "walls.walls_containing", None),
    ("walls", "locate", "walls.locate", None),
    ("reduction", "reduce", "reduction.reduce", _reduce_counts),
    ("surfaces", "validate", "surfaces.validate", None),
    ("surfaces", "base_curve", "surfaces.base_curve", None),
    ("curves", "hassett_reduce", "curves.hassett_reduce", None),
    ("modeljson", "parse_model", "modeljson.parse_model", lambda a, r: {"bytes": len(a[0])}),
    ("modeljson", "serialize_model", "modeljson.serialize", lambda a, r: {"bytes": len(r)}),
    ("dot", "emit_dot", "dot.emit_dot", lambda a, r: {"bytes": len(r)}),
)


# input conversions the ops call untraced in both modes
HELPERS = (("curves", "WeightVector"), ("rationals", "rat_from_str"), ("kodaira", "parse_fiber_type"))


def plain_api() -> SimpleNamespace:
    """The package functions the workloads call, unwrapped."""
    import importlib

    return SimpleNamespace(
        **{
            fn: getattr(importlib.import_module(f"mmp_elliptic.{layer}"), fn)
            for layer, fn, *_ in BOUNDARIES + HELPERS
        }
    )


class Tracer:
    """In-memory span log for one run."""

    def __init__(self, op_name: str) -> None:
        self.op_name = op_name
        self.op_id = 0
        self.spans: list[Span] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        spans = self.spans

        def traced(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                spans.append(Span(name, start, time.perf_counter_ns(), self.op_name, self.op_id, True))
                raise
            end = time.perf_counter_ns()
            counts = count(args, result) if count else {}
            spans.append(Span(name, start, end, self.op_name, self.op_id, False, counts))
            return result

        return traced

    def api(self, plain: SimpleNamespace) -> SimpleNamespace:
        wrapped = {fn: self.wrap(span, getattr(plain, fn), count) for _, fn, span, count in BOUNDARIES}
        return SimpleNamespace(**{**vars(plain), **wrapped})

    def write(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(asdict(s)) + "\n")


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer metrics over `ops` traced ops.

    Busy times (`.s`) and counts are means per traced op; `.errors`,
    `reduction.reduce.calls` and `reduction.halted` are totals; ratios carry
    their own base.  A layer the workload does not call reads zero.
    """
    busy: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    errors: Counter = Counter()
    for s in spans:
        busy[s.name] += (s.end_ns - s.start_ns) / 1e9
        calls[s.name] += 1
        errors[s.name.split(".")[0]] += s.error
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] += value
            counts[f"{s.name.split('.')[0]}.{key}"] += value
    per_op = 1 / max(ops, 1)
    scanned = counts["walls.segment_walls.walls_scanned"]
    records = counts["reduction.reduce.records"]
    m = {
        "walls.enumerate_walls.s": busy["walls.enumerate_walls"] * per_op,
        "walls.walls_enumerated": counts["walls.enumerate_walls.walls"] * per_op,
        "walls.segment_walls.s": busy["walls.segment_walls"] * per_op,
        "walls.segment_walls.walls_scanned": scanned * per_op,
        "walls.segment_walls.walls_hit": counts["walls.segment_walls.walls_hit"] * per_op,
        "walls.segment_walls.hit_ratio": counts["walls.segment_walls.walls_hit"] / scanned if scanned else 0.0,
        "walls.walls_containing.s": busy["walls.walls_containing"] * per_op,
        "walls.locate.s": busy["walls.locate"] * per_op,
        "reduction.reduce.s": busy["reduction.reduce"] * per_op,
        "reduction.reduce.calls": calls["reduction.reduce"],
        "reduction.records": records * per_op,
        **{f"reduction.records.{k}": counts[f"reduction.reduce.{k}"] * per_op for k in RECORD_KINDS},
        "reduction.ms_per_record": 1e3 * busy["reduction.reduce"] / records if records else 0.0,
        "reduction.halted": counts["reduction.reduce.halted"],
        "surfaces.validate.s": busy["surfaces.validate"] * per_op,
        "surfaces.base_curve.s": busy["surfaces.base_curve"] * per_op,
        "curves.hassett_reduce.s": busy["curves.hassett_reduce"] * per_op,
        "modeljson.parse_model.s": busy["modeljson.parse_model"] * per_op,
        "modeljson.serialize.s": busy["modeljson.serialize"] * per_op,
        "modeljson.bytes_in": counts["modeljson.parse_model.bytes"] * per_op,
        "modeljson.bytes_out": counts["modeljson.serialize.bytes"] * per_op,
        "dot.emit_dot.s": busy["dot.emit_dot"] * per_op,
        "dot.bytes_out": counts["dot.emit_dot.bytes"] * per_op,
        **{f"cli.{c}.ms": 1e3 * busy[f"cli.{c}"] / calls[f"cli.{c}"] if calls[f"cli.{c}"] else 0.0 for c in CLI_COMMANDS},
        "cli.stdout_bytes": counts["cli.stdout_bytes"] * per_op,
        "cli.check_hassett_halts": counts["cli.check_hassett_halts"],
        "cli.tracebacks": counts["cli.tracebacks"],
    }
    for layer in ("walls", "reduction", "surfaces", "curves", "modeljson", "dot", "cli"):
        m[f"{layer}.errors"] = errors[layer]
    return m
