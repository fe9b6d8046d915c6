"""The four workloads: their input blocks, one op each, and the output checks.

A workload hands out inputs in blocks.  Every block has the same fixed mix of
input sizes, so the runs of different seeds, and any whole number of blocks,
measure the same mix; only the drawn details change with the seed.  `op`
is the timed call into the program; `check` runs after the timer stops and
returns a list of problems, empty when the output is correct.  The checks
recompute what they can with their own integer arithmetic instead of asking
the program.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import inputs
from inputs import CONSTANTS, ModelCase, Segment, rat, threshold, weight_arg
from tracing import CLI_COMMANDS


def _mask(subset) -> int:
    return sum(1 << (i - 1) for i in subset)


def _subset_sums(point, den: int) -> list[int]:
    """Integer numerators over `den` of every subset sum, indexed by bitmask."""
    w = [int(x * den) for x in point]
    sums = [0] * (1 << len(w))
    for m in range(1, len(sums)):
        low = m & -m
        sums[m] = sums[m ^ low] + w[low.bit_length() - 1]
    return sums


def expected_walls(types, rational_base: bool) -> list[tuple]:
    """Every wall as (kind, subset mask, constant, boundary), from the
    paper's three kinds."""
    r = len(types)
    out = []
    for i, t in enumerate(types):
        a0 = threshold(t)
        if a0 is not None:
            out += [("WI", 1 << i, a0, False), ("WI", 1 << i, Fraction(1), True)]
    full = (1 << r) - 1
    out += [("WII", m, Fraction(1), False) for m in range(1, full + 1)]
    if rational_base:
        out.append(("WII", full, Fraction(2), False))
    out += [("WIII", m, c, False) for m in range(1, full + 1) for c in CONSTANTS]
    return out


def closed_form_count(types, rational_base: bool) -> int:
    subsets = 2 ** len(types) - 1
    with_threshold = sum(threshold(t) is not None for t in types)
    return 2 * with_threshold + subsets + int(rational_base) + len(CONSTANTS) * subsets


def _wall_key(w) -> tuple:
    return (w.kind.value, _mask(w.subset), w.constant, w.boundary)


def _weights(api, point):
    return api.WeightVector(tuple(api.rat_from_str(rat(x)) for x in point))


class InProcess:
    """A workload that calls the package in this process."""

    def __init__(self, plain: SimpleNamespace) -> None:
        self.plain = plain

    def api(self, tracer=None) -> SimpleNamespace:
        return tracer.api(self.plain) if tracer else self.plain


# -- arrangement ----------------------------------------------------------------


@dataclass
class ArrangementOut:
    walls: list
    crossings: list
    on_start: list
    on_end: list
    chamber: object


class Arrangement(InProcess):
    """The in-process form of `walls --segment`: enumerate the arrangement,
    scan the segment, list the walls through both ends, and locate the
    midpoint's chamber."""

    name = "arrangement"
    # markers per op in one block: larger sizes are rarer, so each size
    # takes a comparable share of the busy time, and the median and p90
    # fall inside a size class, not on an edge
    SIZES = (6,) * 8 + (7,) * 6 + (8,) * 3 + (9,) * 2 + (10,)

    def block(self, rng: random.Random) -> list[Segment]:
        return [
            inputs.segment(rng, r, rational_base=j % 2 == 1, moving=rng.randint(1, 3))
            for j, r in enumerate(self.SIZES)
        ]

    def op(self, api, seg: Segment) -> ArrangementOut:
        types = [api.parse_fiber_type(t) for t in seg.types]
        lower, upper = _weights(api, seg.lower), _weights(api, seg.upper)
        walls = api.enumerate_walls(seg.r, types, seg.rational_base)
        crossings = api.segment_walls(lower, upper, walls)
        on_start = api.walls_containing(upper, walls)
        on_end = api.walls_containing(lower, walls)
        chamber = api.locate(_weights(api, seg.midpoint), walls)
        return ArrangementOut(walls, crossings, on_start, on_end, chamber)

    def check(self, seg: Segment, out: ArrangementOut) -> list[str]:
        problems = []
        if len(out.walls) != closed_form_count(seg.types, seg.rational_base):
            problems.append(f"{len(out.walls)} walls, closed form says {closed_form_count(seg.types, seg.rational_base)}")
        den = 120
        lo, hi, mid = (_subset_sums(p, den) for p in (seg.lower, seg.upper, seg.midpoint))
        want_hits: dict[Fraction, set] = {}
        want_start, want_end, want_signs = set(), set(), {}
        for key in expected_walls(seg.types, seg.rational_base):
            m, c = key[1], int(key[2] * den)
            if lo[m] < c < hi[m]:
                want_hits.setdefault(Fraction(c - lo[m], hi[m] - lo[m]), set()).add(key)
            if hi[m] == c:
                want_start.add(key)
            if lo[m] == c:
                want_end.add(key)
            want_signs[key] = "below" if mid[m] < c else "above" if mid[m] > c else "on"
        times = [c.t for c in out.crossings]
        if any(not 0 < t < 1 for t in times) or any(a <= b for a, b in zip(times, times[1:])):
            problems.append(f"crossing times not strictly decreasing inside (0, 1): {times}")
        for c in out.crossings:
            point = [(1 - c.t) * a + c.t * b for a, b in zip(seg.lower, seg.upper)]
            for w in c.walls_hit:
                if sum(point[i - 1] for i in w.subset) != w.constant:
                    problems.append(f"{w} does not hold at t = {c.t}")
        got_hits = {c.t: {_wall_key(w) for w in c.walls_hit} for c in out.crossings}
        if got_hits != want_hits:
            problems.append(f"crossings differ from the per-subset solve at t in {sorted(set(got_hits) ^ set(want_hits))[:5]}")
        if {_wall_key(w) for w in out.on_start} != want_start:
            problems.append("walls through the upper end differ from the per-subset solve")
        if {_wall_key(w) for w in out.on_end} != want_end:
            problems.append("walls through the lower end differ from the per-subset solve")
        got_signs = {_wall_key(w): s for w, s in out.chamber.signs}
        if got_signs != want_signs:
            problems.append("midpoint chamber differs from the per-subset signs")
        return problems


# -- reduction walks ------------------------------------------------------------


@dataclass
class ReduceOut:
    problems: list  # what `validate` found in the input
    trace: object
    steps: list  # (record, base curve of its snapshot, Hassett reduction of the start's)
    dots: list
    texts: list


class ReduceRandom(InProcess):
    """`validate` plus `reduce --check-hassett --dot-dir`, in process, on
    many small seeded random stable models, isotrivial trees included."""

    name = "reduce-random"
    BLOCK = 50

    def block(self, rng: random.Random) -> list[ModelCase]:
        return [inputs.model_case(rng) for _ in range(self.BLOCK)]

    def op(self, api, case: ModelCase) -> ReduceOut:
        X = api.parse_model(case.text, check=False)
        problems = api.validate(X)
        trace = api.reduce(X, _weights(api, case.target))
        base = api.base_curve(X)
        last_at = {rec.t: rec for rec in trace.records}  # a time step ends with its last record
        steps = [
            (rec, api.base_curve(rec.snapshot_after), api.hassett_reduce(base, rec.snapshot_after.weights))
            for rec in last_at.values()
        ]
        models = [X] + [rec.snapshot_after for rec in trace.records] + [trace.final]
        dots = [api.emit_dot(m) for m in models]
        texts = [api.serialize_model(m) for m in models[1:]]
        return ReduceOut(problems, trace, steps, dots, texts)

    def check(self, case: ModelCase, out: ReduceOut) -> list[str]:
        problems = [str(p) for p in out.problems]
        trace = out.trace
        times = [rec.t for rec in trace.records]
        if any(a < b for a, b in zip(times, times[1:])):
            problems.append(f"record times increase: {times}")
        if trace.halted is None:
            if tuple(trace.final.weights.entries) != case.target:
                problems.append("final weights are not the target")
            problems += [f"final model: {p}" for p in self.plain.validate(trace.final)]
        for rec, got, want in out.steps:
            # the one step a halted walk may leave uncommuted, as ReductionTrace allows
            halting_step = trace.halted is not None and rec is trace.records[-1] and str(rec.kind) == "TreeCollapseToCurve"
            if got != want and not halting_step:
                problems.append(f"base-curve commutativity fails at t = {rec.t}")
        if self.plain.parse_model(out.texts[-1], check=False) != trace.final:
            problems.append("final model does not round-trip through JSON")
        if not all(d.startswith("digraph broken_surface {") and d.endswith("}\n") for d in out.dots):
            problems.append("malformed DOT output")
        return problems


class ReduceChain(ReduceRandom):
    """Long chains of elliptic components walked through k = 3 cascading
    La Nave flips."""

    name = "reduce-chain"
    # components per chain in one block; the median and p90 fall inside a
    # size class
    SIZES = (40,) * 6 + (70,) * 6 + (100,) * 5 + (130,) * 2 + (160,)

    def block(self, rng: random.Random) -> list[ModelCase]:
        return [inputs.chain_case(rng, n, k=3) for n in self.SIZES]


# -- the command line, as subprocesses -------------------------------------------


@dataclass
class CliCase:
    command: str  # the `cli.<command>.ms` it counts towards; picks the check
    argv: list[str]
    count: int = 0  # walls expected in a listing, files in a glob
    fails_with: bytes | None = None  # start of stderr when exit 1 is accepted


@dataclass
class CliOut:
    returncode: int
    stdout: bytes
    stderr: bytes


# `reduce --check-hassett` on a walk that halts at a collapse onto a curve
# exits 1: the halting step is checked too, and its markers have no home on
# the base curve.  A known open discrepancy, accepted only on models that can
# halt, and counted apart.
KNOWN_HALT = b"error: base-curve commutativity failed at t = "


def is_known_halt(out: CliOut) -> bool:
    return out.returncode == 1 and out.stderr.startswith(KNOWN_HALT)


class Cli:
    """The README commands, one subprocess at a time."""

    name = "cli"
    EXAMPLE = "demos/data/rational_example.json"
    ALPHAS = (Fraction(1, 3), Fraction(2, 5), Fraction(9, 20), Fraction(11, 20), Fraction(2, 3))

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.blocks = 0
        self.env = dict(os.environ, MMP_ELLIPTIC_COLOR="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def _write(self, path: Path, model: dict) -> str:
        path.write_text(json.dumps(model, indent=2))
        return str(path)

    def block(self, rng: random.Random) -> list[CliCase]:
        """Twenty commands: sixteen on models, then three `walls -r 10`
        listings and one dense segment.  The median falls among the model
        commands and p90 among the listings, not on the edge of a class."""
        d = self.workdir / f"b{self.blocks}"
        self.blocks += 1
        (d / "batch").mkdir(parents=True)
        randoms = [inputs.model_case(rng) for _ in range(2)]
        files = [self._write(d / f"m{j}.json", c.model) for j, c in enumerate(randoms)]
        cases = [CliCase("model_md", ["model", f]) for f in [self.EXAMPLE] + files]
        for f in files:
            cases += [
                CliCase("model_json", ["model", f, "--format", "json"]),
                CliCase("model_dot", ["model", f, "--format", "dot"]),
                CliCase("validate", ["validate", f]),
            ]
        batch = [self._write(d / "batch" / f"m{j}.json", inputs.random_model(rng)) for j in range(10)]
        cases.append(CliCase("model_glob", ["model", batch[0], "--glob", str(d / "batch" / "*.json")], len(batch)))
        alpha = rng.choice(self.ALPHAS)
        halting = inputs.halting_case(rng)
        walks = [(self.EXAMPLE, (1,) * 10 + (alpha, alpha), False)]
        walks += [(f, c.target, inputs.can_halt(c.model)) for f, c in zip(files, randoms)]
        walks.append((self._write(d / "halting.json", halting.model), halting.target, True))
        for j, (f, target, can_halt) in enumerate(walks):
            argv = ["reduce", f, "--to", weight_arg(target), "--check-hassett", "--dot-dir", str(d / f"dots{j}")]
            cases.append(CliCase("reduce", argv, fails_with=KNOWN_HALT if can_halt else None))
        for j in range(2):
            model = inputs.irreducible_model(rng)
            f = self._write(d / f"irreducible{j}.json", model)
            cases.append(CliCase("volume", ["volume", f], fails_with=None if inputs.has_volume(model) else b""))
        r = 10
        for _ in range(3):
            types = [rng.choice(inputs.MARKABLE) for _ in range(r)]
            base = rng.random() < 0.5
            argv = ["walls", "-r", str(r), "--types", ",".join(types)] + ["--rational-base"] * base
            cases.append(CliCase("walls", argv, closed_form_count(types, base)))
        seg = inputs.segment(rng, r, rational_base=False, moving=r)
        argv = ["walls", "-r", str(r), "--types", ",".join(seg.types), "--segment", weight_arg(seg.lower), weight_arg(seg.upper)]
        cases.append(CliCase("walls_segment", argv))
        return cases

    def run_cli(self, argv: list[str]) -> CliOut:
        p = subprocess.run(
            [sys.executable, "-m", "mmp_elliptic.cli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            timeout=120,
        )
        return CliOut(p.returncode, p.stdout, p.stderr)

    def api(self, tracer=None) -> SimpleNamespace:
        if tracer is None:
            return SimpleNamespace(cli=lambda command, argv: self.run_cli(argv))

        def count(args, out: CliOut) -> dict:
            return {
                "stdout_bytes": len(out.stdout),
                "check_hassett_halts": int(is_known_halt(out)),
                "tracebacks": int(b"Traceback (most recent call last)" in out.stderr),
            }

        wrapped = {c: tracer.wrap(f"cli.{c}", self.run_cli, count) for c in CLI_COMMANDS}
        return SimpleNamespace(cli=lambda command, argv: wrapped[command](argv))

    def op(self, api, case: CliCase) -> CliOut:
        return api.cli(case.command, case.argv)

    def check(self, case: CliCase, out: CliOut) -> list[str]:
        if case.command == "reduce":
            dot_dir = Path(case.argv[-1])
            files = sorted(p.name for p in dot_dir.iterdir()) if dot_dir.is_dir() else []
            shutil.rmtree(dot_dir, ignore_errors=True)
        if out.returncode == 1 and case.fails_with is not None and out.stderr.startswith(case.fails_with):
            return [] if not out.stdout else ["output despite a failing exit"]
        if out.returncode != 0:
            return [f"{' '.join(case.argv[:2])}: exit {out.returncode}: {out.stderr[-300:]!r}"]
        text = out.stdout.decode()
        try:
            if case.command == "walls":
                if len(json.loads(text)) != case.count:
                    return [f"walls listing has {len(json.loads(text))} walls, closed form says {case.count}"]
            elif case.command == "walls_segment":
                times = [Fraction(c["t"]) for c in json.loads(text)["crossings"]]
                if any(not 0 < t < 1 for t in times) or any(a <= b for a, b in zip(times, times[1:])):
                    return ["segment crossing times not strictly decreasing inside (0, 1)"]
            elif case.command == "model_json":
                json.loads(text)
            elif case.command == "reduce":
                n = len(json.loads(text)["records"])
                want = ["final.dot"] + [f"step_{i:03d}.dot" for i in range(n + 1)]
                if files != want:
                    return [f"--dot-dir holds {len(files)} files for {n} records"]
            elif case.command == "model_dot":
                if not (text.startswith("digraph broken_surface {") and text.endswith("}\n")):
                    return ["malformed DOT output"]
            elif case.command == "model_md":
                if not text.startswith("# model report"):
                    return ["malformed model report"]
            elif case.command == "model_glob":
                if text.count("=== ") != case.count:
                    return [f"--glob reported {text.count('=== ')} of {case.count} models"]
            elif case.command == "validate":
                if text != "ok\n":
                    return [f"validate printed {text!r}"]
            elif case.command == "volume":
                Fraction(text.strip())
        except (ValueError, KeyError, TypeError) as exc:
            return [f"{case.command}: unreadable output ({exc})"]
        return []


