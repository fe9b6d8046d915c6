"""How the engine's costs grow with the model: five markdown tables.

Run from the repository root:

    PYTHONPATH=src python tests/scaling.py

It prints, at the `FULL` sizes:

- Import time: the package's lines of `python -X importtime` for three
  README commands (a walls listing on ten markers, model on the worked
  example and the worked reduce), and each one's total over every import;
  every command is a fresh process, and loads only the layers it runs.
- Wall query times: the in-process wall queries on the worked segment (the
  last two of r nodal markers run from 1 down to 1/3; the chamber is taken at
  its midpoint) at r = 12, 16 and 20, ROADMAP aim 3's "usable up to r = 20".
  Each cell is cold / warm.  Every timed call gets fresh weight vectors, so
  each pays for the integer lift a vector keeps after its first query.  Cold
  is the first call on an arrangement on r markers, made after the same query
  ran once on r - 1 markers and once on another arrangement on r markers, and
  then the process-wide table of answer-wall subsets (`walls._subset`) was
  cleared: the code is warm, the heap has grown to the call's size, and the
  table holds no subset on r, so the call builds every subset it answers.
  Warm is the best of the 3 calls after it, which find their subsets in the
  table.  The queries: same_chamber on the far pair (the two ends) and on
  P = Q, which scans every pair of half sums, both at the midpoint and at a
  point whose 2^r subset sums are distinct (weight k is 2^(k-1)/2^r), and one
  Chamber.sign, on a chamber located in the call (O(r)).  Chamber.interior()
  on that point, which meets in the middle, is timed at r = 16 and 20 only,
  and Chamber.signs and list(walls), which build every wall, at 12 and 16.
- Base-curve check times: ms per snapshot of base_curve and of
  hassett_reduce (the start's base curve at base_weights of the snapshot),
  the check `reduce --check-hassett` makes once per time step, on
  `bench/inputs.chain_case(n, k=3)` at n = 600, 1800 and 5400; the cold
  column runs hassett_reduce on a fresh WeightVector of the same entries,
  which keeps no lift, so its gap to the column before it is the lift the
  walk's vector keeps.  The start curve's shape is built before any timing.
- Walk cost: the whole reduce walk on `chain_case(n, k=3)` at n = 79 (the
  mean chain of the bench's reduce-chain block), 600, 1800 and 5400, with its
  number of records; the least of 11 walks on one model, read and validated
  once, outside the timing.
- Model I/O cost: ms per model of json.loads, model_from_obj, validate,
  serialize_model and emit_dot on `chain_case(n, k=3)` at n = 600, 1800 and
  5400, the best of 3; validate and the writers each take a model read
  afresh, so no verdict or stored text is reused.

Every `chain_case` is drawn with seed 1.  The cyclic garbage collector is off
while a call is timed: a call that builds many objects would otherwise pay
for collections whose cost varies from call to call.  A section that raises
prints its traceback, and the others still print; the script then exits 1.
`tests/test_scaling.py` runs the `SLICE` sizes in the suite.  Only the
standard library and the package are used; `bench/inputs.py` is read, not
changed.
"""

import gc
import json
import os
import random
import subprocess
import sys
import time
import traceback
from fractions import Fraction as F
from pathlib import Path

import mmp_elliptic
from corpus import REPO, _bench_inputs
from mmp_elliptic.curves import WeightVector, hassett_reduce
from mmp_elliptic.dot import emit_dot
from mmp_elliptic.kodaira import parse_fiber_type
from mmp_elliptic.modeljson import model_from_obj, parse_model, serialize_model
from mmp_elliptic.reduction import reduce
from mmp_elliptic.surfaces import base_curve, base_weights, validate
from mmp_elliptic.walls import (
    Wall, WallKind, _subset, enumerate_walls, locate, same_chamber, segment_walls, walls_containing,
)

FULL = {
    "walls": (12, 16, 20),  # r of the wall query table
    # the r of the queries timed at fewer: interior() meets in the middle, the other two build every wall
    "only": {"interior(), distinct sums": (16, 20), "Chamber.signs": (12, 16), "list(walls)": (12, 16)},
    "base_curve": (600, 1800, 5400),  # chain lengths n
    "walk": (79, 600, 1800, 5400),
    "walks": 11,  # walks per chain, the least one reported
    "model_io": (600, 1800, 5400),
}
SLICE = {
    "walls": (8, 12),
    "only": {"interior(), distinct sums": (12,), "Chamber.signs": (8,), "list(walls)": (8,)},
    "base_curve": (40, 80),
    "walk": (40, 80),
    "walks": 2,
    "model_io": (40, 80),
}
COMMANDS = (
    ["walls", "-r", "10", "--types", ",".join(["I1"] * 10)],
    ["model", "demos/data/rational_example.json"],
    ["reduce", "demos/data/rational_example.json", "--to", "1,1,1,1,1,1,1,1,1,1,1/3,1/3"],
)


def _timed(call, *args) -> tuple[object, float]:
    """(call(*args), the ms it took), with the cyclic garbage collector off."""
    gc.disable()
    try:
        start = time.perf_counter()
        value = call(*args)
        return value, (time.perf_counter() - start) * 1e3
    finally:
        gc.enable()


def _table(head: list[str], rows) -> None:
    print("| " + " | ".join(head) + " |")
    print("| --- " * len(head) + "|")
    for row in rows:
        print("| " + " | ".join(map(str, row)) + " |")


def _chain(n: int):
    return _bench_inputs().chain_case(random.Random(1), n, k=3)


def import_time(sizes: dict) -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(mmp_elliptic.__file__).parents[1]))
    for argv in COMMANDS:
        command = [sys.executable, "-X", "importtime", "-m", "mmp_elliptic.cli", *argv]
        run = subprocess.run(command, cwd=REPO, env=env, capture_output=True, text=True, check=True)
        lines = [line for line in run.stderr.splitlines() if line.startswith("import time:")]
        total = sum(int(line.split("|")[0].removeprefix("import time:")) for line in lines[1:])
        print("```\n$ python -X importtime -m mmp_elliptic.cli " + " ".join(argv))
        print("\n".join([lines[0], *(line for line in lines if "mmp_elliptic" in line)]))
        print(f"total over every import: {total / 1000:.1f} ms\n```")


def wall_queries(sizes: dict) -> None:
    nodal = [parse_fiber_type("I1")] * max(sizes["walls"])

    def vectors(r):
        """Fresh A, B, mid and G on r markers."""
        A, B, mid = (WeightVector((F(1),) * (r - 2) + (a,) * 2) for a in (F(1, 3), F(1), F(2, 3)))
        return A, B, mid, WeightVector(tuple(F(2**k, 2**r) for k in range(r)))

    def cell(query, r):
        """'cold / warm ms' of query(walls, A, B, mid, G) on r markers."""
        query(enumerate_walls(r - 1, nodal[: r - 1]), *vectors(r - 1))
        query(enumerate_walls(r, nodal[:r]), *vectors(r))
        _subset.cache_clear()
        walls = enumerate_walls(r, nodal[:r])
        ms = [_timed(query, walls, *vectors(r))[1] for _ in range(4)]
        return f"{ms[0]:.2f} / {min(ms[1:]):.2f} ms"

    queries = {
        "enumerate_walls": lambda walls, *_: enumerate_walls(walls.r, nodal[: walls.r]),
        "segment_walls": lambda walls, A, B, mid, G: segment_walls(A, B, walls),
        "locate": lambda walls, A, B, mid, G: locate(mid, walls),
        "walls_containing": lambda walls, A, B, mid, G: walls_containing(A, walls),
        "same_chamber: far": lambda walls, A, B, mid, G: same_chamber(A, B, walls),
        "P = Q": lambda walls, A, B, mid, G: same_chamber(mid, mid, walls),
        "P = Q, distinct sums": lambda walls, A, B, mid, G: same_chamber(G, G, walls),
        "Chamber.sign": lambda walls, A, B, mid, G: locate(mid, walls).sign(
            Wall(WallKind.WIII, frozenset({walls.r - 1, walls.r}), F(2, 3))
        ),
        "interior(), distinct sums": lambda walls, A, B, mid, G: locate(G, walls).interior(),
        "Chamber.signs": lambda walls, A, B, mid, G: locate(mid, walls).signs,
        "list(walls)": lambda walls, *_: list(walls),
    }
    print(
        "each cell: cold (the first call on an arrangement, after one call on r - 1 markers, one on another"
        " arrangement on r markers and a cleared subset table) / warm (best of the 3 calls after it), every"
        " call on fresh weight vectors, gc off while timed\n"
    )
    _table(["r", "walls", *queries], (
        [r, len(enumerate_walls(r, nodal[:r]))]
        + [cell(query, r) if r in sizes["only"].get(name, (r,)) else "-" for name, query in queries.items()]
        for r in sizes["walls"]
    ))


def base_curve_check(sizes: dict) -> None:
    rows = []
    for n in sizes["base_curve"]:
        case = _chain(n)
        X = parse_model(case.text)
        trace = reduce(X, WeightVector(case.target))
        start = base_curve(X)
        start.is_connected()  # its shape, built once per walk, outside the timing
        # the snapshot after each time step's last record
        snapshots = list({rec.t: rec.snapshot_after for rec in trace.records}.values())
        spent = [0.0, 0.0, 0.0]
        for Y in snapshots:
            fresh = WeightVector(base_weights(Y).entries)
            runs = (
                _timed(base_curve, Y),
                _timed(lambda: hassett_reduce(start, base_weights(Y))),
                _timed(hassett_reduce, start, fresh),
            )
            assert runs[0][0] == runs[1][0] == runs[2][0]
            spent = [s + ms for s, (_, ms) in zip(spent, runs)]
        ms = [s / len(snapshots) for s in spent]
        rows.append([n, len(snapshots), *(f"{m:.2f} ms" for m in ms), f"{ms[0] + ms[1]:.2f} ms"])
    _table(["n", "snapshots", "base_curve", "hassett_reduce", "cold hassett_reduce", "both"], rows)


def walk_cost(sizes: dict) -> None:
    rows = []
    for n in sizes["walk"]:
        case = _chain(n)
        X = parse_model(case.text)
        assert validate(X) == []
        target = WeightVector(case.target)
        walks = [_timed(reduce, X, target) for _ in range(sizes["walks"])]
        rows.append([n, len(walks[0][0].records), f"{min(ms for _, ms in walks):.2f} ms"])
    _table(["n", "records", "whole walk"], rows)


def model_io(sizes: dict) -> None:
    def best(make, call):
        """The least ms of 3 calls of `call`, each on a value `make` gives outside the timing."""
        return min(_timed(call, make())[1] for _ in range(3))

    rows = []
    for n in sizes["model_io"]:
        text = _chain(n).text
        obj = json.loads(text)
        fresh = lambda: model_from_obj(obj, check=False)
        row = [best(lambda: text, json.loads), best(lambda: obj, lambda o: model_from_obj(o, check=False))]
        row += [best(fresh, call) for call in (validate, serialize_model, emit_dot)]
        rows.append([n, *(f"{ms:.2f} ms" for ms in row)])
    _table(["n", "json.loads", "model_from_obj", "validate", "serialize_model", "emit_dot"], rows)


SECTIONS = {
    "Import time": import_time,
    "Wall query times": wall_queries,
    "Base-curve check times": base_curve_check,
    "Walk cost": walk_cost,
    "Model I/O cost": model_io,
}


def report(sizes: dict = FULL) -> list[str]:
    """Print every section under its heading; the titles of those that raised."""
    failed = []
    for title, section in SECTIONS.items():
        print(f"### {title}\n")
        try:
            section(sizes)
        except Exception:  # noqa: BLE001 - the section reports it, and the rest still run
            print("```\n" + traceback.format_exc() + "```")
            failed.append(title)
        print()
    return failed


if __name__ == "__main__":
    sys.exit(1 if report() else 0)
