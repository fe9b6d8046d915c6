"""A differential corpus over the reduction engine: one sha256 line per item.

Run from the repository root:

    python tests/corpus.py                    # print "<item> <sha256>" lines
    python tests/corpus.py --compare ../old   # run it on ../old/src as well
                                              # and list every item that differs

Every item runs one public operation on inputs drawn from fixed seeds and
sizes, all written down in `FULL`, and hashes what it gives back: a walk's
records (time, wall, kind, affected ids, note, snapshot JSON), its final
model's JSON and DOT and its halt reason; a crossing's record and model; or
the type and text of the exception it raised.  The families:

- `random/...`: `modelkit.random_model` walks, with and without isotrivial
  trees, to screened (`admissible_target`) and unscreened (`random_target`)
  targets;
- `chain/...`: `bench/inputs.chain_case`, deep cascades included;
- `halting/...`: `bench/inputs.halting_case`, walks that halt at a tree
  collapsed onto a curve;
- `file/...`: random targets on every model under `tests/golden`,
  `tests/data` and `demos/data`;
- `.../felt` after a walk: the felt-wall table (`felt_walls`, one line
  `wall|owner|fid|node pid|depth` per wall) of its start and, unless the
  walk halted, of its final model;
- `.../cross/i` after a walk: `cross_wall` replays record i on the snapshot
  before it (before its batch's fiber changes, for a WI record), moved onto
  the record's weights;
- `segment/...`: `segment_walls` and `walls_containing` at both ends of
  `bench/inputs.segment` segments on 1 to 9 markers, both bases;
- `chamber/...`: the side of every wall (`Chamber.signs`) at both ends and
  the midpoint of each `segment` case, and whether the chambers of each two
  of those points are equal (`chamber/sides/j`); and the `segment` items on
  11 to 14 markers with 1 to 3 moving ones (`chamber/wide/j`);
- `walls/r/shift/base`: the `str` of every wall that iterating
  `enumerate_walls` gives on r = 0 to 10 markers, both bases, with the
  markable types laid out from each offset `shift`;
- `file/.../wii-at-one/cid` for each model file:
  `cross_wall` on the WII wall at one over the markers of component cid,
  with each of them moved to weight 1 / (their number); only a component
  whose felt WII wall sits at one feels that wall;
- `parse/doc` and `parse/doc/kind/j`: the model reader and the validator on
  each model file, a few `bench/inputs.chain_case` and `random_model`
  documents, and seeded single-field mutations of each (`PARSE_KINDS`: a
  dropped key, a value of another JSON type, a bad or an out-of-range
  literal, a boolean for an integer, a string for a boolean, an unknown type,
  state or kind, a repeated marker); each hashes the `ModelJSONError` text,
  or `serialize_model` of the model read and the texts `validate` finds.

An exception the package raises to refuse an input is an answer; any other
one marks its item `UNEXPECTED`.  The corpus grows, and does not shrink,
when a defect is found; a change to its seeds, sizes or families is named
in CHANGES.md.  `tests/test_corpus.py` runs the `SLICE` sizes in the suite.
Only the standard library and the package are used.  The package comes from
`PYTHONPATH` when it is set there, else from this checkout's `src/`;
`--compare` runs the script again with `PYTHONPATH` at the second checkout's.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

FULL = {
    "random": 300,  # walks per (screened or not, isotrivial or not)
    "file_targets": 20,  # targets per model file
    "chains": [(40, 3, 1), (160, 3, 2), (30, 12, 3), (60, 12, 4), (50, 25, 5), (100, 25, 6)],  # (n, k, seed)
    "halting": 40,
    "segments": 300,
    "wide_segments": 40,
    "wall_markers": 11,  # wall listings on 0 .. wall_markers - 1 markers
    "parse_chains": [(6, 1), (20, 2), (40, 3)],  # (n, seed) of chain_case documents, k = 1
    "parse_randoms": 6,  # random_model documents, every other one with an isotrivial tree
    "parse_mutations": 16,  # mutated copies of each document, the kinds in turn
}
SLICE = {
    "random": 8,
    "file_targets": 2,
    "chains": [(12, 3, 1), (16, 6, 2)],
    "halting": 2,
    "segments": 18,
    "wide_segments": 4,
    "wall_markers": 4,
    "parse_chains": [(6, 1)],
    "parse_randoms": 2,
    "parse_mutations": 8,
}


def _bench_inputs():
    """`bench/inputs.py`, loaded by path."""
    if "bench_inputs" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_inputs", REPO / "bench" / "inputs.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["bench_inputs"]


def _model_files() -> list[Path]:
    """The model files: the golden ones that are not reports, listings or
    traces, then those of `tests/data` and `demos/data`."""
    golden = (REPO / "tests" / "golden").glob("*.json")
    return (
        sorted(p for p in golden if not p.name.startswith(("model_", "reduce_", "walls_")))
        + sorted((REPO / "tests" / "data").glob("*.json"))
        + sorted((REPO / "demos" / "data").glob("*.json"))
    )


# the single-field mutations of the `parse/...` family, and the fields each reads
PARSE_KINDS = (
    "drop",
    "wrong-type",
    "bad-literal",
    "out-of-range",
    "bool-for-int",
    "string-for-bool",
    "unknown-name",
    "repeated-marker",
)
_RATIONAL_KEYS = {"coeff", "degL"}
_INT_KEYS = {"vertex", "genus"}
_BOOL_KEYS = {"isotrivial_jinf", "nonminimal_cusp"}
_NAME_KEYS = {
    "type": ["I*x", "V", "i1", "I-1"],
    "attach_type": ["Ix", "II**"],
    "state": ["Sideways", "weierstrass"],
    "kind": ["pseudo3", "Elliptic"],
}


def _nodes(node, path=()):
    """(path, value) of every value in a JSON document, the document first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _is_rational(path) -> bool:
    return path[-1] in _RATIONAL_KEYS or (path[:1] == ("weights",) and len(path) == 2)


def _is_int(path, value) -> bool:
    return (path[-1] in _INT_KEYS or path[-2:-1] == ("markers",)) and type(value) is int


def mutate(rng: random.Random, doc: dict, kind: str):
    """A copy of `doc` with one field changed as `kind` says, or None when
    no field of `doc` admits that change."""
    doc = json.loads(json.dumps(doc))
    fields = [(p, v) for p, v in _nodes(doc) if p]
    if kind == "drop":
        found = [p for p, _ in fields if isinstance(p[-1], str)]
    elif kind == "wrong-type":
        found = [p for p, _ in fields]
    elif kind in ("bad-literal", "out-of-range"):
        found = [p for p, v in fields if _is_rational(p) or (kind == "out-of-range" and _is_int(p, v))]
    elif kind == "bool-for-int":
        found = [p for p, v in fields if _is_int(p, v)]
    elif kind == "string-for-bool":
        found = [p for p, _ in fields if p[-1] in _BOOL_KEYS]
    elif kind == "unknown-name":
        found = [p for p, _ in fields if p[-1] in _NAME_KEYS]
    else:  # a repeated marker
        found = [p for p, v in fields if p[-1] == "markers" and v]
    if not found:
        return None
    path = rng.choice(found)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value, key = parent[path[-1]], path[-1]
    if kind == "drop":
        del parent[key]
        return doc
    if kind == "wrong-type":
        others = {str: 7, bool: 1, int: [1], float: "x", list: {"x": 1}, dict: [1], type(None): {}}
        new = others[type(value)]
    elif kind == "bad-literal":
        new = rng.choice(["x/2", "1/0", "0.5", "", 0.5, "1/2/3", " 1 / 2"])
    elif kind == "out-of-range":
        new = rng.choice(["3/2", "-1/3", "7/6"]) if _is_rational(path) else rng.choice([-1, 0, 99])
    elif kind == "bool-for-int":
        new = rng.choice([True, False])
    elif kind == "string-for-bool":
        new = rng.choice(["false", "true"])
    elif kind == "unknown-name":
        new = rng.choice(_NAME_KEYS[key])
    else:
        new = value + [rng.choice(value)]
    parent[key] = new
    return doc


def corpus(sizes: dict = FULL):
    """Every item as (name, text): the text is what the item's line hashes."""
    from fractions import Fraction

    from mmp_elliptic import felt_walls
    from mmp_elliptic.curves import WeightVector
    from mmp_elliptic.dot import emit_dot
    from mmp_elliptic.kodaira import parse_fiber_type
    from mmp_elliptic.modeljson import ModelJSONError, parse_model, serialize_model
    from mmp_elliptic.reduction import (
        InconsistentTarget,
        InvalidModel,
        RuleNotApplicable,
        WallNotSatisfied,
        cross_wall,
        reduce,
    )
    from mmp_elliptic.surfaces import validate
    from mmp_elliptic.walls import Wall, WallKind, enumerate_walls, locate, segment_walls, walls_containing
    from modelkit import MARKABLE, admissible_target, random_model, random_target

    refusals = (InconsistentTarget, InvalidModel, RuleNotApplicable, WallNotSatisfied)

    def record_text(rec) -> str:
        head = f"{rec.t}|{rec.wall}|{rec.kind}|{','.join(rec.affected)}|{rec.note}\n"
        return head + serialize_model(rec.snapshot_after)

    def outcome(fn, *args) -> tuple[str, object]:
        try:
            result = fn(*args)
        except refusals as exc:
            return f"{type(exc).__name__}: {exc}", None
        except Exception as exc:  # noqa: BLE001 - the item reports it
            return f"UNEXPECTED {type(exc).__name__}: {exc}", None
        return "", result

    def felt_text(X) -> str:
        return "".join(f"{fw.wall}|{fw.owner}|{fw.fid}|{fw.node.pid if fw.node else ''}|{fw.depth}\n" for fw in felt_walls(X))

    def walk(name, X, target):
        text, trace = outcome(reduce, X, target)
        if trace is None:
            yield name, text
            return
        final = trace.final
        records = "".join(map(record_text, trace.records))
        yield name, records + serialize_model(final) + emit_dot(final) + str(trace.halted)
        yield f"{name}/felt", felt_text(X) + ("" if trace.halted else "final\n" + felt_text(final))
        # the WI records of one batch share the snapshot after all of them,
        # so each replays on the snapshot before its batch's fiber changes
        before, last = X, X
        for i, rec in enumerate(trace.records):
            if rec.snapshot_after is not last:
                before, last = last, rec.snapshot_after
            text, crossed = outcome(cross_wall, before._replace(weights=last.weights), rec.wall)
            yield f"{name}/cross/{i}", text or record_text(crossed[1])

    def wii_at_one(name, X):
        for comp in X.elliptic:
            subset = comp.marker_set
            if subset:
                share = Fraction(1, len(subset))
                on = tuple(share if i in subset else w for i, w in enumerate(X.weights.entries, 1))
                wall = Wall(WallKind.WII, subset, Fraction(1))
                text, crossed = outcome(cross_wall, X._replace(weights=WeightVector(on)), wall)
                yield f"{name}/wii-at-one/{comp.cid}", text or record_text(crossed[1])

    rng = random.Random(2024)
    for iso in (False, True):
        for screened in (True, False):
            tag = f"random/{'screened' if screened else 'unscreened'}/{'isotrivial' if iso else 'plain'}"
            for j in range(sizes["random"]):
                X = random_model(rng, max_components=5, max_markers=12, allow_isotrivial=iso)
                target = admissible_target(rng, X) if screened else random_target(rng, X.weights)
                if target is not None:
                    yield from walk(f"{tag}/{j}", X, target)

    bench = _bench_inputs()
    for n, k, seed in sizes["chains"]:
        case = bench.chain_case(random.Random(seed), n, k)
        X = parse_model(json.dumps(case.model))
        yield from walk(f"chain/{n}-{k}-{seed}", X, WeightVector(case.target))
    rng = random.Random(29)
    for j in range(sizes["halting"]):
        case = bench.halting_case(rng)
        yield from walk(f"halting/{j}", parse_model(json.dumps(case.model)), WeightVector(case.target))

    def segment_case(rng, r, rational_base, moving):
        """A `bench/inputs.segment` case, its arrangement and the text of its
        crossings and of the walls through both ends."""
        case = bench.segment(rng, r, rational_base, moving)
        arrangement = enumerate_walls(r, map(parse_fiber_type, case.types), case.rational_base)
        A, B = WeightVector(case.lower), WeightVector(case.upper)
        crossings = segment_walls(A, B, arrangement)
        text = "".join(f"{c.t}: {'; '.join(map(str, c.walls_hit))}\n" for c in crossings)
        for end in (A, B):
            text += "; ".join(map(str, walls_containing(end, arrangement))) + "\n"
        return case, arrangement, text

    rng = random.Random(7)
    for j in range(sizes["segments"]):
        r = 1 + j % 9
        case, arrangement, text = segment_case(rng, r, j % 2 == 1, rng.randint(1, r))
        yield f"segment/{j}", text
        lower, upper, mid = (locate(WeightVector(p), arrangement) for p in (case.lower, case.upper, case.midpoint))
        text = "".join("".join(side[0] for _, side in c.signs) + "\n" for c in (lower, upper, mid))
        yield f"chamber/sides/{j}", text + f"{lower == upper} {lower == mid} {upper == mid}\n"
    rng = random.Random(11)
    for j in range(sizes["wide_segments"]):
        yield f"chamber/wide/{j}", segment_case(rng, 11 + j % 4, j % 2 == 1, rng.randint(1, 3))[2]

    for r in range(sizes["wall_markers"]):
        for shift in range(len(MARKABLE)):
            types = [parse_fiber_type(MARKABLE[(i + shift) % len(MARKABLE)]) for i in range(r)]
            for rational in (False, True):
                walls = enumerate_walls(r, types, rational)
                yield f"walls/{r}/{shift}/{'rational' if rational else 'plain'}", "".join(f"{w}\n" for w in walls)

    rng = random.Random(77)
    for path in _model_files():
        X = parse_model(path.read_text())
        name = f"file/{path.parent.name}/{path.stem}"
        for j in range(sizes["file_targets"]):
            target = random_target(rng, X.weights) if j else WeightVector((Fraction(1, 12),) * X.weights.r)
            yield from walk(f"{name}/{j}", X, target)
        yield from wii_at_one(name, X)

    def read(doc) -> str:
        try:
            X = parse_model(json.dumps(doc, indent=2), check=False)
        except ModelJSONError as exc:
            return f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 - the item reports it
            return f"UNEXPECTED {type(exc).__name__}: {exc}"
        return serialize_model(X) + "".join(f"{p}\n" for p in validate(X))

    docs = [(f"file/{p.parent.name}/{p.stem}", json.loads(p.read_text())) for p in _model_files()]
    for n, seed in sizes["parse_chains"]:
        docs.append((f"chain/{n}-{seed}", bench.chain_case(random.Random(seed), n, 1).model))
    rng = random.Random(2027)
    for j in range(sizes["parse_randoms"]):
        docs.append((f"random/{j}", bench.random_model(rng, isotrivial_tree=j % 2 == 1)))
    for name, doc in docs:
        yield f"parse/{name}", read(doc)
        for j in range(sizes["parse_mutations"]):
            kind = PARSE_KINDS[j % len(PARSE_KINDS)]
            mutated = mutate(rng, doc, kind)
            if mutated is not None:
                yield f"parse/{name}/{kind}/{j}", read(mutated)


def lines(sizes: dict = FULL):
    """`<item> <sha256 of its text>` for every item, with UNEXPECTED appended
    where the item raised an exception that is not a refusal."""
    for name, text in corpus(sizes):
        tail = " UNEXPECTED" if text.startswith("UNEXPECTED") else ""
        yield f"{name} {hashlib.sha256(text.encode()).hexdigest()}{tail}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", type=Path, metavar="PATH", help="a second checkout to run the corpus on")
    args = parser.parse_args(argv)
    sys.path.append(str(REPO / "src"))
    if args.compare is None:
        for line in lines():
            print(line)
        return 0
    env = dict(os.environ, PYTHONPATH=str(args.compare.resolve() / "src"))
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, check=True)
    theirs = dict(line.split(" ", 1) for line in run.stdout.splitlines())
    ours = dict(line.split(" ", 1) for line in lines())
    differ = sorted(name for name in ours.keys() | theirs.keys() if ours.get(name) != theirs.get(name))
    for name in differ:
        print(f"{name}: {ours.get(name, 'missing')} here, {theirs.get(name, 'missing')} at {args.compare}")
    print(f"{len(ours)} items here, {len(theirs)} at {args.compare}, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
