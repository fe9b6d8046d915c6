"""Byte-for-byte CLI output pinned against the files in tests/golden/.

The files hold every rendering of the shipped example at three weights
(model reports, reduction traces, per-step DOT snapshots), the DOT of a
chain whose type II middle sorts between its elliptic ends by id, while its
cluster is emitted after theirs, the final model of the nested-tree walk
in `test_reduction.py` (a tree whose root hosts a child) with its reports, a
`walls` listing at r = 3 over a rational base, and the `walls --segment` scan
of the worked path at r = 12.
The `reduce` traces in `REWRITE_WALKS` pin one walk per section contraction
and tree collapse: a La Nave flip that folds the chain's type II middle into
its tree, a type II formation, a whole-section contraction, two nested
collapses due at one time (the inner one first), and an isotrivial tree's
collapse onto a curve, where the walk halts.
A deliberate output change rewrites the file from the command its test runs.
Every `reduce` input here, and a seeded set of random walks, also pins the
trace to `json.dumps(indent=2)` of its object (`oracles.trace_oracle`).
"""

import random
from pathlib import Path

import pytest

from mmp_elliptic.cli import main
from mmp_elliptic.curves import WeightVector
from mmp_elliptic.modeljson import parse_model, serialize_model
from mmp_elliptic.rationals import rat_from_str, rat_to_str
from mmp_elliptic.reduction import reduce

from modelkit import random_model, random_target
from oracles import serialize_oracle, trace_oracle

GOLDEN = Path(__file__).resolve().parent / "golden"
EXAMPLE = GOLDEN.parent.parent / "demos" / "data" / "rational_example.json"
ALPHAS = {"1_2": "1/2", "9_20": "9/20", "1_3": "1/3"}


def at_alpha(tag: str) -> str:
    return ",".join(["1"] * 10 + [ALPHAS[tag]] * 2)


def run(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["md", "json", "dot"])
@pytest.mark.parametrize("tag", sorted(ALPHAS))
def test_model_report(capsys, tag, fmt):
    out = run(capsys, "model", str(EXAMPLE), "--weights", at_alpha(tag), "--format", fmt)
    assert out == (GOLDEN / f"model_{tag}.{fmt}").read_text()


@pytest.mark.parametrize("tag", sorted(ALPHAS))
def test_reduce_trace_and_dot_snapshots(capsys, tmp_path, tag):
    out = run(
        capsys, "reduce", str(EXAMPLE), "--to", at_alpha(tag), "--check-hassett", "--dot-dir", str(tmp_path)
    )
    assert out == (GOLDEN / f"reduce_{tag}.json").read_text()
    want = GOLDEN / f"reduce_{tag}"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in want.iterdir())
    for p in want.iterdir():
        assert (tmp_path / p.name).read_text() == p.read_text()


# model file (and trace file, prefixed "reduce_") -> `reduce --to` target
REWRITE_WALKS = {
    "chain_type2": "1,1,1/3,1/3",
    "type2_formation": "1,1,0,1,1",
    "whole_section": "1/2,1/2,1/2",
    "nested_collapse": "1,1,1/2,1/12,1/12",
    "curve_collapse": ",".join(["1"] * 10 + ["1/6"] * 2),
}


@pytest.mark.parametrize("name", sorted(REWRITE_WALKS))
def test_reduce_trace_of_each_rewrite(capsys, name):
    out = run(capsys, "reduce", str(GOLDEN / f"{name}.json"), "--to", REWRITE_WALKS[name])
    assert out == (GOLDEN / f"reduce_{name}.json").read_text()


def test_type_ii_chain_dot_lists_sections_first(capsys):
    out = run(capsys, "model", str(GOLDEN / "chain_type2.json"), "--format", "dot")
    assert out == (GOLDEN / "chain_type2.dot").read_text()


def test_nested_tree_round_trips_through_json():
    text = (GOLDEN / "nested_tree.json").read_text()
    assert serialize_model(parse_model(text)) == text


@pytest.mark.parametrize("fmt", ["md", "dot"])
def test_nested_tree_report(capsys, fmt):
    out = run(capsys, "model", str(GOLDEN / "nested_tree.json"), "--format", fmt)
    assert out == (GOLDEN / f"nested_tree.{fmt}").read_text()


def test_walls_listing(capsys):
    out = run(capsys, "walls", "-r", "3", "--types", "I1,II,IV*", "--rational-base")
    assert out == (GOLDEN / "walls_r3.json").read_text()


def test_walls_segment_of_the_worked_path(capsys):
    lower, upper = ",".join(["1"] * 10 + ["1/3"] * 2), ",".join(["1"] * 12)
    out = run(capsys, "walls", "-r", "12", "--types", ",".join(["I1"] * 12), "--segment", lower, upper)
    assert out == (GOLDEN / "walls_segment_r12.json").read_text()


def test_reduce_trace_is_the_json_layout_of_its_object(capsys, tmp_path):
    walks = [(EXAMPLE, at_alpha(tag)) for tag in sorted(ALPHAS)]
    walks += [(GOLDEN / f"{name}.json", to) for name, to in sorted(REWRITE_WALKS.items())]
    rng = random.Random(808)
    for j in range(80):  # isotrivial trees, so some walks halt at a curve collapse
        X = random_model(rng, allow_isotrivial=True)
        path = tmp_path / f"m{j}.json"
        path.write_text(serialize_oracle(X))
        walks.append((path, ",".join(map(rat_to_str, random_target(rng, X.weights).entries))))
    seen = {"records": 0, "halted": 0, "trees": 0}
    for path, to in walks:
        out = run(capsys, "reduce", str(path), "--to", to)
        start = parse_model(path.read_text())
        target = WeightVector(tuple(map(rat_from_str, to.split(","))))
        trace = reduce(start, target)
        assert out == trace_oracle(start, target, trace)
        seen["records"] += len(trace.records)
        seen["halted"] += trace.halted is not None
        seen["trees"] += any(rec.snapshot_after.trees for rec in trace.records)
    assert min(seen.values()) > 0, seen
