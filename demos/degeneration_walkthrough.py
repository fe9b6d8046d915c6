"""Walk the central fiber of a degenerating rational elliptic surface through
its weight walls.

The model: two elliptic components glued along a type II / type II* pair of
twisted fibers.  One side carries ten nodal fibers marked with weight one,
the other two nodal fibers marked with a varying weight.  Lowering that
weight from 1 to 1/3 crosses two walls:

  * at 1/2 the second component's section degree vanishes and the component
    flips into a pseudoelliptic tree hanging off a new intermediate fiber of
    type II whose coefficient is the tree's total marked weight;
  * at 5/12 that coefficient reaches the type II threshold 5/6 and the tree
    collapses to a point, leaving a non-minimal Weierstrass cusp that keeps
    carrying both markers.

Run:  python demos/degeneration_walkthrough.py
"""

from fractions import Fraction
from pathlib import Path

from mmp_elliptic.curves import WeightVector, hassett_reduce
from mmp_elliptic.dot import emit_dot
from mmp_elliptic.modeljson import parse_model
from mmp_elliptic.rationals import rat_to_str
from mmp_elliptic.reduction import reduce
from mmp_elliptic.surfaces import base_curve, pseudo_fate, section_degree, subtree_markers

F = Fraction
MODEL = Path(__file__).parent / "data" / "rational_example.json"


def describe(label, X):
    print(f"--- {label}")
    for comp in X.components:
        kind = "elliptic" if comp.has_section else "pseudoelliptic (type II)"
        line = f"  {comp.cid}: {kind}, genus {comp.genus}, degL {rat_to_str(comp.degL)}"
        if comp.has_section:
            line += f", section degree {rat_to_str(section_degree(X, comp.cid))}"
        print(line)
        for f in comp.fibers:
            marks = ",".join(str(i) for i in sorted(f.markers)) or "-"
            print(
                f"      {f.fid}: {f.ftype} coeff {rat_to_str(f.coeff)}"
                f" [{f.state}] markers {marks}"
            )
    for att in X.trees:
        total = sum(
            (X.weights.weight(i) for i in sorted_markers(att.root)), F(0)
        )
        print(
            f"  tree at {att.host_component}/{att.host_fiber}, root {att.root.pid},"
            f" marked weight {rat_to_str(total)}, fate {pseudo_fate(X, att.root.pid)}"
        )
    curve = base_curve(X)
    print(f"  base curve: {len(curve.vertices)} vertex(ices), {len(curve.edges)} node(s)")


def sorted_markers(node):
    return sorted(subtree_markers(node))


def main() -> None:
    X = parse_model(MODEL.read_text())
    describe("start, both markers at weight 1", X)

    target = WeightVector(tuple([F(1)] * 10 + [F(1, 3), F(1, 3)]))
    trace = reduce(X, target)
    print(f"\nreducing the last two weights to 1/3 crosses {len(trace.records)} walls:\n")
    for rec in trace.records:
        at = rec.snapshot_after.weights
        print(f"== {rec.kind} at walk time t = {rat_to_str(rec.t)} ({rec.wall})")
        print(f"   marker weights there: a11 = {rat_to_str(at.weight(11))}")
        describe("after this wall", rec.snapshot_after)
        print()

    describe("final model at weight 1/3", trace.final)

    print("\nEvery stage projects onto the Hassett reduction of the original base:")
    original = base_curve(X)
    for rec in trace.records:
        reduced = hassett_reduce(original, rec.snapshot_after.weights)
        same = base_curve(rec.snapshot_after) == reduced
        print(f"  t = {rat_to_str(rec.t)}: base curve matches -> {same}")

    out = Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    (out / "walkthrough_final.dot").write_text(emit_dot(trace.final))
    print(f"\nDOT snapshot of the final model written to {out / 'walkthrough_final.dot'}")


if __name__ == "__main__":
    main()
