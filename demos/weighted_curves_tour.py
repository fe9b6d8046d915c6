"""Weighted pointed curves on dual graphs: stability and reduction.

A chain of three rational components carries twelve marked points.  Lowering
the weights collapses unstable components one at a time; markers ride along
to the absorbing component.  This layer is also the independent cross-check
for the surface engine: every broken-surface reduction must project to it.

Run:  python demos/weighted_curves_tour.py
"""

from fractions import Fraction

from mmp_elliptic.curves import (
    MarkedNodalCurve,
    Marker,
    Vertex,
    WeightVector,
    component_degree,
    curve_to_dot,
    hassett_reduce,
    is_hassett_stable,
)
from mmp_elliptic.rationals import rat_to_str

F = Fraction


def show(curve, weights):
    for v in curve.vertices:
        marks = ",".join(str(m.index) for m in curve.markers_on(v.vid)) or "-"
        deg = component_degree(curve, v.vid, weights)
        print(
            f"  v{v.vid}: genus {v.genus}, valence {curve.valence(v.vid)},"
            f" markers {marks}, degree {rat_to_str(deg)}"
        )
    print(f"  stable: {is_hassett_stable(curve, weights)}")


def main() -> None:
    curve = MarkedNodalCurve(
        vertices=(Vertex(1, 0), Vertex(2, 0), Vertex(3, 0)),
        edges=((1, 2), (2, 3)),
        markers=tuple(Marker(i, 1) for i in range(1, 9))
        + (Marker(9, 2), Marker(10, 3), Marker(11, 3), Marker(12, 3)),
    )

    heavy = WeightVector(tuple([F(1)] * 12))
    print("all twelve markers at weight one:")
    show(curve, heavy)

    light = WeightVector(tuple([F(1)] * 8 + [F(1, 4), F(1, 4), F(1, 4), F(1, 4)]))
    print("\nmarkers 9..12 lowered to 1/4 (middle and right components destabilize):")
    show(curve, light)

    reduced = hassett_reduce(curve, light)
    print("\nafter reduction:")
    show(reduced, light)
    print("\nreduction is idempotent:", hassett_reduce(reduced, light) == reduced)

    print("\nDOT of the reduced dual graph:\n")
    print(curve_to_dot(reduced, light))


if __name__ == "__main__":
    main()
