"""The public constructors of the engine's records check their input.

Each record is a `typing.NamedTuple`.  A record that checks or canonicalizes
does it in the `__new__` of a subclass; `_replace` and `_make` build through
`tuple.__new__` and check nothing, so the walk's trusted rewrites skip the
checks (see `test_reduction.py` for the walks that pin those rewrites to the
public constructors).  Every row here is a refusal of a public constructor,
with its exception type and text, and every record refuses a field
assignment.
"""

from fractions import Fraction

import pytest

from mmp_elliptic.curves import CurveError, MarkedNodalCurve, Marker, Vertex, WeightVector
from mmp_elliptic.kodaira import FiberState, IntersectionData, KodairaType, parse_fiber_type
from mmp_elliptic.reduction import RecordKind, TransformationRecord, reduce
from mmp_elliptic.surfaces import ChildLink, MarkedFiber, Violation
from mmp_elliptic.walls import Wall, WallKind, enumerate_walls, locate, segment_walls

from modelkit import rational_degeneration

F = Fraction
I1 = parse_fiber_type("I1")
X = rational_degeneration(F(1))
WI_WALL = Wall(WallKind.WI, frozenset({1}), F(5, 6))

REFUSALS = {
    "coeff-above-one": (lambda: MarkedFiber("f1", I1, F(3, 2), FiberState.WEIERSTRASS),
                        ValueError, "fiber f1: coefficient 3/2 outside [0, 1]"),
    "coeff-below-zero": (lambda: MarkedFiber("f2", I1, F(-1, 2), FiberState.WEIERSTRASS, frozenset({2})),
                         ValueError, "fiber f2: coefficient -1/2 outside [0, 1]"),
    "negative-genus": (lambda: Vertex(1, -1), ValueError, "genus must be non-negative"),
    "unknown-family": (lambda: KodairaType("V"), ValueError, "unknown fiber family 'V'"),
    "missing-index": (lambda: KodairaType("I"), ValueError, "family I needs an index n >= 0"),
    "negative-index": (lambda: KodairaType("I*", -1), ValueError, "family I* needs an index n >= 0"),
    "plain-family-index": (lambda: KodairaType("II", 2), ValueError, "family II takes no index"),
    "intersection-A-sign": (lambda: IntersectionData(F(1), F(-1, 2), F(1), 2),
                            ValueError, "intersection data fails sign constraints"),
    "intersection-mult": (lambda: IntersectionData(F(-2), F(-1, 2), F(1), 0),
                          ValueError, "intersection data fails sign constraints"),
    "record-kind": (lambda: TransformationRecord(F(1), WI_WALL, RecordKind.LA_NAVE_FLIP, ("c2",), X),
                    ValueError, "record kind LaNaveFlip inconsistent with wall kind WI"),
    "weight-above-one": (lambda: WeightVector((F(1), F(7, 6))), ValueError, "weight 7/6 outside [0, 1]"),
    "weight-below-zero": (lambda: WeightVector((-1,)), ValueError, "weight -1 outside [0, 1]"),
    "weight-string-range": (lambda: WeightVector(("1/2", "3/2")), ValueError, "weight 3/2 outside [0, 1]"),
    "weight-float": (lambda: WeightVector((0.5,)), TypeError, "cannot interpret 0.5 as an exact rational"),
    "weight-bad-literal": (lambda: WeightVector(("",)), ValueError, "empty rational literal"),
    "duplicate-vertex": (lambda: MarkedNodalCurve((Vertex(1, 0), Vertex(1, 1)), (), ()),
                         CurveError, "duplicate vertex ids"),
    "edge-unknown-vertex": (lambda: MarkedNodalCurve((Vertex(1, 0),), ((1, 3),), ()),
                            CurveError, "edge (1,3) references unknown vertex"),
    "marker-unknown-vertex": (lambda: MarkedNodalCurve((Vertex(1, 0),), (), (Marker(1, 1), Marker(2, 9))),
                              CurveError, "marker 2 sits on unknown vertex 9"),
    "duplicate-marker": (lambda: MarkedNodalCurve((Vertex(1, 0),), (), (Marker(1, 1), Marker(1, 1))),
                         CurveError, "marker indices must be distinct"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_public_constructors_refuse_bad_input(name):
    build, error, text = REFUSALS[name]
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == text


def test_public_weight_constructor_coerces_to_fractions():
    W = WeightVector([1, "1/2", F(1, 3)])
    assert W.entries == (F(1), F(1, 2), F(1, 3)) and all(type(w) is Fraction for w in W.entries)


def _records():
    """One instance of every record type of the package."""
    walls = enumerate_walls(12, [I1] * 12)
    trace = reduce(X, WeightVector((F(1),) * 10 + (F(9, 20),) * 2))
    Y = trace.final
    curve = MarkedNodalCurve((Vertex(1, 0), Vertex(2, 1)), ((2, 1),), (Marker(1, 2),))
    A, B = Y.weights, X.weights
    return [
        Vertex(1, 0), Marker(1, 1), curve, A, I1, IntersectionData(F(-2), F(-1, 2), F(1), 2),
        X.components[0], X.components[0].fibers[0], X.glues[0], X.glues[0].a, Y.trees[0],
        Y.trees[0].root, ChildLink("a1", Y.trees[0].root), trace, trace.records[0], X,
        Violation("glue", "g1", "unknown component c9"), next(iter(walls)), locate(A, walls),
        segment_walls(A, B, walls)[0],
    ]


def test_record_fields_cannot_be_assigned():
    records = _records()
    assert len({type(r) for r in records}) == len(records)
    for record in records:
        field = type(record)._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
