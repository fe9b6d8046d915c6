import gc
import importlib.util
import json
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from mmp_elliptic import curves, reduction
from mmp_elliptic.curves import _DEN, WeightVector, _integers, hassett_reduce, interpolate
from mmp_elliptic.kodaira import FiberState, lct_threshold, parse_fiber_type
from mmp_elliptic.modeljson import ModelJSONError, parse_model, serialize_model
from mmp_elliptic.reduction import (
    FeltWall,
    InconsistentTarget,
    InvalidModel,
    RecordKind,
    RuleNotApplicable,
    WallNotSatisfied,
    at_weights,
    cross_wall,
    felt_row,
    felt_walls,
    reduce,
)
from mmp_elliptic.surfaces import (
    AttachEnd,
    BrokenEllipticSurface,
    ChildLink,
    Component,
    Glue,
    MarkedFiber,
    PseudoComponent,
    TreeAttachment,
    base_curve,
    base_weights,
    section_degree,
    validate,
    volume,
)
from mmp_elliptic.walls import Wall, WallKind, enumerate_walls, locate

from modelkit import (
    admissible_target,
    chain_cascade,
    flipped_degeneration,
    mk_fiber,
    random_model,
    random_target,
    rational_degeneration,
)
from oracles import base_curve_by_step, rebuilt
from test_golden import GOLDEN, REWRITE_WALKS

F = Fraction


def weights(*entries):
    return WeightVector(tuple(F(e) if not isinstance(e, Fraction) else e for e in entries))


def test_example_degeneration_full_trace():
    X = rational_degeneration(F(1))
    target = weights(*([1] * 10 + [F(1, 3), F(1, 3)]))
    trace = reduce(X, target)
    assert trace.halted is None
    kinds = [r.kind for r in trace.records]
    assert kinds == [RecordKind.LA_NAVE_FLIP, RecordKind.TREE_COLLAPSE_TO_POINT]
    flip, collapse = trace.records

    # the flip fires where the two alpha-markers sum to one (alpha = 1/2)
    assert interpolate(target, X.weights, flip.t).weight(11) == F(1, 2)
    assert flip.wall == Wall(WallKind.WII, frozenset({11, 12}), F(1))
    host = flip.snapshot_after.component("c1").fiber("a1")
    assert host.state == FiberState.INTERMEDIATE
    assert host.markers == frozenset({11, 12})
    assert flip.snapshot_after.trees[0].root.pid == "c2"

    # the collapse fires where the tree's weight reaches 5/6 (alpha = 5/12)
    assert interpolate(target, X.weights, collapse.t).weight(11) == F(5, 12)
    assert collapse.wall == Wall(WallKind.WIII, frozenset({11, 12}), F(5, 6))
    cusp = collapse.snapshot_after.component("c1").fiber("a1")
    assert str(cusp.ftype) == "II"
    assert cusp.state == FiberState.WEIERSTRASS
    assert cusp.coeff == F(5, 6)
    assert cusp.nonminimal_cusp

    # final model: irreducible, the residual pair tracked at weight 2/3
    final = trace.final
    assert final.weights == target
    assert len(final.elliptic) == 1 and not final.trees and not final.glues
    assert final.component("c1").fiber("a1").coeff == F(2, 3)
    assert validate(final) == []
    # after the collapse the log canonical volume is 17 + 4 alpha, at the
    # target's alpha = 1/3 and at others on or below the collapse wall at 5/12
    assert volume(final) == 17 + 4 * F(1, 3)
    for alpha in (F(5, 12), F(2, 5), F(3, 8), F(7, 20), F(103, 300)):
        low = reduce(rational_degeneration(F(1)), weights(*([1] * 10 + [alpha, alpha])))
        assert volume(low.final) == 17 + 4 * alpha

    # base curves commute with the weighted-curve reduction at every stage
    original = base_curve(X)
    for rec in trace.records:
        assert base_curve(rec.snapshot_after) == hassett_reduce(
            original, rec.snapshot_after.weights
        )
    assert base_curve(final) == hassett_reduce(original, target)
    assert len(base_curve(final).vertices) == 1


def test_reduce_noop_on_equal_weights():
    X = rational_degeneration(F(9, 20))
    trace = reduce(X, X.weights)
    assert trace.records == ()
    assert trace.final == X


def test_reduce_same_chamber_is_trivial():
    X = rational_degeneration(F(1))
    t1 = weights(*([1] * 10 + [F(11, 20), F(11, 20)]))
    t2 = weights(*([1] * 10 + [F(3, 5), F(3, 5)]))
    walls = enumerate_walls(12, [parse_fiber_type("I1")] * 12)
    assert locate(t1, walls) == locate(t2, walls)
    r1, r2 = reduce(X, t1), reduce(X, t2)
    assert r1.records == () and r2.records == ()
    assert at_weights(r1.final, r2.final.weights) == r2.final
    assert at_weights(r2.final, r1.final.weights) == r1.final


def test_reduce_rejects_bad_targets_and_models():
    X = rational_degeneration(F(1))
    with pytest.raises(InconsistentTarget):
        reduce(X, weights(*([1] * 11)))
    with pytest.raises(InconsistentTarget):
        reduce(rational_degeneration(F(1, 3)), weights(*([1] * 10 + [F(1, 2), F(1, 2)])))
    bad = X._replace(
        components=tuple(
            c._replace(degL=F(-1)) if c.cid == "c1" else c for c in X.components
        ),
    )
    with pytest.raises(InvalidModel):
        reduce(bad, weights(*([1] * 10 + [F(1, 3), F(1, 3)])))
    # the target is checked against the start before the model is validated
    low = rational_degeneration(F(1, 3))
    low_bad = low._replace(components=(low.components[0]._replace(degL=F(-1)),) + low.components[1:])
    assert validate(low_bad)
    with pytest.raises(InconsistentTarget, match=r"^target must be entrywise <= the current weights$"):
        reduce(low_bad, weights(*([1] * 10 + [F(1, 3), F(1, 2)])))
    with pytest.raises(InconsistentTarget, match=r"^target has 11 entries; the model has 12 markers$"):
        reduce(low_bad, weights(*([1] * 11)))


def test_marked_twisted_fiber_steps_down_through_intermediate():
    w = weights(1, 1, 1, 1)
    fibers = tuple(mk_fiber(f"f{i}", "I1", i, w) for i in (1, 2, 3)) + (
        mk_fiber("f4", "II", 4, w),
    )
    comp = Component("c1", 1, 0, F(1), fibers)
    X = BrokenEllipticSurface(w, (comp,))
    assert X.component("c1").fiber("f4").state == FiberState.TWISTED
    trace = reduce(X, weights(1, 1, 1, F(1, 3)))
    kinds = [r.kind for r in trace.records]
    assert kinds == [RecordKind.FIBER_TO_INTERMEDIATE, RecordKind.FIBER_TO_WEIERSTRASS]
    blowup, contraction = trace.records
    assert blowup.t == 1
    assert blowup.wall.boundary
    # the Weierstrass contraction happens exactly at the threshold 5/6
    assert interpolate(trace.target_weights, X.weights, contraction.t).weight(4) == F(5, 6)
    assert trace.final.component("c1").fiber("f4").state == FiberState.WEIERSTRASS
    for rec in trace.records:
        assert validate(rec.snapshot_after) == []


def test_type_ii_formation_at_zero_boundary():
    w = weights(1, 1, F(1, 2), 1, 1)
    c1 = Component("c1", 1, 0, F(1), tuple(mk_fiber(f"f{i}", "I1", i, w) for i in (1, 2)))
    c2 = Component("c2", 2, 0, F(1), (mk_fiber("f3", "I1", 3, w),))
    c3 = Component("c3", 3, 0, F(1), tuple(mk_fiber(f"f{i}", "I1", i, w) for i in (4, 5)))
    glues = (
        Glue("g1", AttachEnd("c1", "a1", parse_fiber_type("II")), AttachEnd("c2", "b1", parse_fiber_type("III"))),
        Glue("g2", AttachEnd("c2", "b2", parse_fiber_type("IV")), AttachEnd("c3", "a3", parse_fiber_type("I*0"))),
    )
    X = BrokenEllipticSurface(w, (c1, c3), glues)
    X = BrokenEllipticSurface(X.weights, X.components + (c2,), X.glues)
    assert validate(X) == []
    target = weights(1, 1, 0, 1, 1)
    trace = reduce(X, target)
    assert [r.kind for r in trace.records] == [RecordKind.TYPE_II_PSEUDO_FORMATION]
    rec = trace.records[0]
    assert rec.t == 0 and rec.wall.boundary and rec.wall.constant == 0
    final = trace.final
    assert [c.cid for c in final.pseudo2] == ["c2"]
    assert validate(final) == []
    curve = base_curve(final)
    assert [v.vid for v in curve.vertices] == [1, 3]
    assert curve.edges == ((1, 3),)
    assert base_curve(final) == hassett_reduce(base_curve(X), target)


def test_whole_section_contraction_at_sum_two():
    w = weights(1, 1, 1)
    comp = Component("c1", 1, 0, F(1), tuple(mk_fiber(f"f{i}", "I1", i, w) for i in (1, 2, 3)))
    X = BrokenEllipticSurface(w, (comp,))
    target = weights(F(1, 2), F(1, 2), F(1, 2))
    trace = reduce(X, target)
    assert [r.kind for r in trace.records] == [RecordKind.WHOLE_SECTION_CONTRACTION]
    rec = trace.records[0]
    at_wall = interpolate(target, X.weights, rec.t)
    assert sum(at_wall.entries, F(0)) == 2
    assert rec.wall.constant == 2 and not rec.wall.boundary
    final = trace.final
    assert not final.elliptic and len(final.pseudo2) == 1
    assert validate(final) == []
    assert len(base_curve(final).vertices) == 1


def test_broken_chain_cascade_folds_type_ii_into_tree():
    w = weights(1, 1, F(3, 4), F(3, 4))
    left = Component("a_left", 1, 0, F(1), tuple(mk_fiber(f"f{i}", "I1", i, w) for i in (1, 2)))
    right = Component("z_right", 3, 0, F(1), tuple(mk_fiber(f"f{i}", "I1", i, w) for i in (3, 4)))
    mid = Component("mid", 2, 0, F(1), (), has_section=False)
    glues = (
        Glue("g1", AttachEnd("a_left", "a1", parse_fiber_type("III*")), AttachEnd("mid", "b1", parse_fiber_type("II*"))),
        Glue("g2", AttachEnd("mid", "b2", parse_fiber_type("II")), AttachEnd("z_right", "a3", parse_fiber_type("IV*"))),
    )
    X = BrokenEllipticSurface(w, (left, mid, right), glues)
    assert validate(X) == []
    target = weights(1, 1, F(1, 3), F(1, 3))
    trace = reduce(X, target)
    kinds = [r.kind for r in trace.records]
    assert kinds == [RecordKind.LA_NAVE_FLIP, RecordKind.TREE_COLLAPSE_TO_POINT]
    flip = trace.records[0]
    assert flip.affected == ("z_right", "mid")
    snap = flip.snapshot_after
    assert not snap.pseudo2  # the chain middle was folded into the tree
    assert snap.trees[0].root.pid == "mid"
    assert [l.node.pid for l in snap.trees[0].root.children] == ["z_right"]
    host = snap.component("a_left").fiber("a1")
    assert str(host.ftype) == "III*" and host.markers == frozenset({3, 4})
    # the nested subtree hits its own type II threshold 5/6 before the outer
    # III* tree could reach 1/4, so the inner pseudoelliptic collapses first
    collapse = trace.records[1]
    at_wall = interpolate(target, X.weights, collapse.t)
    assert at_wall.weight(3) + at_wall.weight(4) == F(5, 6)
    assert collapse.affected == ("z_right",)
    final = trace.final
    assert validate(final) == []
    root = final.trees[0].root
    assert root.pid == "mid" and not root.children
    folded = root.fiber("b2")
    assert str(folded.ftype) == "II" and folded.state == FiberState.WEIERSTRASS
    assert folded.markers == frozenset({3, 4}) and folded.coeff == F(2, 3)
    # the outer tree still carries weight 2/3 > 1/4 and survives to the target
    outer = final.component("a_left").fiber("a1")
    assert outer.state == FiberState.INTERMEDIATE and outer.coeff == F(2, 3)
    original = base_curve(X)
    for rec in trace.records:
        assert base_curve(rec.snapshot_after) == hassett_reduce(original, rec.snapshot_after.weights)


def test_nested_tree_forms_when_host_leaf_contracts():
    w = weights(1, 1, 1, 1, 1)
    c1 = Component("c1", 1, 0, F(1), tuple(mk_fiber(f"f{i}", "I1", i, w) for i in (1, 2)))
    c2 = Component("c2", 2, 0, F(1), (mk_fiber("f3", "I1", 3, w),))
    c3 = Component("c3", 3, 0, F(1), tuple(mk_fiber(f"f{i}", "I1", i, w) for i in (4, 5)))
    glues = (
        Glue("g1", AttachEnd("c1", "a1", parse_fiber_type("III*")), AttachEnd("c2", "b1", parse_fiber_type("II*"))),
        Glue("g2", AttachEnd("c2", "b2", parse_fiber_type("II")), AttachEnd("c3", "a3", parse_fiber_type("IV*"))),
    )
    X = BrokenEllipticSurface(w, (c1, c2, c3), glues)
    assert validate(X) == []
    target = weights(1, 1, F(1, 12), F(11, 24), F(11, 24))
    trace = reduce(X, target)
    kinds = [r.kind for r in trace.records]
    assert kinds == [RecordKind.LA_NAVE_FLIP, RecordKind.LA_NAVE_FLIP]
    final = trace.final
    assert validate(final) == []
    att = final.trees[0]
    assert att.host_component == "c1" and att.root.pid == "c2"
    assert [l.node.pid for l in att.root.children] == ["c3"]
    # eq. (4.1) at both levels: outer host carries 3+4+5, inner host 4+5
    outer = final.component("c1").fiber("a1")
    assert outer.markers == frozenset({3, 4, 5}) and outer.coeff == F(1)
    inner = att.root.fiber("b2")
    assert inner.markers == frozenset({4, 5}) and inner.coeff == F(11, 12)
    assert base_curve(final) == hassett_reduce(base_curve(X), target)


def two_tree_model():
    """c1 hosts the nested tree c2 > c3 on a1 and the tree c4 on a2."""
    w = weights(1, 1, F(1, 2), F(1, 4), F(1, 4), F(1, 2), F(1, 2))

    def host(fid, ftype, markers):
        ftype = parse_fiber_type(ftype)
        return MarkedFiber(fid, ftype, w.sum(markers), FiberState.INTERMEDIATE, frozenset(markers))

    def node(pid, attach, fibers, children=()):
        return PseudoComponent(pid, F(1), parse_fiber_type(attach), fibers, children)

    inner = node("c3", "IV", (mk_fiber("f4", "I1", 4, w), mk_fiber("f5", "I1", 5, w)))
    outer_fibers = (mk_fiber("f3", "I1", 3, w), host("b2", "IV*", {4, 5}))
    outer = node("c2", "II*", outer_fibers, (ChildLink("b2", inner),))
    other = node("c4", "II*", (mk_fiber("f6", "I1", 6, w), mk_fiber("f7", "I1", 7, w)))
    fibers = (mk_fiber("f1", "I1", 1, w), mk_fiber("f2", "I1", 2, w))
    fibers += (host("a1", "II", {3, 4, 5}), host("a2", "II", {6, 7}))
    trees = (TreeAttachment("c1", "a1", outer), TreeAttachment("c1", "a2", other))
    return BrokenEllipticSurface(w, (Component("c1", 1, 0, F(1), fibers),), (), trees)


@pytest.mark.parametrize(
    "target, collapsed",
    [
        # the nested c3 collapses first, then its host tree c2
        ((1, 1, F(1, 2), F(1, 12), F(1, 12), F(1, 2), F(1, 2)), [("c3",), ("c2",)]),
        # the whole tree c2 > c3 collapses at once
        ((1, 1, F(1, 12), F(1, 4), F(1, 4), F(1, 2), F(1, 2)), [("c2", "c3")]),
    ],
)
def test_a_collapse_reuses_the_trees_it_does_not_touch(target, collapsed):
    X = two_tree_model()
    assert validate(X) == []
    untouched = X.tree("c4")
    trace = reduce(X, weights(*target))
    assert [r.kind for r in trace.records] == [RecordKind.TREE_COLLAPSE_TO_POINT] * len(collapsed)
    assert [r.affected for r in trace.records] == collapsed
    for rec in trace.records:
        # c4's markers never move, so no record rebuilds its attachment
        assert rec.snapshot_after.tree("c4") is untouched
    first = trace.records[0].snapshot_after
    if collapsed[0] == ("c3",):
        root = first.tree("c2").root
        assert root.children == () and root.fiber("b2").state == FiberState.WEIERSTRASS
    else:
        assert [t.root.pid for t in first.trees] == ["c4"]
    assert validate(trace.final) == []


@pytest.mark.xfail(
    strict=True,
    raises=RuleNotApplicable,
    reason="a leaf glued along a stable fiber (I2 ~ I2) has no flip: the peer's"
    " attaching fiber admits no intermediate model to host the tree",
)
def test_leaf_glued_along_a_stable_fiber_walks_to_a_valid_final():
    # `validate` accepts the model; the walk fails when the leaf c1 flips
    X = parse_model((Path(__file__).parent / "data" / "stable_gluing.json").read_text())
    trace = reduce(X, weights(F(1, 8), F(1, 8), F(3, 4), F(3, 4)))
    assert trace.halted is None
    assert validate(trace.final) == []


def test_cross_wall_fiber_transitions():
    w = weights(1, 1, 1, F(3, 4))
    fibers = tuple(mk_fiber(f"f{i}", "I1", i, w) for i in (1, 2, 3)) + (
        mk_fiber("f4", "III", 4, w),
    )
    comp = Component("c1", 1, 0, F(1), fibers)
    X = BrokenEllipticSurface(w, (comp,))
    assert X.component("c1").fiber("f4").state == FiberState.WEIERSTRASS
    wall = Wall(WallKind.WI, frozenset({4}), F(3, 4))
    with pytest.raises(RuleNotApplicable):
        cross_wall(X, wall)  # already Weierstrass at the boundary
    inter = X._replace(
        components=(
            comp._replace(
                fibers=tuple(
                    f._replace(state=FiberState.INTERMEDIATE) if f.fid == "f4" else f
                    for f in comp.fibers
                ),
            ),
        ),
    )
    Y, rec = cross_wall(inter, wall)
    assert rec.kind == RecordKind.FIBER_TO_WEIERSTRASS
    assert Y.component("c1").fiber("f4").state == FiberState.WEIERSTRASS
    off = Wall(WallKind.WI, frozenset({4}), F(2, 3))
    with pytest.raises(WallNotSatisfied):
        cross_wall(inter, off)


def test_cross_wall_flip_matches_reduce():
    X = rational_degeneration(F(1, 2))
    wall = Wall(WallKind.WII, frozenset({11, 12}), F(1))
    Y, rec = cross_wall(X, wall)
    assert rec.kind == RecordKind.LA_NAVE_FLIP
    flipped = flipped_degeneration(F(1, 2))
    assert at_weights(Y, flipped.weights) == flipped
    assert at_weights(flipped, Y.weights) == Y


def test_a_flip_removes_only_its_own_glue_when_glue_ids_repeat():
    # `validate` and the reader refuse a repeated glue id, but `cross_wall`
    # reads unchecked models: leaf c1's flip drops its own glue and keeps c2 ~ c3
    X, target = chain_cascade(random.Random(1), 3, 1)
    renamed = X._replace(glues=tuple(g._replace(gid="g") for g in X.glues))
    assert [(v.code, v.where, v.detail) for v in validate(renamed)] == [("glue", "g", "glue id used twice")]
    with pytest.raises(ModelJSONError, match="glue id used twice"):
        parse_model(serialize_model(renamed))
    flip = reduce(X, target).records[0]
    assert flip.kind == RecordKind.LA_NAVE_FLIP
    Y, _ = cross_wall(at_weights(X, flip.snapshot_after.weights), flip.wall)
    assert Y == flip.snapshot_after and validate(Y) == []
    Z, _ = cross_wall(at_weights(renamed, Y.weights), flip.wall)
    assert Z == Y._replace(glues=(Y.glues[0]._replace(gid="g"),)) and validate(Z) == []


def test_manual_crossings_compose_to_the_engine_walk():
    # replay the walk by hand: move onto each wall, apply the single crossing,
    # and compare against the engine's snapshots
    from mmp_elliptic.reduction import at_weights

    X = rational_degeneration(F(1))
    target = weights(*([1] * 10 + [F(1, 3), F(1, 3)]))
    trace = reduce(X, target)

    on_flip_wall = at_weights(X, weights(*([1] * 10 + [F(1, 2), F(1, 2)])))
    stepped, rec1 = cross_wall(on_flip_wall, Wall(WallKind.WII, frozenset({11, 12}), F(1)))
    assert stepped == trace.records[0].snapshot_after

    on_collapse_wall = at_weights(stepped, weights(*([1] * 10 + [F(5, 12), F(5, 12)])))
    stepped2, rec2 = cross_wall(
        on_collapse_wall, Wall(WallKind.WIII, frozenset({11, 12}), F(5, 6))
    )
    assert stepped2 == trace.records[1].snapshot_after
    assert at_weights(stepped2, target) == trace.final


def test_cross_wall_collapse():
    X = flipped_degeneration(F(5, 12))
    # the flipped fixture at alpha = 5/12 sits exactly on the WIII wall
    wall = Wall(WallKind.WIII, frozenset({11, 12}), F(5, 6))
    Y, rec = cross_wall(X, wall)
    assert rec.kind == RecordKind.TREE_COLLAPSE_TO_POINT
    assert not Y.trees
    assert Y.component("c1").fiber("a1").coeff == F(5, 6)


def test_cross_wall_acts_only_on_a_wall_the_model_feels():
    # c3 keeps an unmarked twisted fiber of coefficient one after a collapse
    # onto a curve, so its section degree is -2 + 1 + 1 + a4 + a5: it feels
    # the WII wall a4 + a5 = 0, and at a4 = a5 = 1/2 its degree is still one
    Y = parse_model((Path(__file__).parent / "data" / "markerless_twisted_after_curve_collapse.json").read_text())
    markers = frozenset({4, 5})

    def on(a):
        entries = list(Y.weights.entries)
        entries[3] = entries[4] = a
        return at_weights(Y, WeightVector(tuple(entries)))

    at_half = on(F(1, 2))
    with pytest.raises(RuleNotApplicable, match=r"^the model does not feel WII: a4 \+ a5 = 1$"):
        cross_wall(at_half, Wall(WallKind.WII, markers, F(1)))
    Z, rec = cross_wall(on(F(0)), Wall(WallKind.WII, markers, F(0)))
    assert (rec.kind, rec.affected) == (RecordKind.LA_NAVE_FLIP, ("c3",))
    assert rec.wall == Wall(WallKind.WII, markers, F(0), boundary=True)
    assert [t.root.pid for t in Z.trees] == ["c3"]
    # a WI wall off its fiber's threshold is refused the same way: c3m2 is
    # III* (threshold 3/4), and a5 = 1/2 lies on a5 = 1/2, not on 3/4
    with pytest.raises(RuleNotApplicable, match=r"^the model does not feel WI: a5 = 1/2$"):
        cross_wall(at_half, Wall(WallKind.WI, frozenset({5}), F(1, 2)))


def test_markerless_twisted_fiber_counts_its_coefficient_one():
    # genus 0, degL 1, an unmarked twisted II fiber and two I1 fibers at 3/4:
    # the section degree is -2 + 1 + 3/4 + 3/4 = 1/2, and lowering one weight
    # to 2/3 keeps it positive, so no section contracts on the way
    w = weights(F(3, 4), F(3, 4))
    twisted = MarkedFiber("t", parse_fiber_type("II"), F(1), FiberState.TWISTED)
    fibers = (twisted, mk_fiber("f1", "I1", 1, w), mk_fiber("f2", "I1", 2, w))
    X = BrokenEllipticSurface(w, (Component("c1", 1, 0, F(1), fibers),))
    assert validate(X) == []
    assert section_degree(X, "c1") == F(1, 2)
    target = weights(F(3, 4), F(2, 3))
    trace = reduce(X, target)
    assert trace.records == () and trace.halted is None
    assert trace.final.weights == target and trace.final.elliptic
    walls = enumerate_walls(2, [parse_fiber_type("I1")] * 2, rational_base=True)
    # the section degree vanishes on a1 + a2 = 1, not on the sum-two wall
    felt = [fw.wall for fw in felt_walls(X) if fw.wall.kind == WallKind.WII]
    assert felt == [Wall(WallKind.WII, frozenset({1, 2}), F(1))] and felt[0] in walls


def last_record_per_time(records):
    """Commutativity with the curve reduction holds once a whole time-step's
    batch has been applied, i.e. after the last record at each crossing time."""
    out = {}
    for rec in records:
        out[rec.t] = rec
    return out.values()


def _tree_nodes(X):
    return sum(len(att.root.nodes()) for att in X.trees)


def _marked_indices(X):
    out = set()
    hosts = X.host_keys()
    for owner, fibers in X.fiber_owners():
        for f in fibers:
            if (owner, f.fid) not in hosts:
                out |= f.markers
    return out


def test_fuzz_traces_are_valid_and_commute():
    rng = random.Random(99)
    kinds_seen = set()
    for _ in range(120):
        X = random_model(rng, max_components=3, max_markers=6)
        target = admissible_target(rng, X)
        if target is None:
            continue
        trace = reduce(X, target)
        original = base_curve(X)
        markers_before = _marked_indices(X)
        prev = X
        for rec in trace.records:
            kinds_seen.add(rec.kind)
            assert rec.kind in RecordKind
            assert validate(rec.snapshot_after) == []
            # trees only grow through flips and only shrink through collapses,
            # and no marker ever disappears from the marked locus
            delta = _tree_nodes(rec.snapshot_after) - _tree_nodes(prev)
            if rec.kind == RecordKind.LA_NAVE_FLIP:
                assert delta >= 1
            elif rec.kind == RecordKind.TREE_COLLAPSE_TO_POINT:
                assert delta <= -1
            else:
                assert delta == 0
            assert _marked_indices(rec.snapshot_after) == markers_before
            prev = rec.snapshot_after
        for rec in last_record_per_time(trace.records):
            assert base_curve(rec.snapshot_after) == hassett_reduce(
                original, rec.snapshot_after.weights
            )
        if trace.halted is None:
            assert trace.final.weights == target
            assert validate(trace.final) == []
            assert base_curve(trace.final) == hassett_reduce(original, target)
    assert RecordKind.LA_NAVE_FLIP in kinds_seen
    assert RecordKind.TREE_COLLAPSE_TO_POINT in kinds_seen


def test_factorization_through_intermediate_weights():
    rng = random.Random(41)
    checked = 0
    for _ in range(40):
        X = random_model(rng, max_components=3, max_markers=6)
        A = random_target(rng, X.weights)
        M = WeightVector(
            tuple((a + b) / 2 for a, b in zip(A.entries, X.weights.entries))
        )
        via_mid = reduce(X, M)
        if via_mid.halted is not None:
            continue
        two_step = reduce(via_mid.final, A)
        direct = reduce(X, A)
        if two_step.halted is not None or direct.halted is not None:
            continue
        assert two_step.final == direct.final
        checked += 1
    assert checked >= 30


def test_isotrivial_tree_collapse_to_curve_halts():
    X = flipped_degeneration(F(9, 20))
    att = X.trees[0]
    iso_root = att.root._replace(isotrivial_jinf=True, degL=F(0))
    X = X._replace(trees=(att._replace(root=iso_root),))
    assert validate(X) == []
    target = weights(*([1] * 10 + [F(1, 6), F(1, 6)]))
    trace = reduce(X, target)
    assert trace.halted is not None
    assert trace.records[-1].kind == RecordKind.TREE_COLLAPSE_TO_CURVE
    assert "manual review" in trace.records[-1].note
    final = trace.final
    assert validate(final) == []
    # the host fiber survives as an unmarked twisted fiber of coefficient one
    host = final.component("c1").fiber("a1")
    assert host.state == FiberState.TWISTED and host.coeff == 1 and not host.markers
    # the walk stopped at the wall, not at the target
    assert final.weights.weight(11) == F(5, 12)


def test_cross_wall_boundary_wall_at_one_both_ways():
    # a III fiber at weight one is twisted; the boundary wall a4 = 1 blows it
    # up to its intermediate model, and refuses it once it is intermediate
    w = weights(1, 1, 1, 1)
    fibers = tuple(mk_fiber(f"f{i}", "I1", i, w) for i in (1, 2, 3)) + (
        mk_fiber("f4", "III", 4, w),
    )
    X = BrokenEllipticSurface(w, (Component("c1", 1, 0, F(1), fibers),))
    assert X.component("c1").fiber("f4").state == FiberState.TWISTED
    wall = Wall(WallKind.WI, frozenset({4}), F(1), boundary=True)
    Y, rec = cross_wall(X, wall)
    assert rec.kind == RecordKind.FIBER_TO_INTERMEDIATE
    assert (rec.t, rec.wall, rec.affected) == (F(1), wall, ("c1", "f4"))
    assert Y.component("c1").fiber("f4").state == FiberState.INTERMEDIATE
    assert validate(Y) == []
    with pytest.raises(RuleNotApplicable, match="not twisted"):
        cross_wall(Y, wall)


def test_walk_snapshots_are_settled_at_their_weights():
    # a batch settles the fibers once, before its flips and collapses; that
    # is sound only if every snapshot is a fixed point of `at_weights`
    rng = random.Random(61)
    walks = halted = 0
    while walks < 300:
        X = random_model(rng, max_components=5, max_markers=12, allow_isotrivial=True)
        A = admissible_target(rng, X)
        if A is None:
            continue
        trace = reduce(X, A)
        walks += 1
        models = [rec.snapshot_after for rec in trace.records]
        if trace.halted is None:
            models.append(trace.final)
        else:
            halted += 1
        for s in models:
            assert at_weights(s, s.weights) == s
    assert halted > 0


def test_every_record_lies_on_its_wall():
    # each record's time is its wall's crossing: the segment's weights at t
    # put the record's marker sum exactly on the wall's constant
    rng = random.Random(67)
    walks = records = 0
    while walks < 400:
        X = random_model(rng, max_components=5, max_markers=12, allow_isotrivial=True)
        A = admissible_target(rng, X)
        if A is None:
            continue
        trace = reduce(X, A)
        walks += 1
        for rec in trace.records:
            assert rec.wall.side(interpolate(A, X.weights, rec.t)) == "on", (rec.kind, rec.t)
            records += 1
    assert records >= 1000


def _bench_inputs():
    """The benchmark's own input generator, `bench/inputs.py`, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _chain(n, seed=1):
    case = _bench_inputs().chain_case(random.Random(seed), n, k=3)
    return parse_model(json.dumps(case.model)), WeightVector(case.target)


def _golden_walks():
    """(start, target) of each walk in `REWRITE_WALKS`."""
    return [
        (parse_model((GOLDEN / f"{name}.json").read_text()), WeightVector(tuple(F(w) for w in to.split(","))))
        for name, to in REWRITE_WALKS.items()
    ]


def test_snapshot_base_curves_from_stored_parts_match_the_stepwise_oracle():
    # the start's base-curve parts are stored before the walk, so each
    # snapshot reuses those of the components its records kept and builds
    # the rest; every snapshot's base curve equals the oracle's, which reads
    # the components afresh
    rng = random.Random(19)
    starts = [_chain(40, seed) for seed in (1, 2, 3)]
    starts += [(X, random_target(rng, X.weights)) for X in (random_model(rng, allow_isotrivial=i % 2 == 1) for i in range(40))]
    reused = built = 0
    for X, target in starts:
        base_curve(X)
        assert all("_base_part" in c.__dict__ for c in X.components)
        stored = {id(c) for c in X.components}
        trace = reduce(X, target)
        for Y in [rec.snapshot_after for rec in trace.records] + [trace.final]:
            kept = sum(id(c) in stored for c in Y.components)
            reused += kept
            built += len(Y.components) - kept
            assert base_curve(Y) == base_curve_by_step(Y)
            stored |= {id(c) for c in Y.components}
    assert reused > 2 * built > 0


def _kept(table):
    """Each component id's row as a multiset of its walls and their sites."""
    return {
        cid: Counter(
            (num, den, fw.wall, fw.owner, fw.fid, fw.depth, fw.node and fw.node.pid)
            for num, den, fw in row
        )
        for cid, row in table.items()
    }


def test_kept_table_equals_a_fresh_build_after_every_batch(monkeypatch):
    # the walk builds its felt-wall table once and replaces only the rows a
    # record touched; after every batch that table must equal the one built
    # from scratch on the batch's model
    apply = reduction._apply_batch
    batches = []

    def checked(X, segment, table, t, records):
        current, halted = apply(X, segment, table, t, records)
        assert _kept(table) == _kept(segment.table(current)), (t, records[-1:])
        batches.append(t)
        return current, halted

    monkeypatch.setattr(reduction, "_apply_batch", checked)
    rng = random.Random(61)
    walks = 0
    while walks < 300:
        X = random_model(rng, max_components=5, max_markers=12, allow_isotrivial=True)
        A = admissible_target(rng, X)
        if A is None:
            continue
        reduce(X, A)
        walks += 1
    for n in (40, 160):
        reduce(*_chain(n))
    # one walk per section contraction and tree collapse: a cascading flip,
    # a type II formation, a whole-section contraction, nested collapses and
    # a collapse onto a curve
    for name, to in REWRITE_WALKS.items():
        X = parse_model((GOLDEN / f"{name}.json").read_text())
        reduce(X, WeightVector(tuple(F(w) for w in to.split(","))))
    assert len(batches) > 600


def test_a_chain_walk_builds_its_table_once(monkeypatch):
    # the walk builds no whole-model table: its start table holds the rows of
    # the components that carry a moving marker, c1, c2 and c3, whose six
    # markers the target lowers, whatever the length of the chain; each WII
    # or WIII record then rebuilds one component's row, of the same size at
    # both lengths.  `felt_walls` builds the whole-model table, so the walk
    # must never call it
    builds = []
    rows = []
    starts = []

    def counted(fn, log, size):
        def wrapper(*args):
            out = fn(*args)
            log.append(size(out))
            return out

        return wrapper

    monkeypatch.setattr(reduction, "felt_walls", counted(reduction.felt_walls, builds, len))
    monkeypatch.setattr(reduction, "felt_row", counted(reduction.felt_row, rows, len))
    table = reduction._Segment.table
    monkeypatch.setattr(reduction._Segment, "table", counted(table, starts, sorted))
    per_record = []
    for n in (40, 160):
        del builds[:], rows[:], starts[:]
        trace = reduce(*_chain(n))
        structural = [r for r in trace.records if r.wall.kind != WallKind.WI]
        assert builds == [] and starts == [["c1", "c2", "c3"]]
        assert len(rows) == 3 + len(structural) and len(structural) == 6
        per_record.append(list(rows))
    assert per_record[0] == per_record[1]


def test_a_trace_keeps_no_part_of_the_walk(monkeypatch):
    # a snapshot's weights keep their lift and texts as plain memos, so once
    # `reduce` returns, its segment (and the glue-end index it holds) is
    # gone while the trace it gave lives on
    segments = []
    init = reduction._Segment.__init__

    def kept(self, *args):
        init(self, *args)
        segments.append(weakref.ref(self))

    monkeypatch.setattr(reduction._Segment, "__init__", kept)
    trace = reduce(*_chain(40))
    gc.collect()
    assert len(segments) == 1 and segments[0]() is None
    assert len(trace.records) > 1
    assert all(rec.snapshot_after.weights.__dict__.keys() <= {"_lift", "_texts"} for rec in trace.records)


def test_the_hassett_check_reads_the_lift_each_snapshot_keeps(monkeypatch):
    # `reduce --check-hassett` reduces the start's base curve at each time
    # step's `base_weights`.  A chain has no marker-less fiber, so those are
    # the snapshot's own weights, whose lift the walk derives from its
    # segment: the check lifts no vector from its entries
    X, target = _chain(40)
    trace = reduce(X, target)
    start = base_curve(X)
    per_step = {rec.t: rec.snapshot_after for rec in trace.records}
    lifted = []
    lift = curves._vector_lift

    def counted(v):
        lifted.append(v)
        return lift(v)

    monkeypatch.setattr(curves, "_vector_lift", counted)
    for Y in per_step.values():
        assert base_weights(Y) is Y.weights
        assert base_curve(Y) == hassett_reduce(start, base_weights(Y))
    assert lifted == [] and len(per_step) > 1


def test_reach_solves_each_crossing_time_exactly():
    # each wall is scaled by its constant's denominator, so a constant off
    # the grid of `_DEN` and of the weights gets its exact time: a reached
    # wall's num / den is the `Fraction` solve of s(t) = c, it is due at t
    # exactly when s(t) <= c, and a wall is left out exactly when it stays
    # above its constant (c < s(0)); a wall over fixed markers has den = 0
    rng = random.Random(43)
    constants = [F(5, 7), F(7, 11), F(-3)]
    solved = 0
    for _ in range(300):
        r = rng.randint(1, 6)
        B = [F(rng.randint(0, d), d) for d in (rng.choice((5, 9, 13, 24)) for _ in range(r))]
        A = [b * F(rng.randint(0, 4), 4) if rng.random() < 0.7 else b for b in B]
        segment = reduction._Segment(WeightVector(A), WeightVector(B))
        assert segment.D % _DEN == 0
        rows = [
            FeltWall(Wall(WallKind.WII, frozenset(rng.sample(range(1, r + 1), rng.randint(1, r))), c), "c1")
            for c in constants
            for _ in range(3)
        ]
        want = []
        for fw in rows:
            c, subset = fw.wall.constant, fw.wall.subset
            low, high = sum(A[i - 1] for i in subset), sum(B[i - 1] for i in subset)
            if c >= low:
                want.append((fw, (c - low) / (high - low) if high != low else None))
        got = segment.reach(rows)
        assert [(fw, F(num, den) if den else None) for num, den, fw in got] == want
        t = F(rng.randint(0, 12), 12)
        for num, den, fw in got:
            subset = fw.wall.subset
            s = sum((1 - t) * A[i - 1] + t * B[i - 1] for i in subset)
            assert (t * den <= num) == (s <= fw.wall.constant)
        solved += sum(den > 0 for _, den, _ in got)
    assert solved > 100

    # a walk's segment is over the one integer form of its ends, and the
    # lift each snapshot's weights are made with is over a multiple of it
    rng = random.Random(47)
    walks = read = 0
    while walks < 40:
        X = random_model(rng, max_components=5, max_markers=12)
        target = admissible_target(rng, X)
        if target is None:
            continue
        walks += 1
        segment = reduction._Segment(target, X.weights)
        assert segment.D == _integers(target, X.weights)[0] and segment.D % _DEN == 0
        trace = reduce(X, target)
        for Y in [rec.snapshot_after for rec in trace.records] + [trace.final]:
            if Y.weights is not X.weights:
                assert Y.weights.__dict__["_lift"][0] % segment.D == 0
                read += 1
    assert read > 40


def test_a_fixed_component_already_due_fires_in_the_first_batch():
    # only markers 2 and 3, on c2, move.  The leaf c1's section degree is
    # already negative and the tree p1 on c3 already sits at its host's
    # threshold, so both walls are due on the whole segment though neither
    # component carries a moving marker: the start table holds their rows,
    # and the first batch flips c1 (its tree then collapses at once) and
    # collapses p1.  `test_golden` pins the whole trace
    X = parse_model((GOLDEN / "fixed_due.json").read_text())
    target = WeightVector(tuple(F(w) for w in REWRITE_WALKS["fixed_due"].split(",")))
    assert validate(X) == [] and section_degree(X, "c1") == F(-1, 2)
    assert X.weights.sum(X.tree("p1").root.fiber("f4").markers) == lct_threshold(parse_fiber_type("II"))
    segment = reduction._Segment(target, X.weights)
    assert segment.moving == {2, 3} and sorted(segment.table(X)) == ["c1", "c2", "c3"]
    trace = reduce(X, target)
    collapse = RecordKind.TREE_COLLAPSE_TO_POINT
    assert [(rec.t, rec.kind, rec.affected) for rec in trace.records] == [
        (1, RecordKind.LA_NAVE_FLIP, ("c1",)),
        (1, collapse, ("c1",)),
        (1, collapse, ("p1",)),
    ]
    assert trace.halted is None and validate(trace.final) == []


def test_the_start_table_leaves_out_only_walls_the_walk_never_crosses():
    # the start table is decided without building the rows it leaves out, so
    # check it against the whole-model rows: every component with a moving
    # marker, and every other one whose reachable walls include a WII or WIII
    # wall (with no moving marker, a reachable wall is a due one).  The
    # starts are the valid snapshots of random walks, with each marker held
    # fixed or lowered at random; a record that leaves a wall due for the
    # next one gives the fixed due components.  The fibers a batch settles
    # are found on the table's components and their trees: the same as a
    # scan of every owner
    rng = random.Random(37)
    fixed_due = Counter()
    walks = 0
    while walks < 200:
        X = random_model(rng, max_components=5, max_markers=12, allow_isotrivial=True)
        A = admissible_target(rng, X)
        if A is None:
            continue
        walks += 1
        for Y in [X] + [rec.snapshot_after for rec in reduce(X, A).records]:
            if validate(Y):
                continue
            lowered = (F(rng.randint(0, int(12 * w)), 12) if rng.random() < 0.5 else w for w in Y.weights.entries)
            segment = reduction._Segment(WeightVector(tuple(lowered)), Y.weights)
            moves = {c.cid for c in Y.components if c.marker_set & segment.moving}
            want = {}
            for c in Y.components:
                cid = c.cid
                reached = segment.reach(felt_row(c, len(Y.glue_ends(cid)), Y.trees_on(cid)))
                due = {fw.wall.kind for _, _, fw in reached} - {WallKind.WI}
                if cid in moves or due:
                    want[cid] = reached
                if cid not in moves:
                    fixed_due.update(due)
            table = segment.table(Y)
            assert _kept(table) == _kept(want)
            fibers, hosts = segment.fibers(Y, table)
            keys = {(owner, f.fid) for owner, f in fibers}
            moving = [(owner, f) for owner, fs in Y.fiber_owners() for f in fs if f.markers & segment.moving]
            assert fibers == moving and keys & hosts == keys & Y.host_keys()
    assert min(fixed_due[WallKind.WII], fixed_due[WallKind.WIII]) > 0, fixed_due


def test_table_update_builds_no_lookup(monkeypatch):
    # a record rewrites one component, so the table update reads the new
    # model's parts directly: around every update, no model of the walk, the
    # input of each rewrite included, gains a cached lookup, of glue ends or
    # of subtree levels.  Nor does the walk build the glue-end lookup on any
    # model after its start: not a section contraction, not a flip cascade's
    # models in between, not a batch's settling
    lookups = ("_ends", "_subtrees")
    seen = []

    def remember(fn):
        def wrapper(X, *args, **kwargs):
            seen.append(X)
            out = fn(X, *args, **kwargs)
            seen.append(out[0])
            return out

        return wrapper

    update = reduction._Segment.update
    calls = []

    def checked(self, table, Y, site, gone):
        models = seen + [Y]
        before = [[k for k in lookups if k in m.__dict__] for m in models]
        update(self, table, Y, site, gone)
        assert [[k for k in lookups if k in m.__dict__] for m in models] == before, site
        calls.append(site)

    for name in ("_apply_section_contraction", "_collapse_subtree", "_hang_off_peer", "_settle"):
        monkeypatch.setattr(reduction, name, remember(getattr(reduction, name)))
    monkeypatch.setattr(reduction._Segment, "update", checked)
    starts = [parse_model((GOLDEN / f"{name}.json").read_text()) for name in REWRITE_WALKS]
    targets = [WeightVector(tuple(F(w) for w in to.split(","))) for to in REWRITE_WALKS.values()]
    chain = _chain(40)
    hung = 0
    for X, target in [*zip(starts, targets), chain]:
        del seen[:]
        trace = reduce(X, target)
        later = [Y for Y in seen + [rec.snapshot_after for rec in trace.records] if Y is not X]
        assert not [Y for Y in later if "_ends" in Y.__dict__]
        hung += sum(len(rec.affected) > 1 for rec in trace.records if rec.kind == RecordKind.LA_NAVE_FLIP)
    assert len(calls) >= len(REWRITE_WALKS) + 6 and hung > 0


def test_at_weights_refuses_to_lift_a_tree_host_above_one(monkeypatch):
    # the final model of the worked walk at 9/20 hangs the flipped leaf off
    # c1/a1, whose derived coefficient is the tree's two weights: at all
    # weights one it would be 2
    example = Path(__file__).resolve().parents[1] / "demos" / "data" / "rational_example.json"
    X = parse_model(example.read_text())
    final = reduce(X, weights(*([1] * 10 + [F(9, 20)] * 2))).final
    built = []
    new, make = MarkedFiber.__new__, MarkedFiber._make

    def spied_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def spied_make(cls, fields):  # `_replace` builds through `_make`
        built.append(fields)
        return make(fields)

    monkeypatch.setattr(MarkedFiber, "__new__", spied_new)
    monkeypatch.setattr(MarkedFiber, "_make", classmethod(spied_make))
    with pytest.raises(RuleNotApplicable, match=r"^fiber a1 of c1: coefficient 2 outside \[0, 1\]$"):
        at_weights(final, WeightVector((1,) * 12))
    assert built == []


def _checked(W):
    """Whether W holds `Fraction`s that the public constructor accepts as they are."""
    return all(type(w) is Fraction for w in W.entries) and WeightVector(W.entries) == W


def test_weights_built_without_a_recheck_pass_the_public_checks(monkeypatch):
    # `_Segment.weights_at`, `base_weights` and the reader build their
    # weights through `WeightVector._make`, which does not check
    stepped = []
    weights_at = reduction._Segment.weights_at
    monkeypatch.setattr(
        reduction._Segment, "weights_at", lambda self, t: stepped.append(weights_at(self, t)) or stepped[-1]
    )
    walks = [_chain(n, seed) for n, seed in ((40, 1), (100, 2), (160, 3))]
    deep = _bench_inputs().chain_case(random.Random(4), 60, k=12)  # 12 cascading flips
    walks.append((parse_model(json.dumps(deep.model)), WeightVector(deep.target)))
    rng = random.Random(71)
    while len(walks) < 204:
        X = random_model(rng, max_components=5, max_markers=12, allow_isotrivial=True)
        A = admissible_target(rng, X)
        if A is not None:
            walks.append((X, A))
    snapshots = 0
    for X, A in walks:
        trace = reduce(X, A)
        for s in [X] + [rec.snapshot_after for rec in trace.records] + [trace.final]:
            assert _checked(s.weights) and _checked(base_weights(s))
            assert _checked(parse_model(serialize_model(s), check=False).weights)
            snapshots += 1
    assert all(_checked(W) for W in stepped)
    assert len(stepped) > 500 and snapshots > 1000


def _assert_same(built, got, where="surface"):
    """`built == got`, part by part, with the same record type at every level."""
    assert type(got) is type(built), where
    if isinstance(got, tuple):
        assert len(got) == len(built), where
        names = getattr(got, "_fields", range(len(got)))
        for name, a, b in zip(names, built, got):
            _assert_same(a, b, f"{where}.{name}")
    else:
        assert got == built, where


def test_trusted_rewrites_equal_a_rebuild_through_the_public_constructors(monkeypatch):
    # the walk rebuilds its snapshots through `_replace`, which neither checks
    # nor sorts; each snapshot and final must equal the model the public
    # constructors build from the same parts, and so must each model a flip
    # step (`_hang_off_peer`, between the steps of a cascade too) or a
    # collapse returns
    steps = Counter()

    def checked(fn):
        def wrapper(X, *args):
            out = fn(X, *args)
            _assert_same(rebuilt(out[0]), out[0], fn.__name__)
            steps[fn.__name__] += 1
            return out

        return wrapper

    for name in ("_hang_off_peer", "_collapse_subtree"):
        monkeypatch.setattr(reduction, name, checked(getattr(reduction, name)))
    walks = [_chain(n, seed) for n, seed in ((40, 1), (100, 2), (160, 3))]
    deep = _bench_inputs().chain_case(random.Random(4), 60, k=12)  # 12 cascading flips
    walks.append((parse_model(json.dumps(deep.model)), WeightVector(deep.target)))
    walks += _golden_walks()  # a flip that folds a type II middle into its tree
    rng = random.Random(97)
    while len(walks) < 210:
        isotrivial = len(walks) % 2 == 1
        X = random_model(rng, max_components=5, max_markers=12, allow_isotrivial=isotrivial)
        A = admissible_target(rng, X)
        if A is not None:
            walks.append((X, A))
    kinds = Counter()
    for X, A in walks:
        trace = reduce(X, A)
        for s in [rec.snapshot_after for rec in trace.records] + [trace.final]:
            _assert_same(rebuilt(s), s)
        kinds.update(rec.kind for rec in trace.records)
    assert kinds[RecordKind.LA_NAVE_FLIP] >= 100 and kinds[RecordKind.TREE_COLLAPSE_TO_CURVE] > 0, kinds
    # a cascade hangs more components than it makes flip records
    assert steps["_hang_off_peer"] > kinds[RecordKind.LA_NAVE_FLIP], steps
    collapses = kinds[RecordKind.TREE_COLLAPSE_TO_POINT] + kinds[RecordKind.TREE_COLLAPSE_TO_CURVE]
    assert steps["_collapse_subtree"] == collapses, steps


def test_a_chain_walk_builds_no_surface_through_the_public_constructor(monkeypatch):
    # every rewrite of the walk, a flip's included, slices the sorted parts
    # and rebuilds through `_replace`, so nothing is sorted again
    X, target = _chain(160)
    calls = []
    new = BrokenEllipticSurface.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(BrokenEllipticSurface, "__new__", counted)
    trace = reduce(X, target)
    flips = [rec for rec in trace.records if rec.kind == RecordKind.LA_NAVE_FLIP]
    assert calls == [] and len(flips) == 3
    rebuilt(trace.final)  # the spy sees the public constructor
    assert len(calls) == 1


def _fresh_ends(Y):
    """Each component's glue ends read afresh, on a copy of Y that holds no
    cached lookup, leaving out the components with none."""
    Z = Y._replace()
    return {c.cid: Z.glue_ends(c.cid) for c in Z.components if Z.glue_ends(c.cid)}


def test_the_walk_keeps_its_glue_end_index_live(monkeypatch):
    # the walk builds its glue-end index once, from its start, and each flip
    # patches it: after every step of a flip cascade, after every WII or WIII
    # record and after every batch it must equal the ends read afresh from
    # the walk's model (an emptied list counts as no entry)
    seen = Counter()

    def live(ends):
        return {cid: got for cid, got in ends.items() if got}

    hang = reduction._hang_off_peer

    def hang_checked(X, cid, ends):
        Y, peer = hang(X, cid, ends)
        assert live(ends) == _fresh_ends(Y), cid
        seen["steps"] += 1
        return Y, peer

    update = reduction._Segment.update

    def update_checked(self, table, Y, top, gone):
        assert live(self.ends) == _fresh_ends(Y), top
        seen["records"] += 1
        update(self, table, Y, top, gone)

    apply = reduction._apply_batch

    def batch_checked(X, segment, table, t, records):
        Y, halted = apply(X, segment, table, t, records)
        assert live(segment.ends) == _fresh_ends(Y), t
        seen["batches"] += 1
        seen["halted"] += halted
        return Y, halted

    monkeypatch.setattr(reduction, "_hang_off_peer", hang_checked)
    monkeypatch.setattr(reduction._Segment, "update", update_checked)
    monkeypatch.setattr(reduction, "_apply_batch", batch_checked)
    walks = [_chain(40), _chain(160)]
    bench, rng = _bench_inputs(), random.Random(43)
    for _ in range(20):
        case = bench.halting_case(rng)
        walks.append((parse_model(json.dumps(case.model)), WeightVector(case.target)))
    walks += _golden_walks()
    cascades = 0
    for X, target in walks:
        trace = reduce(X, target)
        cascades += sum(len(rec.affected) > 1 for rec in trace.records if rec.kind == RecordKind.LA_NAVE_FLIP)
    assert cascades > 0 and seen["halted"] >= 20 and seen["steps"] > 6 and seen["records"] > 6, (cascades, seen)
