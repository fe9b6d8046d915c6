import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from mmp_elliptic.curves import Marker, WeightVector, component_degree, is_hassett_stable
from mmp_elliptic.kodaira import FiberState, parse_fiber_type
from mmp_elliptic.surfaces import (
    AttachEnd,
    BrokenEllipticSurface,
    Component,
    Glue,
    MarkedFiber,
    NoSectionError,
    PSEUDO_BIG,
    PSEUDO_TO_CURVE,
    PSEUDO_TO_POINT,
    TreeAttachment,
    UnsupportedConfiguration,
    base_curve,
    base_weights,
    model_shape,
    pseudo_fate,
    section_degree,
    should_contract_section,
    subtree_markers,
    validate,
    volume,
)

from mmp_elliptic.modeljson import parse_model
from mmp_elliptic.reduction import reduce

from modelkit import (
    admissible_target,
    flipped_degeneration,
    mk_fiber,
    random_model,
    rational_degeneration,
)
from oracles import (
    gram_volume,
    scan_component,
    scan_glue_ends,
    scan_host_fiber,
    scan_host_keys,
    scan_marked_fibers,
    scan_owners,
    scan_pseudo_nodes,
    scan_subtrees,
)

F = Fraction


def irreducible(genus, degL, specs, weights):
    """Single component over vertex 1; specs = [(fiber type, marker index)]."""
    w = WeightVector(tuple(weights))
    fibers = tuple(mk_fiber(f"f{i}", t, i, w) for t, i in specs)
    comp = Component("c1", 1, genus, F(degL), fibers)
    return BrokenEllipticSurface(w, (comp,))


def test_two_component_fixture_is_valid():
    X = rational_degeneration(F(1))
    assert validate(X) == []


def test_flipped_fixture_is_valid_in_its_range():
    X = flipped_degeneration(F(9, 20))
    assert validate(X) == []


def test_eq41_violation_when_host_coeff_is_wrong():
    X = flipped_degeneration(F(9, 20))
    c1 = X.elliptic[0]
    bad_host = replace(c1.fiber("a1"), coeff=F(9, 20))
    bad = replace(
        X,
        components=(
            replace(c1, fibers=tuple(bad_host if f.fid == "a1" else f for f in c1.fibers)),
        ),
    )
    problems = validate(bad)
    assert len(problems) == 1 and problems[0].code == "eq-4.1"


def test_state_violation_for_underweight_intermediate():
    w = WeightVector((F(1, 2),))
    fiber = MarkedFiber("f1", parse_fiber_type("II"), F(1, 2), FiberState.INTERMEDIATE, frozenset({1}))
    comp = Component("c1", 1, 0, F(1), (fiber,))
    problems = validate(BrokenEllipticSurface(w, (comp,)))
    assert len(problems) == 1 and problems[0].code == "fiber-state"


def test_degL_zero_rejects_weierstrass_singular_fibers():
    X = irreducible(1, 0, [("I1", 1)], [F(1, 2)])
    assert any(p.code == "degL" for p in validate(X))
    ok = irreducible(1, 0, [("I0", 1)], [F(1, 2)])
    assert validate(ok) == []


def test_marker_reuse_is_flagged():
    w = WeightVector((F(1),))
    f1 = mk_fiber("f1", "I1", 1, w)
    f2 = mk_fiber("f2", "I2", 1, w)
    comp = Component("c1", 1, 1, F(1), (f1, f2))
    problems = validate(BrokenEllipticSurface(w, (comp,)))
    assert any(p.code == "marker" for p in problems)


def test_section_degree_examples():
    # leaf with one attachment and markers alpha, alpha
    X = rational_degeneration(F(9, 20))
    assert section_degree(X, "c2") == 2 * F(9, 20) - 1
    assert section_degree(X, "c1") == -2 + 1 + 10
    # genus one, nothing else
    Y = irreducible(1, 1, [], [])
    assert section_degree(Y, "c1") == 0
    # twelve weight-one markers
    Z = irreducible(0, 1, [("I1", i) for i in range(1, 13)], [F(1)] * 12)
    assert section_degree(Z, "c1") == 10


def test_section_degree_needs_a_section():
    w = WeightVector(())
    z = Component("z", 1, 0, F(1), (), has_section=False)
    X = BrokenEllipticSurface(w, (z,))
    with pytest.raises(NoSectionError):
        section_degree(X, "z")


def test_should_contract_examples():
    X = rational_degeneration(F(1, 4))
    assert should_contract_section(X, "c2")  # 2*(1/4) - 1 < 0
    Y = irreducible(2, 1, [], [])
    assert not should_contract_section(Y, "c1")
    Z = irreducible(0, 1, [("I1", 1), ("I1", 2)], [F(1), F(1)])
    assert should_contract_section(Z, "c1")  # sum = 2 exactly, boundary wall


def test_pseudo_fate_thresholds():
    assert pseudo_fate(flipped_degeneration(F(9, 20)), "c2") == PSEUDO_BIG
    assert pseudo_fate(flipped_degeneration(F(5, 12)), "c2") == PSEUDO_TO_POINT


def test_pseudo_fate_curve_case_needs_flags():
    X = flipped_degeneration(F(5, 12))
    att = X.trees[0]
    curve_root = replace(att.root, isotrivial_jinf=True, degL=F(0))
    Y = replace(X, trees=(TreeAttachment(att.host_component, att.host_fiber, curve_root),))
    assert pseudo_fate(Y, "c2") == PSEUDO_TO_CURVE
    only_flag = replace(att.root, isotrivial_jinf=True)
    Z = replace(X, trees=(TreeAttachment(att.host_component, att.host_fiber, only_flag),))
    assert pseudo_fate(Z, "c2") == PSEUDO_TO_POINT


def test_volume_examples():
    X = irreducible(0, 1, [("I1", i) for i in range(1, 13)], [F(1)] * 12)
    assert volume(X) == 21
    Y = irreducible(0, 1, [], [])
    assert volume(Y) == -3
    Z = irreducible(1, 0, [], [])
    assert volume(Z) == 0


def test_volume_rejects_broken_models_and_twisted_fibers():
    with pytest.raises(UnsupportedConfiguration):
        volume(rational_degeneration(F(1)))
    X = irreducible(0, 1, [("II", 1)], [F(1)])
    with pytest.raises(UnsupportedConfiguration):
        volume(X)


def test_volume_matches_gram_expansion_with_intermediates():
    X = irreducible(
        0,
        2,
        [("II", 1), ("III*", 2), ("I1", 3)],
        [F(11, 12), F(1, 2), F(1)],
    )
    assert validate(X) == []
    assert volume(X) == gram_volume(X)


def test_base_curve_of_fixture_stages():
    X = rational_degeneration(F(3, 5))
    curve = base_curve(X)
    assert len(curve.vertices) == 2
    assert curve.edges == ((1, 2),)
    assert {m.index for m in curve.markers_on(1)} == set(range(1, 11))
    assert {m.index for m in curve.markers_on(2)} == {11, 12}

    Y = flipped_degeneration(F(9, 20))
    curve2 = base_curve(Y)
    assert len(curve2.vertices) == 1
    assert {m.index for m in curve2.markers} == set(range(1, 13))


def test_base_curve_contracts_type_ii_components():
    w = WeightVector((F(1), F(1), F(1), F(1)))
    left = Component(
        "left", 1, 0, F(1), (mk_fiber("f1", "I1", 1, w), mk_fiber("f2", "I1", 2, w))
    )
    right = Component(
        "right", 3, 0, F(1), (mk_fiber("f3", "I1", 3, w), mk_fiber("f4", "I1", 4, w))
    )
    middle = Component("mid", 2, 0, F(1), (), has_section=False)
    glues = (
        Glue("g1", AttachEnd("left", "a1", parse_fiber_type("II")), AttachEnd("mid", "b1", parse_fiber_type("II*"))),
        Glue("g2", AttachEnd("mid", "b2", parse_fiber_type("IV")), AttachEnd("right", "a2", parse_fiber_type("IV*"))),
    )
    X = BrokenEllipticSurface(w, (left, middle, right), glues)
    assert validate(X) == []
    curve = base_curve(X)
    assert [v.vid for v in curve.vertices] == [1, 3]
    assert curve.edges == ((1, 3),)


def test_base_curve_marks_markerless_fibers_at_weight_one():
    # the valid final model of a walk halted by a collapse onto a curve: the
    # marker-less twisted fiber c3host is a fixed point of weight one
    path = Path(__file__).parent / "data" / "markerless_twisted_after_curve_collapse.json"
    X = parse_model(path.read_text())
    r = X.weights.r
    curve = base_curve(X)
    assert [m for m in curve.markers if m.index > r] == [
        Marker(r + 1, X.component("c3").vertex)
    ]
    assert base_weights(X).entries == X.weights.entries + (F(1),)
    for comp in X.elliptic:
        assert section_degree(X, comp.cid) == component_degree(
            curve, comp.vertex, base_weights(X)
        )


def _check_index(X, rng):
    owners = scan_owners(X)
    assert X.fiber_owners() == owners
    assert X.all_ids() == [owner for owner, _ in owners]
    for c in X.components:
        assert X.component(c.cid) is scan_component(X, c.cid)
        assert X.glue_ends(c.cid) == scan_glue_ends(X, c.cid)
    for owner, fibers in owners:
        for f in fibers:
            assert X.host_fiber(owner, f.fid) is scan_host_fiber(X, owner, f.fid)
    with pytest.raises(KeyError):
        X.component("nowhere")
    with pytest.raises(KeyError):
        X.host_fiber(owners[0][0], "nowhere")
    assert X.glue_ends("nowhere") == []
    assert X.pseudo_nodes() == scan_pseudo_nodes(X)
    assert list(X.subtrees()) == scan_subtrees(X)
    assert X.host_keys() == scan_host_keys(X)
    assert list(X.marked_fibers()) == scan_marked_fibers(X)
    picked = {i for i in range(1, X.weights.r + 1) if rng.random() < 0.3}
    assert X.fibers_with(picked) == [
        (owner, f) for owner, fibers in owners for f in fibers if f.markers & picked
    ]


def test_index_matches_scans_on_models_and_walks():
    rng = random.Random(404)
    models = 0
    for _ in range(60):
        X = random_model(rng, max_components=6, max_markers=12, allow_isotrivial=True)
        walk = [X]
        target = admissible_target(rng, X)
        if target is not None:
            trace = reduce(X, target)
            walk += [rec.snapshot_after for rec in trace.records] + [trace.final]
        for Y in walk:
            _check_index(Y, rng)
        models += len(walk)
    assert models >= 200


def test_section_degree_agrees_with_base_curve_projection():
    rng = random.Random(3)
    for _ in range(40):
        X = random_model(rng)
        assert validate(X) == []
        curve = base_curve(X)
        for comp in X.elliptic:
            assert section_degree(X, comp.cid) == component_degree(
                curve, comp.vertex, X.weights
            )


def test_hassett_stability_iff_positive_section_degrees():
    rng = random.Random(4)
    for _ in range(40):
        X = random_model(rng)
        if X.pseudo2:
            continue
        stable = all(section_degree(X, c.cid) > 0 for c in X.elliptic)
        assert is_hassett_stable(base_curve(X), X.weights) == stable


def test_random_models_are_stable_at_start():
    rng = random.Random(5)
    for _ in range(60):
        X = random_model(rng)
        assert validate(X) == []
        for comp in X.elliptic:
            assert section_degree(X, comp.cid) > 0


def test_subtree_markers_and_shape():
    X = flipped_degeneration(F(9, 20))
    assert subtree_markers(X.trees[0].root) == frozenset({11, 12})
    assert model_shape(X) == model_shape(flipped_degeneration(F(19, 40)))
    assert model_shape(X) != model_shape(rational_degeneration(F(9, 20)))
