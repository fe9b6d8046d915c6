import gc
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mmp_elliptic.curves import Marker, Vertex, WeightVector, component_degree, is_hassett_stable
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
    pseudo_fate,
    section_degree,
    subtree_markers,
    validate,
    volume,
)

from mmp_elliptic import surfaces
from mmp_elliptic.dot import emit_dot
from mmp_elliptic.modeljson import model_from_obj, parse_model, serialize_model
from mmp_elliptic.reduction import InvalidModel, at_weights, reduce

from modelkit import (
    admissible_target,
    flipped_degeneration,
    mk_fiber,
    random_model,
    random_target,
    rational_degeneration,
)
from oracles import (
    base_curve_by_step,
    gram_volume,
    scan_component,
    scan_fiber,
    scan_glue_ends,
    scan_host_fiber,
    scan_host_keys,
    scan_owners,
    scan_pseudo_nodes,
    scan_trees_on,
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
    bad_host = c1.fiber("a1")._replace(coeff=F(9, 20))
    bad = X._replace(
        components=(
            c1._replace(fibers=tuple(bad_host if f.fid == "a1" else f for f in c1.fibers)),
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


def counted_checks(monkeypatch):
    """The surfaces whose validity is worked out, one entry per run of the
    uncached checks behind `validate`."""
    seen = []
    checks = surfaces._violations

    def counted(X):
        seen.append(X)
        return checks(X)

    monkeypatch.setattr(surfaces, "_violations", counted)
    return seen


def test_validity_is_worked_out_once_per_surface(monkeypatch):
    seen = counted_checks(monkeypatch)
    X = parse_model(serialize_model(rational_degeneration(F(1))))
    assert validate(X) == []
    trace = reduce(X, WeightVector(tuple([F(1)] * 10 + [F(1, 3), F(1, 3)])))
    assert trace.records
    assert seen == [X]


def test_validate_returns_a_new_list_each_call():
    X = rational_degeneration(F(1))
    problems = validate(X)
    problems.append("junk")
    assert validate(X) == []
    bad = X._replace(glues=())
    problems = validate(bad)
    assert [p.code for p in problems] == ["connectivity"]
    problems.clear()
    assert [p.code for p in validate(bad)] == ["connectivity"]


def test_new_surfaces_get_a_new_verdict(monkeypatch):
    seen = counted_checks(monkeypatch)
    X = rational_degeneration(F(1))
    assert validate(X) == []
    # a rewrite makes a new surface, whose verdict is its own
    bad = X._replace(glues=())
    assert [p.code for p in validate(bad)] == ["connectivity"]
    assert validate(X) == []
    moved = at_weights(X, WeightVector(tuple([F(1)] * 10 + [F(1, 2), F(1, 2)])))
    assert validate(moved) == []
    assert seen == [X, bad, moved]


def test_an_invalid_model_is_refused_with_every_violation():
    X = flipped_degeneration(F(9, 20))
    c1 = X.elliptic[0]
    bad_host = c1.fiber("a1")._replace(coeff=F(9, 20))
    bad = X._replace(
        components=(
            c1._replace(fibers=tuple(bad_host if f.fid == "a1" else f for f in c1.fibers)),
        ),
        glues=(
            Glue(
                "g1",
                AttachEnd("c9", "a9", parse_fiber_type("II")),
                AttachEnd("c1", "a2", parse_fiber_type("II*")),
            ),
        ),
    )
    want = "; ".join(str(p) for p in surfaces._violations(bad))
    assert "eq-4.1" in want and "unknown component c9" in want
    for _ in range(2):  # the second walk reads the cached verdict
        with pytest.raises(InvalidModel) as err:
            reduce(bad, WeightVector(tuple([F(1)] * 10 + [F(5, 12), F(5, 12)])))
        assert str(err.value) == want


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
    assert section_degree(X, "c2") <= 0  # 2*(1/4) - 1 < 0
    Y = irreducible(2, 1, [], [])
    assert section_degree(Y, "c1") > 0
    Z = irreducible(0, 1, [("I1", 1), ("I1", 2)], [F(1), F(1)])
    assert section_degree(Z, "c1") <= 0  # sum = 2 exactly, boundary wall


def test_pseudo_fate_thresholds():
    assert pseudo_fate(flipped_degeneration(F(9, 20)), "c2") == PSEUDO_BIG
    assert pseudo_fate(flipped_degeneration(F(5, 12)), "c2") == PSEUDO_TO_POINT


def test_pseudo_fate_curve_case_needs_flags():
    X = flipped_degeneration(F(5, 12))
    att = X.trees[0]
    curve_root = att.root._replace(isotrivial_jinf=True, degL=F(0))
    Y = X._replace(trees=(TreeAttachment(att.host_component, att.host_fiber, curve_root),))
    assert pseudo_fate(Y, "c2") == PSEUDO_TO_CURVE
    only_flag = att.root._replace(isotrivial_jinf=True)
    Z = X._replace(trees=(TreeAttachment(att.host_component, att.host_fiber, only_flag),))
    assert pseudo_fate(Z, "c2") == PSEUDO_TO_POINT


def test_lookups_and_fates_name_what_they_miss():
    X = rational_degeneration(F(1))
    glue, comp = X.glues[0], X.component("c1")
    Y = flipped_degeneration(F(9, 20))
    node = Y.trees[0].root
    for call, args in (
        (lambda: glue.peer_of("c9"), ("glue g1 does not touch c9",)),
        (lambda: X.component("c9"), ("no component c9",)),
        (lambda: comp.fiber("zz"), ("component c1 has no fiber zz",)),
        (lambda: node.fiber("zz"), ("pseudo component c2 has no fiber zz",)),
        (lambda: Y.tree("nowhere"), ("no attached tree rooted at nowhere",)),
    ):
        with pytest.raises(KeyError) as exc:
            call()
        assert exc.value.args == args
    # the tree's host fiber c1/a1 retyped I1, which has no threshold
    host = Y.component("c1")
    nodal = host._replace(
        fibers=tuple(f._replace(ftype=parse_fiber_type("I1")) if f.fid == "a1" else f for f in host.fibers)
    )
    Z = Y._replace(components=tuple(nodal if c.cid == "c1" else c for c in Y.components))
    with pytest.raises(surfaces.MissingThreshold) as exc:
        pseudo_fate(Z, "c2")
    assert exc.value.args == ("host fiber type I1 has no threshold",)


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
    glues = (
        Glue("g1", AttachEnd("left", "a1", parse_fiber_type("II")), AttachEnd("mid", "b1", parse_fiber_type("II*"))),
        Glue("g2", AttachEnd("mid", "b2", parse_fiber_type("IV")), AttachEnd("right", "a2", parse_fiber_type("IV*"))),
    )
    for genus in (0, 1):
        middle = Component("mid", 2, genus, F(1), (), has_section=False)
        X = BrokenEllipticSurface(w, (left, middle, right), glues)
        assert validate(X) == []
        curve = base_curve(X)
        # the middle vertex falls into its lowest-id neighbor, and genera add
        assert curve.vertices == (Vertex(1, genus), Vertex(3, 0))
        assert curve.edges == ((1, 3),)
        assert curve == base_curve_by_step(X)


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


def test_admissible_target_screens_models_with_markerless_fibers():
    # the base curve marks the marker-less fiber as marker r + 1, so each draw
    # is screened at the target extended by its fixed coefficient one; the
    # bare target comes back, and the walk to it runs
    path = Path(__file__).parent / "data" / "markerless_twisted_after_curve_collapse.json"
    X = parse_model(path.read_text())
    rng = random.Random(16)
    for _ in range(10):
        A = admissible_target(rng, X)
        assert A is not None and A.r == X.weights.r
        reduce(X, A)


def _check_id_lookups(X):
    """`component`, `trees_on` and each part's `fiber` answer as scans."""
    for c in X.components:
        assert X.component(c.cid) is scan_component(X, c.cid)
        assert X.trees_on(c.cid) == scan_trees_on(X, c.cid)
    for part in X.components + tuple(scan_pseudo_nodes(X)):
        for f in part.fibers:
            assert part.fiber(f.fid) is scan_fiber(part.fibers, f.fid)
        with pytest.raises(KeyError):
            part.fiber("nowhere")


def _check_index(X):
    owners = scan_owners(X)
    assert X.fiber_owners() == owners
    _check_id_lookups(X)
    for c in X.components:
        assert X.glue_ends(c.cid) == scan_glue_ends(X, c.cid)
    for owner, fibers in owners:
        for f in fibers:
            assert X.host_fiber(owner, f.fid) is scan_host_fiber(X, owner, f.fid)
    with pytest.raises(KeyError):
        X.component("nowhere")
    with pytest.raises(KeyError):
        X.host_fiber(owners[0][0], "nowhere")
    assert X.glue_ends("nowhere") == []
    assert X.trees_on("nowhere") == ()
    assert X.pseudo_nodes() == scan_pseudo_nodes(X)
    assert X.host_keys() == scan_host_keys(X)
    assert base_curve(X) == base_curve_by_step(X)


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
            _check_index(Y)
        models += len(walk)
    assert models >= 200


def test_a_replaced_component_carries_no_stored_part():
    # the base curve and both writers store values on a component; a
    # component rebuilt by `_replace` starts without them, so the base curve
    # of a surface that holds it shows the change
    X = rational_degeneration(F(3, 5))
    base_curve(X), serialize_model(X), emit_dot(X)
    c = X.components[0]
    assert {"_base_part", "_json_text", "_dot_text"} <= c.__dict__.keys()
    higher = c._replace(genus=c.genus + 1)
    assert higher.__dict__ == {}
    Y = X._replace(components=(higher,) + X.components[1:])
    curve = base_curve(Y)
    assert curve == base_curve_by_step(Y) != base_curve(X)
    assert curve.vertex(c.vertex).genus == c.genus + 1


def test_base_curve_matches_the_stepwise_oracle_on_type_ii_walks():
    # screened targets rarely form a type II component; walks to unscreened
    # targets form them, and every snapshot's base curve is checked
    rng = random.Random(16)
    with_type_ii = 0
    for i in range(80):
        X = random_model(rng, allow_isotrivial=i % 2 == 1)
        trace = reduce(X, random_target(rng, X.weights))
        for Y in [X] + [rec.snapshot_after for rec in trace.records] + [trace.final]:
            assert base_curve(Y) == base_curve_by_step(Y)
            with_type_ii += bool(Y.pseudo2)
    assert with_type_ii >= 20


def test_lookups_find_both_owners_of_a_repeated_id():
    # the nested-tree model with its root node renamed c1, the id of its host
    # component: `validate` reports the ids, and the lookups still find every
    # fiber of both owners
    obj = json.loads((Path(__file__).parent / "golden" / "nested_tree.json").read_text())
    obj["trees"][0]["root"]["id"] = "c1"
    X = model_from_obj(obj, check=False)
    comp, node = X.component("c1"), X.pseudo_nodes()[0]
    assert node.pid == "c1" and {f.fid for f in node.fibers} == {"b2", "f3"}
    for f in comp.fibers + node.fibers:
        assert X.host_fiber("c1", f.fid) is f
    assert X.host_keys() == {("c1", "a1"), ("c1", "b2")}
    _check_index(X)


def test_lookups_find_the_first_of_a_repeated_id():
    # models `validate` refuses: two components c1, two fibers f1 on c1, two
    # pseudofibers b2 on node c2, and two trees on c1/a1; every lookup
    # answers as a scan does, the first of a repeated id first
    here = Path(__file__).parent
    example = (here.parent / "demos" / "data" / "rational_example.json").read_text()
    nested = (here / "golden" / "nested_tree.json").read_text()
    second_tree = {
        "host": "c1",
        "host_fiber": "a1",
        "root": {"id": "c9", "degL": "1", "attach_type": "II*", "fibers": [], "children": []},
    }
    edits = [
        (example, lambda obj: obj["components"][1].update(id="c1")),
        (example, lambda obj: obj["components"][0]["fibers"][1].update(id="f1")),
        (nested, lambda obj: obj["trees"][0]["root"]["fibers"][1].update(id="b2")),
        (nested, lambda obj: obj["trees"].append(second_tree)),
    ]
    for text, edit in edits:
        obj = json.loads(text)
        edit(obj)
        X = model_from_obj(obj, check=False)
        assert validate(X)
        _check_id_lookups(X)


def test_id_lookups_leave_the_instance_dicts_unchanged():
    # `component`, `trees_on` and `fiber` bisect the sorted parts, so they
    # store nothing on the surface or on a component
    here = Path(__file__).parent
    for path in (here / "golden" / "nested_tree.json", here.parent / "demos" / "data" / "rational_example.json"):
        X = model_from_obj(json.loads(path.read_text()), check=False)
        for c in X.components:
            assert X.component(c.cid) is c
            assert X.trees_on(c.cid) == scan_trees_on(X, c.cid)
            for f in c.fibers:
                assert c.fiber(f.fid) is f
        for att in X.trees:
            for node in att.root.nodes():
                for f in node.fibers:
                    assert node.fiber(f.fid) is f
        assert X.__dict__ == {} and all(c.__dict__ == {} for c in X.components)


def test_model_pipeline_leaves_no_reference_cycles():
    # an object in a reference cycle outlives its last reference until the
    # cyclic collector runs; everything parse, validate, the walk and the
    # writers make must die by reference counting alone
    rng = random.Random(404)
    cases = []
    for _ in range(40):
        X = random_model(rng, max_components=6, max_markers=12, allow_isotrivial=True)
        cases.append((serialize_model(X), admissible_target(rng, X)))

    def validate_all():
        for text, _ in cases:
            validate(parse_model(text))

    def walk_all():
        for text, target in cases:
            walk = [parse_model(text)]
            if target is not None:
                trace = reduce(walk[0], target)
                walk += [rec.snapshot_after for rec in trace.records] + [trace.final]
            for Y in walk:
                serialize_model(Y)
                emit_dot(Y)
                validate(Y)

    validate_all()  # warm-up: caches filled on first use are not garbage
    walk_all()
    gc.collect()
    gc.disable()
    try:
        validate_all()
        assert gc.collect() == 0
        walk_all()
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    # one chamber holds one stable model: re-evaluated at the weights of
    # another model of its chamber, a model equals it; the unflipped model
    # differs from the flipped one
    X = flipped_degeneration(F(9, 20))
    assert subtree_markers(X.trees[0].root) == frozenset({11, 12})
    same = flipped_degeneration(F(19, 40))
    assert at_weights(X, same.weights) == same
    assert at_weights(same, X.weights) == X
    other = rational_degeneration(F(9, 20))
    assert at_weights(X, other.weights) != other
