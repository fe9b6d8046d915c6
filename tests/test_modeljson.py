import itertools
import json
import random
import re
from pathlib import Path
from fractions import Fraction

import pytest

from mmp_elliptic.dot import emit_dot
from mmp_elliptic.kodaira import FiberState, parse_fiber_type
from mmp_elliptic.modeljson import ModelJSONError, parse_model, serialize_model, weights_text
from mmp_elliptic.reduction import reduce
from mmp_elliptic.curves import WeightVector
from mmp_elliptic.surfaces import (
    AttachEnd,
    BrokenEllipticSurface,
    ChildLink,
    Component,
    Glue,
    MarkedFiber,
    PseudoComponent,
    TreeAttachment,
)

from modelkit import chain_cascade, flipped_degeneration, random_model, random_target, rational_degeneration
from oracles import model_to_obj, serialize_oracle

F = Fraction


def test_round_trip_two_component_fixture():
    X = rational_degeneration(F(1))
    assert parse_model(serialize_model(X)) == X


def test_round_trip_with_tree():
    X = flipped_degeneration(F(9, 20))
    assert parse_model(serialize_model(X)) == X


def test_round_trip_random_models():
    import random

    rng = random.Random(77)
    for _ in range(25):
        X = random_model(rng)
        assert parse_model(serialize_model(X)) == X


def test_round_trip_after_reduction():
    X = rational_degeneration(F(1))
    trace = reduce(X, WeightVector(tuple([F(1)] * 10 + [F(1, 3), F(1, 3)])))
    final = trace.final
    assert parse_model(serialize_model(final)) == final


def test_serialization_is_deterministic():
    X = flipped_degeneration(F(9, 20))
    assert serialize_model(X) == serialize_model(parse_model(serialize_model(X)))


def test_malformed_json():
    with pytest.raises(ModelJSONError) as err:
        parse_model("{not json")
    assert err.value.kind == "malformed-json"


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("components", 0, "vertex"), "x", "c1/vertex"),
        (("components", 0, "fibers", 0, "markers"), ["a"], "c1/f1/markers"),
        (("components", 0, "genus"), None, "c1/genus"),
        (("components", 0), 5, "components"),
        (("weights",), 5, "'weights'"),
        # a flag is a JSON boolean, never read by its truthiness
        (("components", 0, "fibers", 0, "nonminimal_cusp"), "false", "c1/f1/nonminimal_cusp"),
        (("components", 0, "fibers", 0, "nonminimal_cusp"), 0, "c1/f1/nonminimal_cusp"),
        (("components", 0, "isotrivial_jinf"), "false", "c1/isotrivial_jinf"),
        (("components", 0, "isotrivial_jinf"), None, "c1/isotrivial_jinf"),
        # a fiber's markers are a set: an index listed twice would not round-trip
        (("components", 0, "fibers", 0, "markers"), [1, 1], "c1/f1/markers: repeated marker 1"),
        (("components", 1, "fibers", 0, "markers"), [11, 12, 11], "c2/f11/markers: repeated marker 11"),
    ],
    ids=[
        "vertex-x",
        "markers-a",
        "genus-null",
        "component-5",
        "weights-5",
        "cusp-string",
        "cusp-0",
        "jinf-string",
        "jinf-null",
        "markers-repeated",
        "markers-repeated-later",
    ],
)
def test_ill_typed_field_is_schema_violation(path, value, field):
    obj = model_to_obj(rational_degeneration(F(1)))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    for check in (True, False):
        with pytest.raises(ModelJSONError) as err:
            parse_model(json.dumps(obj), check=check)
        assert err.value.kind == "schema-violation"
        assert field in str(err.value)


def test_pseudo_node_flag_must_be_a_boolean():
    obj = model_to_obj(flipped_degeneration(F(9, 20)))
    for value in ("true", 1, [True]):
        obj["trees"][0]["root"]["isotrivial_jinf"] = value
        with pytest.raises(ModelJSONError) as err:
            parse_model(json.dumps(obj))
        assert err.value.kind == "schema-violation"
        assert "trees/c2/isotrivial_jinf: bad boolean" in str(err.value)
    for value in (True, False):
        obj["trees"][0]["root"]["isotrivial_jinf"] = value
        assert parse_model(json.dumps(obj)).trees[0].root.isotrivial_jinf is value


def test_a_repeated_marker_in_a_pseudo_node_fiber_is_a_schema_violation():
    obj = model_to_obj(flipped_degeneration(F(9, 20)))
    root = obj["trees"][0]["root"]
    fiber = next(f for f in root["fibers"] if f["markers"])
    fiber["markers"] = fiber["markers"] + fiber["markers"][:1]
    with pytest.raises(ModelJSONError) as err:
        parse_model(json.dumps(obj), check=False)
    assert str(err.value) == (
        f"schema-violation: trees/{root['id']}/{fiber['id']}/markers: repeated marker {fiber['markers'][0]}"
    )


def test_undecodable_bytes_are_malformed_json():
    with pytest.raises(ModelJSONError) as err:
        parse_model(b'{"weights": ["\xff\xfe"]}')
    assert err.value.kind == "malformed-json"


def test_out_of_range_coefficient_is_schema_violation():
    obj = model_to_obj(rational_degeneration(F(1)))
    obj["components"][0]["fibers"][0]["coeff"] = "7/6"
    with pytest.raises(ModelJSONError) as err:
        parse_model(json.dumps(obj))
    assert err.value.kind == "schema-violation"
    assert "7/6" in str(err.value)


def test_missing_field_is_schema_violation():
    obj = model_to_obj(rational_degeneration(F(1)))
    del obj["components"][0]["degL"]
    with pytest.raises(ModelJSONError) as err:
        parse_model(json.dumps(obj))
    assert err.value.kind == "schema-violation"


def test_eq41_violation_is_model_invalid():
    X = flipped_degeneration(F(9, 20))
    obj = model_to_obj(X)
    for comp in obj["components"]:
        for fib in comp["fibers"]:
            if fib["id"] == "a1":
                fib["coeff"] = "9/20"  # should be the derived 9/10
    with pytest.raises(ModelJSONError) as err:
        parse_model(json.dumps(obj))
    assert err.value.kind == "model-invalid"
    assert "eq-4.1" in str(err.value)


def test_unknown_fiber_type_is_schema_violation():
    obj = model_to_obj(rational_degeneration(F(1)))
    obj["components"][0]["fibers"][0]["type"] = "VII"
    with pytest.raises(ModelJSONError) as err:
        parse_model(json.dumps(obj))
    assert err.value.kind == "schema-violation"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: obj["components"][0]["fibers"][0].update(state="Molten"), "c1/f1: unknown state 'Molten'"),
        (lambda obj: obj["components"][0].update(kind="ghost"), "c1: unknown component kind 'ghost'"),
        (lambda obj: [obj], "top level must be an object"),
    ],
    ids=["state", "kind", "top-level-list"],
)
def test_an_unknown_name_or_a_non_object_top_level_is_a_schema_violation(edit, message):
    obj = model_to_obj(rational_degeneration(F(1)))
    obj = edit(obj) or obj
    for check in (True, False):
        with pytest.raises(ModelJSONError) as err:
            parse_model(json.dumps(obj), check=check)
        assert str(err.value) == f"schema-violation: {message}"


def test_an_n2_fiber_without_a_state_reads_as_weierstrass():
    # N2 has no modelled thresholds, so no state can be derived for it
    obj = model_to_obj(rational_degeneration(F(1)))
    fiber = obj["components"][0]["fibers"][0]
    fiber["type"] = "N2"
    del fiber["state"]
    X = parse_model(json.dumps(obj), check=False)
    assert X.component("c1").fiber("f1").state == FiberState.WEIERSTRASS


def test_state_defaults_to_model_state():
    obj = model_to_obj(rational_degeneration(F(1)))
    for comp in obj["components"]:
        for fib in comp["fibers"]:
            fib.pop("state", None)
    X = parse_model(json.dumps(obj))
    assert X == rational_degeneration(F(1))


def _walks():
    """Each start with its snapshots and final, in walk order: 300 seeded
    random walks (isotrivial trees, targets down to where sections contract)
    and a few chain cascades."""
    rng = random.Random(808)
    starts = []
    for _ in range(300):
        X = random_model(rng, allow_isotrivial=True)
        starts.append((X, random_target(rng, X.weights)))
    starts += [chain_cascade(rng, n, k) for n, k in ((4, 1), (6, 2), (8, 3), (12, 3))]
    for X, target in starts:
        trace = reduce(X, target)
        yield [X] + [rec.snapshot_after for rec in trace.records] + [trace.final]


def _nested(X):
    return any(link for t in X.trees for n in t.root.nodes() for link in n.children)


_TREE_KEYS = ("_json_text", "_dot_text")


def test_stored_texts_match_a_cold_copy_and_the_oracle():
    seen = {"models": 0, "type II": 0, "nested": 0, "isotrivial": 0, "shared trees": 0}
    for walk in _walks():
        for X in walk:  # later snapshots share the stored texts of earlier ones
            oracle = serialize_oracle(X)
            cold = parse_model(oracle, check=False)
            shared = sum(all(key in t.__dict__ for key in _TREE_KEYS) for t in X.trees)
            assert serialize_model(X) == serialize_model(cold) == oracle
            assert emit_dot(X) == emit_dot(cold)
            # each tree's stored texts are those of a fresh copy, and its JSON
            # text is the oracle's, at the depth of a top-level list entry
            trees = model_to_obj(X)["trees"]
            for t, fresh, obj in zip(X.trees, cold.trees, trees, strict=True):
                assert [t.__dict__[key] for key in _TREE_KEYS] == [fresh.__dict__[key] for key in _TREE_KEYS]
                assert t.__dict__["_json_text"] == json.dumps(obj, indent=2).replace("\n", "\n    ")
            seen["models"] += 1
            seen["shared trees"] += shared
            seen["type II"] += bool(X.pseudo2)
            seen["nested"] += _nested(X)
            seen["isotrivial"] += any(n.isotrivial_jinf for t in X.trees for n in t.root.nodes())
    assert seen["models"] >= 1000 and min(seen.values()) > 0, seen


def test_a_tree_is_laid_out_once_per_walk_however_many_snapshots_share_it(monkeypatch):
    # a tree that no record touches is the same record in every snapshot, so
    # each writer lays it out once per walk
    import mmp_elliptic.dot as dot
    import mmp_elliptic.modeljson as modeljson

    laid = []
    for module, name in ((modeljson, "_tree_text"), (dot, "_tree_texts")):
        def counted(t, _write=getattr(module, name), _name=name):
            laid.append((_name, id(t)))
            return _write(t)

        monkeypatch.setattr(module, name, counted)
    shared = 0
    for walk in itertools.islice(_walks(), 120):
        laid.clear()
        trees = {id(t) for X in walk for t in X.trees}
        for X in walk:
            serialize_model(X), emit_dot(X)
        assert sorted(laid) == sorted((name, i) for name in ("_tree_text", "_tree_texts") for i in trees)
        shared += sum(len(X.trees) for X in walk) - len(trees)
    assert shared >= 100


def test_the_edge_into_a_tree_follows_its_host_coefficient():
    # the tree's stored texts stay, and the edge from its host fiber shows
    # the host's coefficient of the model being written
    X = flipped_degeneration(F(9, 20))
    t = X.trees[0]
    before = emit_dot(X)
    host = X.component(t.host_component)
    f = host.fiber(t.host_fiber)
    moved = host._replace(fibers=tuple(g._replace(coeff=F(1, 7)) if g is f else g for g in host.fibers))
    Y = X._replace(components=tuple(moved if c is host else c for c in X.components))
    assert Y.trees[0] is t
    after = emit_dot(Y)
    assert after == emit_dot(parse_model(serialize_oracle(Y), check=False)) != before
    assert f'label="{f.ftype}, 1/7"' in after and f'label="{f.ftype}, {f.coeff}"' in before
    assert emit_dot(X) == before


def test_a_walk_snapshot_writes_only_its_moved_weights():
    # a snapshot's weights take their texts from the target's, kept on the
    # target, and write only the entries of the markers that move
    X = rational_degeneration(F(1))
    target = WeightVector((F(1),) * 10 + (F(1, 3),) * 2)
    trace = reduce(X, target)
    snapshots = [rec.snapshot_after for rec in trace.records] + [trace.final]
    assert len(snapshots) > 1
    assert [serialize_model(Y) for Y in snapshots] == [serialize_oracle(Y) for Y in snapshots]
    texts = target.__dict__["_texts"]
    assert texts == ["1"] * 10 + ["1/3"] * 2
    # each keeps its texts and its lift, made by the walk, and nothing of
    # the walk; its unmoved texts are the target's own string objects
    for Y in snapshots:
        assert Y.weights.__dict__.keys() == {"_lift", "_texts"}
        kept = Y.weights.__dict__["_texts"]
        assert all(a is b for a, b in zip(kept[:10], texts[:10]))
        assert kept[10:] == [str(w) for w in Y.weights.entries[10:]]
        assert json.loads(weights_text(Y.weights, "")) == kept


def test_a_replaced_component_gets_a_new_text():
    X = rational_degeneration(F(1))
    text, dot = serialize_model(X), emit_dot(X)
    c1 = X.component("c1")
    f = c1.fibers[0]
    Y = X._replace(components=(c1._replace(fibers=(f._replace(coeff=F(1, 2)),) + c1.fibers[1:]),) + X.components[1:])
    assert serialize_model(Y) == serialize_oracle(Y) != text
    assert emit_dot(Y) == emit_dot(parse_model(serialize_oracle(Y), check=False)) != dot
    assert (serialize_model(X), emit_dot(X)) == (text, dot)


def _odd_models():
    """Hand-built surfaces, not validated, whose ids need escaping in JSON (a
    quote, a backslash, control characters, non-ASCII letters) and that carry
    every optional or empty part of the schema: a nonminimal cusp, isotrivial
    components and pseudo nodes, a tree nested two levels deep, a component
    with no fibers, fibers with no markers, and a model with no parts."""
    T = parse_fiber_type
    w = WeightVector((F(1), F(1, 2), F(1, 3), F(0)))

    def fiber(fid, ftype, markers=(), cusp=False):
        return MarkedFiber(fid, T(ftype), F(1, 2), FiberState.WEIERSTRASS, frozenset(markers), cusp)

    leaf = PseudoComponent("p\x1f", F(1), T("II"), (fiber("q", "I1", (3,)),), isotrivial_jinf=True)
    mid = PseudoComponent("p\u00e9", F(1, 2), T("II*"), (fiber("v\\", "II"),), (ChildLink("v\\", leaf),))
    root = PseudoComponent('p"', F(1), T("II"), (), (ChildLink("r", mid),))
    components = (
        Component('c"1', 1, 0, F(1), (fiber('f"1', "I1", (1,)), fiber("f\\2", "II", cusp=True)), True),
        Component("c\\2", 2, 1, F(2), (), has_section=False),
        Component("c\x013", 3, 0, F(1, 2), (fiber("f\u00e9", "I*0", (2, 4)), fiber("f\u4e00", "I3"))),
    )
    glues = (Glue('g"\\', AttachEnd('c"1', 'f"1', T("I1")), AttachEnd("c\\2", "x\n", T("I1"))),)
    trees = (TreeAttachment("c\x013", "f\u00e9", root),)
    return [
        BrokenEllipticSurface(w, components, glues, trees),
        BrokenEllipticSurface(w, components[1:]),
        BrokenEllipticSurface(w, ()),
    ]


def test_written_texts_match_the_oracle_on_odd_ids_and_empty_parts():
    for X in _odd_models():
        text = serialize_model(X)
        assert text == serialize_oracle(X)
        assert serialize_model(X) == text  # the stored texts, warm
        assert parse_model(text, check=False) == X


QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_dot_labels_escape_quotes_and_backslashes():
    # JSON spellings of the ids c"1, c\2, f"1\ and g\1"
    renames = {'"c1"': r'"c\"1"', '"c2"': r'"c\\2"', '"f1"': r'"f\"1\\"', '"g1"': r'"g\\1\""'}
    expected = {
        "glued": ['c"1 (elliptic) g=0 degL=1', "c\\2 (elliptic) g=0 degL=1", 'g\\1": II ~ II*, 1'],
        "tree": ['c"1 (elliptic) g=0 degL=1', "c\\2 (pseudo I) degL=1 via II*"],
    }
    for name, X in (("glued", rational_degeneration(F(1))), ("tree", flipped_degeneration(F(9, 20)))):
        text = serialize_model(X)
        for old, new in renames.items():
            text = text.replace(old, new)
        labels = []
        for line in emit_dot(parse_model(text)).splitlines():
            assert '"' not in QUOTED.sub("", line), line  # every quote opens or closes a string
            labels += [json.loads(q) for q in QUOTED.findall(line)]
        assert set(expected[name]) <= set(labels)
        assert any(label.startswith('f"1\\: I1 a=1 [W] m1') for label in labels)


DOT_EDGE = re.compile(r"^\s*(\S+) -> (\S+) \[")


def test_dot_names_differ_for_ids_that_differ_only_in_symbols():
    # JSON spellings: components c-2 and c_2; components a and a_ whose first
    # fibers are _b and b
    for renames in (
        {'"c1"': '"c-2"', '"c2"': '"c_2"'},
        {'"c1"': '"a"', '"c2"': '"a_"', '"f1"': '"_b"', '"f11"': '"b"'},
    ):
        text = serialize_model(rational_degeneration(F(1)))
        for old, new in renames.items():
            text = text.replace(old, new)
        lines = emit_dot(parse_model(text)).splitlines()
        clusters = [line.split()[1] for line in lines if line.lstrip().startswith("subgraph ")]
        nodes = [line.split()[0] for line in lines if " [shape=" in line]
        edges = [m.groups() for m in map(DOT_EDGE.match, lines) if m]
        assert len(set(clusters)) == len(clusters) == 2, clusters
        assert len(set(nodes)) == len(nodes) == 2 + 12, nodes
        assert edges and all(a != b and {a, b} <= set(nodes) for a, b in edges), edges


DOT_ID = re.compile(r"[A-Za-z_\x80-\xff][A-Za-z0-9_\x80-\xff]*")


def test_dot_names_are_ids_when_an_id_starts_with_a_digit():
    # JSON spellings: components (and the pseudo node c2 of the tree) 1 and
    # 2c, fibers c1, 1 and 2c
    renames = {'"c1"': '"1"', '"c2"': '"2c"', '"f1"': '"c1"', '"f11"': '"1"', '"f2"': '"2c"'}
    for X in (rational_degeneration(F(1)), flipped_degeneration(F(9, 20))):
        text = serialize_model(X)
        for old, new in renames.items():
            text = text.replace(old, new)
        lines = emit_dot(parse_model(text)).splitlines()
        clusters = [line.split()[1] for line in lines if line.lstrip().startswith("subgraph ")]
        nodes = [line.split()[0] for line in lines if " [shape=" in line]
        edges = [m.groups() for m in map(DOT_EDGE.match, lines) if m]
        names = clusters + nodes + [name for edge in edges for name in edge]
        assert all(DOT_ID.fullmatch(name) for name in names), names
        assert len(set(clusters)) == len(clusters) == 2, clusters
        assert len(set(nodes)) == len(nodes), nodes
        assert {"anchor___x31", "__x31__c1", "__x31____x3263", "__x3263____x31"} <= set(nodes)


DROP = object()  # an edit that deletes its field


def _edited(edits):
    """The worked model at weights one, each fiber coefficient "1", with
    `edits` ((path, value) pairs) applied to its object form."""
    obj = model_to_obj(rational_degeneration(F(1)))
    for path, value in edits:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return json.dumps(obj)


C1F1 = ("components", 0, "fibers", 0)  # c1/f1, the first fiber of the document
C1F10 = ("components", 0, "fibers", 1)  # c1/f10, its second
C2F11 = ("components", 1, "fibers", 0)  # c2/f11


@pytest.mark.parametrize("value", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("first", ["1", 1], ids=["string", "integer"])
@pytest.mark.parametrize(
    "path, where",
    [(("weights", 1), "weights[2]"), (C1F1 + ("coeff",), "c1/f1"), (C2F11 + ("coeff",), "c2/f11")],
    ids=["weight", "first-coeff", "later-coeff"],
)
def test_a_literal_read_before_does_not_admit_a_float_or_a_boolean(path, where, first, value):
    # the first weight, read first, is "1" or the JSON integer 1, which the
    # reader takes as its text "1"; the reader parses each literal text once,
    # keyed on that text, so 1.0 and true, whose values equal 1 and hash
    # alike, are still refused
    with pytest.raises(ModelJSONError) as err:
        parse_model(_edited([(("weights", 0), first), (path, value)]))
    assert str(err.value) == (
        f"schema-violation: {where}: bad rational {value!r}"
        f" (invalid literal for int() with base 10: '{value!r}')"
    )


@pytest.mark.parametrize(
    "edits, message",
    [
        (
            [(("weights", 3), "x/2"), (C1F1 + ("coeff",), "x/2")],
            "weights[4]: bad rational 'x/2' (invalid literal for int() with base 10: 'x')",
        ),
        (
            [(C1F10 + ("coeff",), "1/0"), (C2F11 + ("coeff",), "1/0")],
            "c1/f10: bad rational '1/0' (Fraction(1, 0))",
        ),
        (
            [(C1F10 + ("type",), "I*x"), (C2F11 + ("type",), "I*x")],
            "c1/f10: invalid literal for int() with base 10: 'x'",
        ),
        ([(("weights", 0), "3/2"), (("weights", 5), "3/2")], "weights[1]: 3/2 outside [0, 1]"),
    ],
    ids=["weight-then-coeff", "two-coeffs", "two-types", "two-weights-out-of-range"],
)
def test_a_repeated_bad_literal_is_refused_where_it_first_occurs(edits, message):
    for check in (True, False):
        with pytest.raises(ModelJSONError) as err:
            parse_model(_edited(edits), check=check)
        assert str(err.value) == "schema-violation: " + message


@pytest.mark.parametrize(
    "edits, message",
    [
        ([(C2F11 + ("coeff",), DROP)], "c2: missing field 'coeff'"),
        ([(C2F11 + ("type",), DROP)], "c2: missing field 'type'"),
        ([(C2F11 + ("coeff",), None)], "c2/f11: bad rational None (invalid literal for int() with base 10: 'None')"),
        ([(C2F11 + ("coeff",), "7/6")], "c2/f11: coefficient 7/6 outside [0, 1]"),
        ([(C2F11 + ("state",), None)], "c2/f11: unknown state 'None'"),
        ([(C2F11 + ("state",), "weierstrass")], "c2/f11: unknown state 'weierstrass'"),
        # the fields are refused in the order they are read: type before coeff
        (
            [(C2F11 + ("type",), "I*x"), (C2F11 + ("coeff",), DROP)],
            "c2/f11: invalid literal for int() with base 10: 'x'",
        ),
        (
            [(C2F11 + ("coeff",), "x"), (C2F11 + ("state",), "Sideways")],
            "c2/f11: bad rational 'x' (invalid literal for int() with base 10: 'x')",
        ),
    ],
    ids=[
        "no-coeff",
        "no-type",
        "null-coeff",
        "coeff-above-one",
        "null-state",
        "lower-case-state",
        "type-then-coeff",
        "coeff-then-state",
    ],
)
def test_a_fiber_is_checked_whenever_its_texts_are_new(edits, message):
    # the ten fibers of c1 are read first, each with the texts ("I1", "1",
    # "Weierstrass"); c2/f11, read after them with one field changed, is
    # refused as the first fiber of the document would be
    for check in (True, False):
        with pytest.raises(ModelJSONError) as err:
            parse_model(_edited(edits), check=check)
        assert str(err.value) == "schema-violation: " + message


def _model_texts():
    """Every model file of the repository, and every model in the golden
    `reduce` traces, in the layout `serialize_model` writes."""
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "tests" / "golden").glob("*.json")) + sorted((root / "tests" / "data").glob("*.json"))
    paths.append(root / "demos" / "data" / "rational_example.json")
    texts = []
    for path in paths:
        obj = json.loads(path.read_text())
        if isinstance(obj, dict) and "weights" in obj and "vertex" in obj["components"][0]:
            texts.append((path.name, path.read_text()))
        elif isinstance(obj, dict) and "records" in obj:
            models = [rec["snapshot_after"] for rec in obj["records"]] + [obj["final"]]
            texts += [(path.name, json.dumps(m, indent=2) + "\n") for m in models]
    return texts


def test_every_model_file_round_trips_byte_for_byte():
    texts = _model_texts()
    for name, text in texts:
        assert serialize_model(parse_model(text, check=False)) == text, name
    assert len({name for name, _ in texts}) == 19 and len(texts) >= 33
