import json
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from mmp_elliptic.dot import emit_dot
from mmp_elliptic.kodaira import parse_fiber_type
from mmp_elliptic.modeljson import ModelJSONError, model_to_obj, parse_model, serialize_model
from mmp_elliptic.reduction import reduce
from mmp_elliptic.curves import WeightVector
from mmp_elliptic.surfaces import AttachEnd, BrokenEllipticSurface, Component, Glue

from modelkit import flipped_degeneration, mk_fiber, random_model, random_target, rational_degeneration
from oracles import serialize_oracle

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
    ],
    ids=["vertex-x", "markers-a", "genus-null", "component-5", "weights-5"],
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


def test_state_defaults_to_model_state():
    obj = model_to_obj(rational_degeneration(F(1)))
    for comp in obj["components"]:
        for fib in comp["fibers"]:
            fib.pop("state", None)
    X = parse_model(json.dumps(obj))
    assert X == rational_degeneration(F(1))


def _chain_cascade(rng, n, k):
    """A path of n components, each with two I1 markers at 3/4, glued II* ~ II,
    and a target that lowers the first 2k markers: k La Nave flips from the
    leaf inwards, each flipped tree collapsing to a point."""
    w = WeightVector(tuple([F(3, 4)] * (2 * n)))
    comps = [
        Component(f"c{j}", j, 0, F(1), tuple(mk_fiber(f"c{j}m{s}", "I1", 2 * j - 2 + s, w) for s in (1, 2)))
        for j in range(1, n + 1)
    ]
    glues = [
        Glue(f"g{j}", AttachEnd(f"c{j - 1}", f"c{j - 1}next", parse_fiber_type("II*")),
             AttachEnd(f"c{j}", f"c{j}prev", parse_fiber_type("II")))
        for j in range(2, n + 1)
    ]
    target = [F(rng.randint(1, 3), 8 * k) for _ in range(2 * k)] + list(w.entries[2 * k:])
    return BrokenEllipticSurface(w, tuple(comps), tuple(glues)), WeightVector(tuple(target))


def _walks():
    """Each start with its snapshots and final, in walk order: 300 seeded
    random walks (isotrivial trees, targets down to where sections contract)
    and a few chain cascades."""
    rng = random.Random(808)
    starts = []
    for _ in range(300):
        X = random_model(rng, allow_isotrivial=True)
        starts.append((X, random_target(rng, X.weights)))
    starts += [_chain_cascade(rng, n, k) for n, k in ((4, 1), (6, 2), (8, 3), (12, 3))]
    for X, target in starts:
        trace = reduce(X, target)
        yield [X] + [rec.snapshot_after for rec in trace.records] + [trace.final]


def _nested(X):
    return any(link for t in X.trees for n in t.root.nodes() for link in n.children)


def test_stored_texts_match_a_cold_copy_and_the_oracle():
    seen = {"models": 0, "type II": 0, "nested": 0, "isotrivial": 0}
    for walk in _walks():
        for X in walk:  # later snapshots share the stored texts of earlier ones
            oracle = serialize_oracle(X)
            cold = parse_model(oracle, check=False)
            assert serialize_model(X) == serialize_model(cold) == oracle
            assert emit_dot(X) == emit_dot(cold)
            seen["models"] += 1
            seen["type II"] += bool(X.pseudo2)
            seen["nested"] += _nested(X)
            seen["isotrivial"] += any(n.isotrivial_jinf for t in X.trees for n in t.root.nodes())
    assert seen["models"] >= 1000 and min(seen.values()) > 0, seen


def test_a_replaced_component_gets_a_new_text():
    X = rational_degeneration(F(1))
    text, dot = serialize_model(X), emit_dot(X)
    c1 = X.component("c1")
    f = c1.fibers[0]
    Y = replace(X, components=(replace(c1, fibers=(replace(f, coeff=F(1, 2)),) + c1.fibers[1:]),) + X.components[1:])
    assert serialize_model(Y) == serialize_oracle(Y) != text
    assert emit_dot(Y) == emit_dot(parse_model(serialize_oracle(Y), check=False)) != dot
    assert (serialize_model(X), emit_dot(X)) == (text, dot)


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
