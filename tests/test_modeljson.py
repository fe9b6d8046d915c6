import json
from fractions import Fraction

import pytest

from mmp_elliptic.modeljson import ModelJSONError, model_to_obj, parse_model, serialize_model
from mmp_elliptic.reduction import reduce
from mmp_elliptic.curves import WeightVector

from modelkit import flipped_degeneration, random_model, rational_degeneration

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
