"""JSON wire format for broken-surface models.

The schema mirrors the in-memory types one to one so that every structural
invariant is checkable at parse time: a weight list, a component list (kind
"elliptic" with a section, "pseudo2" without), a top-level attachment list
pairing the two ends of each gluing, and nested pseudoelliptic trees.
Parsing validates; serialization is canonical and round-trips exactly.

`serialize_model` keeps the text of each frozen `Component` and `Glue` on the
object (`stored_text`), laid out on first use by the builders behind
`model_to_obj`; a rewrite builds new objects, so a stored text cannot go
stale, and a walk lays out each shared one once.  Weights and trees are laid
out on every call.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .curves import WeightVector
from .kodaira import FiberState, KodairaType, UnsupportedFiberType, fiber_model_at, parse_fiber_type
from .rationals import rat_from_str, rat_to_str
from .surfaces import (
    AttachEnd,
    BrokenEllipticSurface,
    ChildLink,
    Component,
    Glue,
    MarkedFiber,
    PseudoComponent,
    TreeAttachment,
    validate,
)

_KINDS = {"elliptic": True, "pseudo2": False}  # JSON kind -> has_section

_STATES = {
    "Weierstrass": FiberState.WEIERSTRASS,
    "Intermediate": FiberState.INTERMEDIATE,
    "Twisted": FiberState.TWISTED,
}


class ModelJSONError(Exception):
    """Parse failure with a machine-readable kind.

    kind is one of "malformed-json", "schema-violation", "model-invalid";
    the last embeds the validator's findings.
    """

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise ModelJSONError("schema-violation", f"{where}: expected an object, got {obj!r}")
    if key not in obj:
        raise ModelJSONError("schema-violation", f"{where}: missing field {key!r}")
    return obj[key]


def _list(obj: dict, key: str, where: str, required: bool = False) -> list:
    value = _need(obj, key, where) if required else obj.get(key, [])
    if not isinstance(value, list):
        raise ModelJSONError("schema-violation", f"{where}: {key!r} must be a list, got {value!r}")
    return value


def _int(value, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ModelJSONError("schema-violation", f"{where}: bad integer {value!r}")


def _rational(value, where: str) -> Fraction:
    try:
        return rat_from_str(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelJSONError("schema-violation", f"{where}: bad rational {value!r} ({exc})")


def _ftype(value, where: str) -> KodairaType:
    try:
        return parse_fiber_type(str(value))
    except ValueError as exc:
        raise ModelJSONError("schema-violation", f"{where}: {exc}")


def _fiber(obj: dict, where: str) -> MarkedFiber:
    fid = str(_need(obj, "id", where))
    ftype = _ftype(_need(obj, "type", where), f"{where}/{fid}")
    coeff = _rational(_need(obj, "coeff", where), f"{where}/{fid}")
    if not 0 <= coeff <= 1:
        raise ModelJSONError(
            "schema-violation", f"{where}/{fid}: coefficient {rat_to_str(coeff)} outside [0, 1]"
        )
    state_name = str(obj.get("state", ""))
    if state_name:
        if state_name not in _STATES:
            raise ModelJSONError("schema-violation", f"{where}/{fid}: unknown state {state_name!r}")
        state = _STATES[state_name]
    else:
        try:
            state = fiber_model_at(ftype, coeff)
        except UnsupportedFiberType:
            state = FiberState.WEIERSTRASS
    markers = frozenset(
        _int(i, f"{where}/{fid}/markers") for i in _list(obj, "markers", f"{where}/{fid}")
    )
    return MarkedFiber(fid, ftype, coeff, state, markers, bool(obj.get("nonminimal_cusp", False)))


def _node(obj: dict, where: str) -> PseudoComponent:
    pid = str(_need(obj, "id", where))
    fibers = tuple(_fiber(f, f"{where}/{pid}") for f in _list(obj, "fibers", f"{where}/{pid}"))
    children = []
    for child in _list(obj, "children", f"{where}/{pid}"):
        via = str(_need(child, "via_fiber", f"{where}/{pid}"))
        children.append(ChildLink(via, _node(_need(child, "node", f"{where}/{pid}"), f"{where}/{pid}")))
    return PseudoComponent(
        pid=pid,
        degL=_rational(_need(obj, "degL", f"{where}/{pid}"), f"{where}/{pid}"),
        attach_ftype=_ftype(_need(obj, "attach_type", f"{where}/{pid}"), f"{where}/{pid}"),
        fibers=fibers,
        children=tuple(children),
        isotrivial_jinf=bool(obj.get("isotrivial_jinf", False)),
    )


def _end(obj: dict, where: str) -> AttachEnd:
    return AttachEnd(
        str(_need(obj, "component", where)),
        str(_need(obj, "fiber", where)),
        _ftype(_need(obj, "type", where), where),
    )


def model_from_obj(obj: dict, check: bool = True) -> BrokenEllipticSurface:
    if not isinstance(obj, dict):
        raise ModelJSONError("schema-violation", "top level must be an object")
    raw_weights = _list(obj, "weights", "model", required=True)
    weights_list = [
        _rational(w, f"weights[{i}]") for i, w in enumerate(raw_weights, start=1)
    ]
    for i, w in enumerate(weights_list, start=1):
        if not 0 <= w <= 1:
            raise ModelJSONError(
                "schema-violation", f"weights[{i}]: {rat_to_str(w)} outside [0, 1]"
            )
    try:
        weights = WeightVector(tuple(weights_list))
    except ValueError as exc:
        raise ModelJSONError("schema-violation", f"weights: {exc}")

    components = []
    for cobj in _list(obj, "components", "model", required=True):
        cid = str(_need(cobj, "id", "components"))
        kind = str(cobj.get("kind", "elliptic"))
        fibers = tuple(_fiber(f, cid) for f in _list(cobj, "fibers", cid))
        fields = dict(
            cid=cid,
            vertex=_int(_need(cobj, "vertex", cid), f"{cid}/vertex"),
            genus=_int(_need(cobj, "genus", cid), f"{cid}/genus"),
            degL=_rational(_need(cobj, "degL", cid), cid),
            fibers=fibers,
            isotrivial_jinf=bool(cobj.get("isotrivial_jinf", False)),
        )
        if kind not in _KINDS:
            raise ModelJSONError("schema-violation", f"{cid}: unknown component kind {kind!r}")
        components.append(Component(**fields, has_section=_KINDS[kind]))

    glues = []
    for gobj in _list(obj, "attachments", "model"):
        gid = str(_need(gobj, "id", "attachments"))
        glues.append(
            Glue(gid, _end(_need(gobj, "a", gid), gid), _end(_need(gobj, "b", gid), gid))
        )

    trees = []
    for tobj in _list(obj, "trees", "model"):
        trees.append(
            TreeAttachment(
                str(_need(tobj, "host", "trees")),
                str(_need(tobj, "host_fiber", "trees")),
                _node(_need(tobj, "root", "trees"), "trees"),
            )
        )

    try:
        surface = BrokenEllipticSurface(weights, tuple(components), tuple(glues), tuple(trees))
    except (ValueError, KeyError) as exc:
        raise ModelJSONError("schema-violation", str(exc))
    if check:
        problems = validate(surface)
        if problems:
            raise ModelJSONError(
                "model-invalid", "; ".join(str(p) for p in problems)
            )
    return surface


def parse_model(text: str | bytes, check: bool = True) -> BrokenEllipticSurface:
    """Parse and validate a model; errors carry line/field context."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelJSONError("malformed-json", f"line {exc.lineno} col {exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise ModelJSONError("malformed-json", f"byte {exc.start}: {exc.reason}")
    return model_from_obj(obj, check=check)


def _fiber_obj(f: MarkedFiber) -> dict:
    out = {
        "id": f.fid,
        "type": str(f.ftype),
        "coeff": rat_to_str(f.coeff),
        "state": str(f.state),
        "markers": sorted(f.markers),
    }
    if f.nonminimal_cusp:
        out["nonminimal_cusp"] = True
    return out


def _node_obj(n: PseudoComponent) -> dict:
    out = {
        "id": n.pid,
        "degL": rat_to_str(n.degL),
        "attach_type": str(n.attach_ftype),
        "fibers": [_fiber_obj(f) for f in n.fibers],
        "children": [
            {"via_fiber": l.via_fiber, "node": _node_obj(l.node)} for l in n.children
        ],
    }
    if n.isotrivial_jinf:
        out["isotrivial_jinf"] = True
    return out


def _component_obj(c: Component) -> dict:
    return {
        "id": c.cid,
        "kind": "elliptic" if c.has_section else "pseudo2",
        "vertex": c.vertex,
        "genus": c.genus,
        "degL": rat_to_str(c.degL),
        "isotrivial_jinf": c.isotrivial_jinf,
        "fibers": [_fiber_obj(f) for f in c.fibers],
    }


def _end_obj(e: AttachEnd) -> dict:
    return {"component": e.component, "fiber": e.fiber_id, "type": str(e.ftype)}


def _glue_obj(g: Glue) -> dict:
    return {"id": g.gid, "a": _end_obj(g.a), "b": _end_obj(g.b)}


def _tree_obj(t: TreeAttachment) -> dict:
    return {"host": t.host_component, "host_fiber": t.host_fiber, "root": _node_obj(t.root)}


def model_to_obj(X: BrokenEllipticSurface) -> dict:
    return {
        "weights": [rat_to_str(w) for w in X.weights.entries],
        "components": [_component_obj(c) for c in X.components],
        "attachments": [_glue_obj(g) for g in X.glues],
        "trees": [_tree_obj(t) for t in X.trees],
    }


def stored_text(obj, key: str, build) -> str:
    """`build(obj)`, kept under `key` in the instance dict of the frozen `obj`:
    like the surface index, built on first use, it lives and dies with `obj`."""
    memo = obj.__dict__
    if key not in memo:
        memo[key] = build(obj)
    return memo[key]


def _entry(obj) -> str:
    """`obj` laid out as `json.dumps(indent=2)` lays out an entry of a top-level list."""
    return json.dumps(obj, indent=2).replace("\n", "\n    ")


def serialize_model(X: BrokenEllipticSurface) -> str:
    """Canonical JSON text: fixed key order, sorted components, two-space indent;
    the bytes of `json.dumps(model_to_obj(X), indent=2)` and a newline."""
    lists = {
        "weights": [json.dumps(rat_to_str(w)) for w in X.weights.entries],
        "components": [
            stored_text(c, "_json_text", lambda o: _entry(_component_obj(o))) for c in X.components
        ],
        "attachments": [stored_text(g, "_json_text", lambda o: _entry(_glue_obj(o))) for g in X.glues],
        "trees": [_entry(_tree_obj(t)) for t in X.trees],
    }
    body = ",\n".join(
        f'  "{key}": ' + ("[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]")
        for key, items in lists.items()
    )
    return "{\n" + body + "\n}\n"
