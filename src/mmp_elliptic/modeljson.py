"""JSON wire format for broken-surface models.

The schema mirrors the in-memory types one to one so that every structural
invariant is checkable at parse time: a weight list, a component list (kind
"elliptic" with a section, "pseudo2" without), a top-level attachment list
pairing the two ends of each gluing, and nested pseudoelliptic trees.
Parsing validates; serialization is canonical and round-trips exactly.

`model_from_obj` reads one document through a `_Reader`, which parses each
literal text and each fiber type text once, at its first occurrence, and is
dropped when the call returns.  The reader range-checks every weight and
coefficient on the integers of the `Fraction` it read, and builds the weight
vector through `WeightVector._make`, the unchecked trusted rebuild, so the
weights are not checked a second time.

`serialize_model` writes the text directly: the bytes `json.dumps(indent=2)`
gives for the model's object form, without building that object or running
json's pure-Python indent encoder.  Each schema object (fiber, pseudo node with
its children, component, glue, tree) has one writer, an f-string laid out for
its depth, and every id goes through json's own escaper (`quote`).  The
weights, the trees and the frame of the four lists are written on every call.
The text of each `Component` and `Glue` is stored in the record's instance
dict on first use (`surfaces.stored_text`), so a walk writes a component
that several snapshots share once.  A stored text cannot go stale: a record's fields
cannot be assigned, and a rewrite, through a constructor or `_replace`,
builds new records, which start with an empty instance dict.  The CLI's `reduce` trace
re-indents these model texts to their depth.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as quote

from .curves import WeightVector
from .kodaira import FiberState, KodairaType, UnsupportedFiberType, fiber_model_at, parse_fiber_type
from .rationals import json_bool, json_int, rat_from_str, rat_to_str
from .surfaces import (
    AttachEnd,
    BrokenEllipticSurface,
    ChildLink,
    Component,
    Glue,
    MarkedFiber,
    PseudoComponent,
    TreeAttachment,
    stored_text,
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
        return json_int(value)
    except ValueError as exc:
        raise ModelJSONError("schema-violation", f"{where}: {exc}")


def _bool(value, where: str) -> bool:
    try:
        return json_bool(value)
    except ValueError as exc:
        raise ModelJSONError("schema-violation", f"{where}: {exc}")


class _Reader:
    """The reader of one document.  Each literal and each fiber type is parsed
    once: the reader keeps literal text -> `Fraction` and type text ->
    `KodairaType` for the call that made it, and drops both with it.  Both
    are keyed on `str` of the JSON value, never on the value itself: `1`,
    `1.0` and `true` hash alike, and a value key would take `1.0` or `true`
    wherever `"1"` came first.  Only successful parses are kept, so a bad
    literal is refused with the `where` of its first occurrence."""

    def __init__(self) -> None:
        self.rats: dict[str, Fraction] = {}
        self.types: dict[str, KodairaType] = {}

    def rational(self, value, where: str) -> Fraction:
        text = str(value)
        q = self.rats.get(text)
        if q is None:
            try:
                q = self.rats[text] = rat_from_str(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ModelJSONError("schema-violation", f"{where}: bad rational {value!r} ({exc})")
        return q

    def ftype(self, value, where: str) -> KodairaType:
        text = str(value)
        ftype = self.types.get(text)
        if ftype is None:
            try:
                ftype = self.types[text] = parse_fiber_type(text)
            except ValueError as exc:
                raise ModelJSONError("schema-violation", f"{where}: {exc}")
        return ftype

    def fiber(self, obj: dict, where: str) -> MarkedFiber:
        fid = str(_need(obj, "id", where))
        here = f"{where}/{fid}"
        ftype = self.ftype(_need(obj, "type", where), here)
        coeff = self.rational(_need(obj, "coeff", where), here)
        if not 0 <= coeff.numerator <= coeff.denominator:
            raise ModelJSONError(
                "schema-violation", f"{here}: coefficient {rat_to_str(coeff)} outside [0, 1]"
            )
        state_name = str(obj.get("state", ""))
        if state_name:
            if state_name not in _STATES:
                raise ModelJSONError("schema-violation", f"{here}: unknown state {state_name!r}")
            state = _STATES[state_name]
        else:
            try:
                state = fiber_model_at(ftype, coeff)
            except UnsupportedFiberType:
                state = FiberState.WEIERSTRASS
        markers_where = f"{here}/markers"
        markers = frozenset(_int(i, markers_where) for i in _list(obj, "markers", here))
        cusp = _bool(obj.get("nonminimal_cusp", False), f"{here}/nonminimal_cusp")
        return MarkedFiber(fid, ftype, coeff, state, markers, cusp)

    def node(self, obj: dict, where: str) -> PseudoComponent:
        pid = str(_need(obj, "id", where))
        here = f"{where}/{pid}"
        fibers = tuple(self.fiber(f, here) for f in _list(obj, "fibers", here))
        children = []
        for child in _list(obj, "children", here):
            via = str(_need(child, "via_fiber", here))
            children.append(ChildLink(via, self.node(_need(child, "node", here), here)))
        return PseudoComponent(
            pid=pid,
            degL=self.rational(_need(obj, "degL", here), here),
            attach_ftype=self.ftype(_need(obj, "attach_type", here), here),
            fibers=fibers,
            children=tuple(children),
            isotrivial_jinf=_bool(obj.get("isotrivial_jinf", False), f"{here}/isotrivial_jinf"),
        )

    def end(self, obj: dict, where: str) -> AttachEnd:
        return AttachEnd(
            str(_need(obj, "component", where)),
            str(_need(obj, "fiber", where)),
            self.ftype(_need(obj, "type", where), where),
        )


def model_from_obj(obj: dict, check: bool = True) -> BrokenEllipticSurface:
    if not isinstance(obj, dict):
        raise ModelJSONError("schema-violation", "top level must be an object")
    read = _Reader()
    raw_weights = _list(obj, "weights", "model", required=True)
    weights_list = [
        read.rational(w, f"weights[{i}]") for i, w in enumerate(raw_weights, start=1)
    ]
    for i, w in enumerate(weights_list, start=1):
        if not 0 <= w.numerator <= w.denominator:
            raise ModelJSONError(
                "schema-violation", f"weights[{i}]: {rat_to_str(w)} outside [0, 1]"
            )
    # every entry is a `Fraction` checked to lie in [0, 1] just above
    weights = WeightVector._make((tuple(weights_list),))

    components = []
    for cobj in _list(obj, "components", "model", required=True):
        cid = str(_need(cobj, "id", "components"))
        kind = str(cobj.get("kind", "elliptic"))
        fibers = tuple(read.fiber(f, cid) for f in _list(cobj, "fibers", cid))
        fields = dict(
            cid=cid,
            vertex=_int(_need(cobj, "vertex", cid), f"{cid}/vertex"),
            genus=_int(_need(cobj, "genus", cid), f"{cid}/genus"),
            degL=read.rational(_need(cobj, "degL", cid), cid),
            fibers=fibers,
            isotrivial_jinf=_bool(cobj.get("isotrivial_jinf", False), f"{cid}/isotrivial_jinf"),
        )
        if kind not in _KINDS:
            raise ModelJSONError("schema-violation", f"{cid}: unknown component kind {kind!r}")
        components.append(Component(**fields, has_section=_KINDS[kind]))

    glues = []
    for gobj in _list(obj, "attachments", "model"):
        gid = str(_need(gobj, "id", "attachments"))
        glues.append(
            Glue(gid, read.end(_need(gobj, "a", gid), gid), read.end(_need(gobj, "b", gid), gid))
        )

    trees = []
    for tobj in _list(obj, "trees", "model"):
        trees.append(
            TreeAttachment(
                str(_need(tobj, "host", "trees")),
                str(_need(tobj, "host_fiber", "trees")),
                read.node(_need(tobj, "root", "trees"), "trees"),
            )
        )

    surface = BrokenEllipticSurface(weights, tuple(components), tuple(glues), tuple(trees))
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


def json_list(items: list[str], pad: str) -> str:
    """The JSON list of `items` as `json.dumps(indent=2)` lays it out with its
    closing bracket indented by `pad`; each item is already laid out for the
    indent `pad` plus two spaces."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _fiber_text(f: MarkedFiber, pad: str) -> str:
    p = pad + "  "
    markers = json_list([str(i) for i in sorted(f.markers)], p)
    cusp = f',\n{p}"nonminimal_cusp": true' if f.nonminimal_cusp else ""
    return (
        f'{{\n{p}"id": {quote(f.fid)},\n'
        f'{p}"type": "{f.ftype!s}",\n'
        f'{p}"coeff": "{rat_to_str(f.coeff)}",\n'
        f'{p}"state": "{f.state!s}",\n'
        f'{p}"markers": {markers}{cusp}\n{pad}}}'
    )


def _node_text(n: PseudoComponent, pad: str) -> str:
    p = pad + "  "
    q = p + "  "
    fibers = json_list([_fiber_text(f, q) for f in n.fibers], p)
    links = [
        f'{{\n{q}  "via_fiber": {quote(link.via_fiber)},\n'
        f'{q}  "node": {_node_text(link.node, q + "  ")}\n{q}}}'
        for link in n.children
    ]
    jinf = f',\n{p}"isotrivial_jinf": true' if n.isotrivial_jinf else ""
    return (
        f'{{\n{p}"id": {quote(n.pid)},\n'
        f'{p}"degL": "{rat_to_str(n.degL)}",\n'
        f'{p}"attach_type": "{n.attach_ftype!s}",\n'
        f'{p}"fibers": {fibers},\n'
        f'{p}"children": {json_list(links, p)}{jinf}\n{pad}}}'
    )


# components, glues and trees are entries of the top-level lists: closing
# brace at four spaces, keys at six


def _component_text(c: Component) -> str:
    fibers = json_list([_fiber_text(f, "        ") for f in c.fibers], "      ")
    return (
        f'{{\n      "id": {quote(c.cid)},\n'
        f'      "kind": "{"elliptic" if c.has_section else "pseudo2"}",\n'
        f'      "vertex": {c.vertex},\n'
        f'      "genus": {c.genus},\n'
        f'      "degL": "{rat_to_str(c.degL)}",\n'
        f'      "isotrivial_jinf": {"true" if c.isotrivial_jinf else "false"},\n'
        f'      "fibers": {fibers}\n    }}'
    )


def _end_text(e: AttachEnd) -> str:
    return (
        f'{{\n        "component": {quote(e.component)},\n'
        f'        "fiber": {quote(e.fiber_id)},\n'
        f'        "type": "{e.ftype!s}"\n      }}'
    )


def _glue_text(g: Glue) -> str:
    return (
        f'{{\n      "id": {quote(g.gid)},\n'
        f'      "a": {_end_text(g.a)},\n'
        f'      "b": {_end_text(g.b)}\n    }}'
    )


def _tree_text(t: TreeAttachment) -> str:
    return (
        f'{{\n      "host": {quote(t.host_component)},\n'
        f'      "host_fiber": {quote(t.host_fiber)},\n'
        f'      "root": {_node_text(t.root, "      ")}\n    }}'
    )


def serialize_model(X: BrokenEllipticSurface) -> str:
    """Canonical JSON text: fixed key order, sorted components, two-space indent;
    the bytes `json.dumps(indent=2)` gives for the model's object form, and a
    newline."""
    lists = {
        "weights": ['"' + rat_to_str(w) + '"' for w in X.weights.entries],
        "components": [stored_text(c, "_json_text", _component_text) for c in X.components],
        "attachments": [stored_text(g, "_json_text", _glue_text) for g in X.glues],
        "trees": [_tree_text(t) for t in X.trees],
    }
    body = ",\n".join(f'  "{key}": {json_list(items, "  ")}' for key, items in lists.items())
    return "{\n" + body + "\n}\n"
