"""JSON wire format for broken-surface models.

The schema mirrors the in-memory types one to one so that every structural
invariant is checkable at parse time: a weight list, a component list (kind
"elliptic" with a section, "pseudo2" without), a top-level attachment list
pairing the two ends of each gluing, and nested pseudoelliptic trees.
Parsing validates; serialization is canonical and round-trips exactly.

`model_from_obj` reads one document in one pass through a `_Reader`, which is
dropped when the call returns.  It parses each literal and type text, and
reads and range-checks each fiber's (type, coeff, state) texts, once, at their
first occurrence; it builds an error's `where` text only when it raises.  Each
weight, fiber and component is built through the unchecked trusted rebuild
(`WeightVector._make`, `tuple.__new__`) from parts already checked and sorted,
so nothing is checked a second time.

`serialize_model` writes the text directly: the bytes `json.dumps(indent=2)`
gives for the model's object form, without building that object or running
json's pure-Python indent encoder.  Each schema object (fiber, pseudo node with
its children, component, glue, tree) has one writer, an f-string laid out for
its depth; every id goes through json's own escaper (`quote`), a rational is
written as `!s` (what `rat_to_str` gives, without the call) and a state from
the `STATE_NAMES` table.  The weights' texts are kept on the weight vector
(`curves._texts_of`), where the walk sets a snapshot's, writing only its
moved entries; the frame of the four lists is written on every call.  The
text of each `Component`, `Glue` and `TreeAttachment` is stored in the
record's instance dict on first use (`surfaces.stored_texts`), so a walk
writes a component or a tree that several snapshots share once.  A stored
text cannot go stale: a record's fields cannot be assigned, and a rewrite,
through a constructor or `_replace`, builds new records, which start with an
empty instance dict.  The CLI's `reduce` trace re-indents these model texts
to their depth.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import attrgetter, itemgetter

from .curves import WeightVector, _texts_of
from .kodaira import STATE_NAMES, FiberState, KodairaType, UnsupportedFiberType, fiber_model_at, parse_fiber_type
from .rationals import json_bool, json_int, json_list, quote, rat_from_str, rat_to_str
from .surfaces import (
    AttachEnd,
    BrokenEllipticSurface,
    ChildLink,
    Component,
    Glue,
    MarkedFiber,
    PseudoComponent,
    TreeAttachment,
    stored_texts,
    validate,
)

_FID = attrgetter("fid")
_END = itemgetter("component", "fiber", "type")
_KINDS = {"elliptic": True, "pseudo2": False}  # JSON kind -> has_section

_STATES = {name: FiberState(i) for i, name in enumerate(STATE_NAMES)}


class ModelJSONError(Exception):
    """Parse failure with a machine-readable kind.

    kind is one of "malformed-json", "schema-violation", "model-invalid";
    the last embeds the validator's findings.
    """

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


def _schema(where: tuple[str, ...], detail: str) -> ModelJSONError:
    """A refusal at `where`, the path of a field as the tuple of its parts, as
    every `where` below is; the parts are joined by "/" only here."""
    return ModelJSONError("schema-violation", f"{'/'.join(where)}: {detail}")


def _need(obj: dict, key: str, where: tuple[str, ...]):
    if not isinstance(obj, dict):
        raise _schema(where, f"expected an object, got {obj!r}")
    if key not in obj:
        raise _schema(where, f"missing field {key!r}")
    return obj[key]


def _list(obj: dict, key: str, where: tuple[str, ...], required: bool = False) -> list:
    value = _need(obj, key, where) if required else obj.get(key, [])
    if not isinstance(value, list):
        raise _schema(where, f"{key!r} must be a list, got {value!r}")
    return value


def _int(value, where: tuple[str, ...]) -> int:
    try:
        return json_int(value)
    except ValueError as exc:
        raise _schema(where, str(exc))


def _bool(value, where: tuple[str, ...]) -> bool:
    try:
        return json_bool(value)
    except ValueError as exc:
        raise _schema(where, str(exc))


class _Reader:
    """The reader of one document.  Each literal and type text is parsed once
    per process (`rat_from_str`, `parse_fiber_type`), and the reader keeps,
    for the call that made it, each fiber's (type, coeff, state) texts -> its
    checked (type, coefficient, state), so each distinct fiber is
    range-checked and given its state once.  The texts are `str` of the JSON
    values, never the values: `1`, `1.0` and `true` hash alike, and a value
    key would take `1.0` or `true` wherever `"1"` came first.  A missing field
    reads as `None`, whose text no parse accepts, and only a parse that
    succeeds is kept, so a bad or missing field is refused at its first
    occurrence, in the order the fields are read.  A flag or a count of the
    right JSON type is taken as it is, with no call."""

    def __init__(self) -> None:
        self.fields: dict[tuple[str, str, str], tuple[KodairaType, Fraction, FiberState]] = {}

    def rational(self, value, where: tuple[str, ...]) -> Fraction:
        try:
            return rat_from_str(str(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise _schema(where, f"bad rational {value!r} ({exc})")

    def ftype(self, value, where: tuple[str, ...]) -> KodairaType:
        try:
            return parse_fiber_type(str(value))
        except ValueError as exc:
            raise _schema(where, str(exc))

    def fiber(self, obj: dict, where: tuple[str, ...]) -> MarkedFiber:
        fid = str(_need(obj, "id", where))
        key = (str(obj.get("type")), str(obj.get("coeff")), str(obj.get("state", "")))
        fields = self.fields.get(key)
        if fields is None:  # the first fiber with these texts reads and checks them
            ftype = self.ftype(_need(obj, "type", where), (*where, fid))
            coeff = self.rational(_need(obj, "coeff", where), (*where, fid))
            if not 0 <= coeff.numerator <= coeff.denominator:
                raise _schema((*where, fid), f"coefficient {rat_to_str(coeff)} outside [0, 1]")
            if key[2] and key[2] not in _STATES:
                raise _schema((*where, fid), f"unknown state {key[2]!r}")
            try:
                state = _STATES[key[2]] if key[2] else fiber_model_at(ftype, coeff)
            except UnsupportedFiberType:
                state = FiberState.WEIERSTRASS
            fields = self.fields[key] = (ftype, coeff, state)
        raw = obj.get("markers", [])
        if not isinstance(raw, list):
            raise _schema((*where, fid), f"'markers' must be a list, got {raw!r}")
        try:
            markers = frozenset(map(json_int, raw))
        except ValueError as exc:
            raise _schema((*where, fid, "markers"), str(exc))
        if len(markers) != len(raw):
            raise _schema((*where, fid, "markers"), f"repeated marker {next(i for i in raw if raw.count(i) > 1)}")
        cusp = obj.get("nonminimal_cusp", False)
        cusp = cusp if type(cusp) is bool else _bool(cusp, (*where, fid, "nonminimal_cusp"))
        # the coefficient is range-checked with its texts: the trusted rebuild
        return tuple.__new__(MarkedFiber, (fid, *fields, markers, cusp))

    def component(self, obj: dict) -> Component:
        at = (cid := str(_need(obj, "id", ("components",))),)
        kind = str(obj.get("kind", "elliptic"))
        fibers = sorted([self.fiber(f, at) for f in _list(obj, "fibers", at)], key=_FID)
        vertex = v if type(v := obj.get("vertex")) is int else _int(_need(obj, "vertex", at), (cid, "vertex"))
        genus = g if type(g := obj.get("genus")) is int else _int(_need(obj, "genus", at), (cid, "genus"))
        degL = self.rational(_need(obj, "degL", at), at)
        jinf = j if type(j := obj.get("isotrivial_jinf", False)) is bool else _bool(j, (cid, "isotrivial_jinf"))
        if kind not in _KINDS:
            raise _schema(at, f"unknown component kind {kind!r}")
        # the fibers are sorted as the public constructor sorts them: the trusted rebuild
        return tuple.__new__(Component, (cid, vertex, genus, degL, tuple(fibers), jinf, _KINDS[kind]))

    def node(self, obj: dict, where: tuple[str, ...]) -> PseudoComponent:
        here = (*where, str(_need(obj, "id", where)))
        fibers = tuple(self.fiber(f, here) for f in _list(obj, "fibers", here))
        children = []
        for child in _list(obj, "children", here):
            via = str(_need(child, "via_fiber", here))
            children.append(ChildLink(via, self.node(_need(child, "node", here), here)))
        return PseudoComponent(
            pid=here[-1],
            degL=self.rational(_need(obj, "degL", here), here),
            attach_ftype=self.ftype(_need(obj, "attach_type", here), here),
            fibers=fibers,
            children=tuple(children),
            isotrivial_jinf=_bool(obj.get("isotrivial_jinf", False), (*here, "isotrivial_jinf")),
        )

    def end(self, obj: dict, where: tuple[str, ...]) -> AttachEnd:
        try:
            component, fiber, ftype = _END(obj)
        except (KeyError, TypeError):
            for key in ("component", "fiber", "type"):  # the first field missed raises
                _need(obj, key, where)
            raise
        return tuple.__new__(AttachEnd, (str(component), str(fiber), self.ftype(ftype, where)))


def model_from_obj(obj: dict, check: bool = True) -> BrokenEllipticSurface:
    if not isinstance(obj, dict):
        raise ModelJSONError("schema-violation", "top level must be an object")
    read = _Reader()
    raw_weights = _list(obj, "weights", ("model",), required=True)
    texts = [str(w) for w in raw_weights]
    rats: dict[str, Fraction] = {}  # the distinct weight texts, first occurrence first
    for i, text in enumerate(texts):
        if text not in rats:
            rats[text] = read.rational(raw_weights[i], (f"weights[{i + 1}]",))
    for text, w in rats.items():
        if not 0 <= w.numerator <= w.denominator:
            raise _schema((f"weights[{texts.index(text) + 1}]",), f"{rat_to_str(w)} outside [0, 1]")
    # every entry is a `Fraction` checked to lie in [0, 1] just above
    weights = WeightVector._make((tuple(map(rats.__getitem__, texts)),))

    components = [read.component(cobj) for cobj in _list(obj, "components", ("model",), required=True)]

    glues = []
    for gobj in _list(obj, "attachments", ("model",)):
        at = (str(_need(gobj, "id", ("attachments",))),)
        glues.append(Glue(at[0], read.end(_need(gobj, "a", at), at), read.end(_need(gobj, "b", at), at)))

    trees = []
    for tobj in _list(obj, "trees", ("model",)):
        trees.append(
            TreeAttachment(
                str(_need(tobj, "host", ("trees",))),
                str(_need(tobj, "host_fiber", ("trees",))),
                read.node(_need(tobj, "root", ("trees",)), ("trees",)),
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


def weights_text(W: WeightVector, pad: str) -> str:
    """The weights as `json_list` lays out their texts (`curves._texts_of`)."""
    if not W.entries:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + '"' + ('",' + inner + '"').join(_texts_of(W)) + '"\n' + pad + "]"


def _fiber_text(f: MarkedFiber, pad: str) -> str:
    p = pad + "  "
    markers = json_list(list(map(str, sorted(f.markers))), p)
    cusp = f',\n{p}"nonminimal_cusp": true' if f.nonminimal_cusp else ""
    return (
        f'{{\n{p}"id": {quote(f.fid)},\n'
        f'{p}"type": "{f.ftype!s}",\n'
        f'{p}"coeff": "{f.coeff!s}",\n'
        f'{p}"state": "{STATE_NAMES[f.state]}",\n'
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
        f'{p}"degL": "{n.degL!s}",\n'
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
        f'      "degL": "{c.degL!s}",\n'
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
    return (
        f'{{\n  "weights": {weights_text(X.weights, "  ")},\n'
        f'  "components": {json_list(stored_texts(X.components, "_json_text", _component_text), "  ")},\n'
        f'  "attachments": {json_list(stored_texts(X.glues, "_json_text", _glue_text), "  ")},\n'
        f'  "trees": {json_list(stored_texts(X.trees, "_json_text", _tree_text), "  ")}\n}}\n'
    )
