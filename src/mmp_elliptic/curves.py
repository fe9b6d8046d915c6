"""Weighted pointed nodal curves on dual graphs.

A curve is a connected dual graph: vertices carry a geometric genus, edges are
nodes (self-loops allowed, parallel edges allowed), and markers are weighted
smooth points assigned to vertices.  The module provides the weighted
stability test and one contraction routine, `_contract`: the reduction that
collapses components of non-positive weighted degree runs it, and so does the
surface engine's base curve, which contracts its type II vertices.  The
surface engine projects onto this module, which makes it the independent
cross-check for every base-curve assertion.

A curve's fields cannot be assigned, so what its weighted degrees need that
no weight changes is cached on it, beside its adjacency: 2g - 2 + valence
per vertex, each marker's index and vertex, and whether it is connected
(`_shape`).  A check that reduces one curve at the weights of every time
step of a walk builds that once, and each reduction then reads the integer
lift its weight vector keeps (`_lift_of`, which the wall queries read
too).  The public constructor sorts and checks every part; the
contraction and the surface's base curve, whose parts are in order already,
build through `MarkedNodalCurve._build`, which sorts only the edges.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter
from typing import Iterable, NamedTuple

from .rationals import json_int, rat, rat_to_str


class CurveError(Exception):
    """Structural problem with a marked nodal curve (unknown vertex, disconnected graph)."""


class _Vertex(NamedTuple):
    vid: int
    genus: int


class Vertex(_Vertex):
    __slots__ = ()

    def __new__(cls, vid, genus):
        if genus < 0:
            raise ValueError("genus must be non-negative")
        return tuple.__new__(cls, (vid, genus))


class Marker(NamedTuple):
    index: int
    vertex: int


_VID = attrgetter("vid")
_INDEX = attrgetter("index")


def _by_vid(vertices: Iterable[Vertex]) -> tuple[Vertex, ...]:
    """The vertices sorted by id; `CurveError` when two share one."""
    verts = tuple(sorted(vertices, key=_VID))
    if len({v.vid for v in verts}) != len(verts):
        raise CurveError("duplicate vertex ids")
    return verts


def _by_index(markers: Iterable[Marker]) -> tuple[Marker, ...]:
    """The markers sorted by index; `CurveError` when two share one."""
    markers = tuple(sorted(markers, key=_INDEX))
    if len({m.index for m in markers}) != len(markers):
        raise CurveError("marker indices must be distinct")
    return markers


class _MarkedNodalCurve(NamedTuple):
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...]
    markers: tuple[Marker, ...]


class MarkedNodalCurve(_MarkedNodalCurve):
    """Dual graph of a pointed nodal curve. Canonicalized on construction.

    `_build` is the one trusted build.  The record keeps an instance dict,
    for its adjacency and its shape, each built on first use."""

    def __new__(cls, vertices, edges, markers):
        verts = _by_vid(vertices)
        known = {v.vid for v in verts}
        pairs = []
        for edge in edges:
            a, b = edge
            if a not in known or b not in known:
                raise CurveError(f"edge ({a},{b}) references unknown vertex")
            # an ordered tuple is kept, not copied
            pairs.append((b, a) if a > b else edge if type(edge) is tuple else (a, b))
        markers = tuple(markers)
        for m in markers:
            if m.vertex not in known:
                raise CurveError(f"marker {m.index} sits on unknown vertex {m.vertex}")
        return cls._build(verts, pairs, _by_index(markers))

    @classmethod
    def _build(cls, vertices, edges: list[tuple[int, int]], markers) -> MarkedNodalCurve:
        """The curve on parts as `_by_vid` and `_by_index` give them and
        `edges`, pairs (a, b), a <= b, of those vertices, which this sorts in
        place; nothing is checked."""
        edges.sort()
        return tuple.__new__(cls, (tuple(vertices), tuple(edges), tuple(markers)))

    def vertex(self, vid: int) -> Vertex:
        for v in self.vertices:
            if v.vid == vid:
                return v
        raise CurveError(f"unknown vertex {vid}")

    def valence(self, vid: int) -> int:
        """Edge-endpoint count at the vertex; a self-loop counts twice."""
        self.vertex(vid)
        return sum((a == vid) + (b == vid) for a, b in self.edges)

    @cached_property
    def _adjacency(self) -> dict[int, set[int]]:
        """Vertex id -> ids of the other vertices it shares an edge with; the
        curve's fields cannot be assigned, so this is built once, on first
        use, and kept in the curve's instance dict."""
        adjacency: dict[int, set[int]] = {v.vid: set() for v in self.vertices}
        for a, b in self.edges:
            if a != b:
                adjacency[a].add(b)
                adjacency[b].add(a)
        return adjacency

    @cached_property
    def _shape(self) -> tuple[dict[int, int], tuple[int, ...], tuple[int, ...], bool]:
        """The part of the weighted degrees that no weight changes, kept
        beside `_adjacency`: vertex id -> 2g - 2 + valence (a self-loop
        counts twice), the marker indices in ascending order and the vertex
        of each, and whether the curve is connected."""
        base = {v.vid: 2 * v.genus - 2 for v in self.vertices}
        for a, b in self.edges:
            base[a] += 1
            base[b] += 1
        frontier = [self.vertices[0].vid] if self.vertices else []
        seen = set(frontier)
        while frontier:
            for w in self._adjacency[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        indices = tuple(m.index for m in self.markers)
        where = tuple(m.vertex for m in self.markers)
        return base, indices, where, 0 < len(seen) == len(self.vertices)

    def markers_on(self, vid: int) -> tuple[Marker, ...]:
        return tuple(m for m in self.markers if m.vertex == vid)

    def is_connected(self) -> bool:
        return self._shape[3]


# the lcm of the wall constants' denominators (`walls`), so a lift carries them too
_DEN = 12


def _vector_lift(v: WeightVector) -> tuple[int, list[int]]:
    """L_v, the lcm of `_DEN` and v's denominators, then v's weights times L_v."""
    L = lcm(_DEN, *[x.denominator for x in v.entries])
    return L, [x.numerator * (L // x.denominator) for x in v.entries]


def _lift_of(v: WeightVector) -> tuple[int, list[int]]:
    """The lift v keeps under `_lift`: a scale L, a multiple of `_DEN` and of
    each weight's denominator, then each weight times L; set by the walk
    (`reduction._Segment.weights_at`) or built on first read (`_vector_lift`)."""
    memo = v.__dict__
    if "_lift" not in memo:
        memo["_lift"] = _vector_lift(v)
    return memo["_lift"]


def _texts_of(v: WeightVector) -> list[str]:
    """The texts v keeps under `_texts`, which the JSON writer stores: the
    `str` of each weight, set by the walk or built on first read."""
    memo = v.__dict__
    if "_texts" not in memo:
        memo["_texts"] = list(map(str, v.entries))
    return memo["_texts"]


def _integers(*vectors: WeightVector) -> tuple:
    """D, the lcm of the vectors' scales and so a multiple of `_DEN`, then
    each one's weights times D, from the lift each keeps (`_lift_of`)."""
    lifts = [_lift_of(v) for v in vectors]
    D = lcm(*[L for L, _ in lifts])
    return (D, *[w if L == D else [x * (D // L) for x in w] for L, w in lifts])


class _WeightVector(NamedTuple):
    entries: tuple[Fraction, ...]


class WeightVector(_WeightVector):
    """Rational weights in [0,1], indexed by marker index starting at 1.

    The public constructor coerces every entry to a `Fraction` and checks its
    range.  `WeightVector._make((entries,))`, the records' unchecked rebuild
    (see `surfaces`), takes entries that are `Fraction`s already known to lie
    in [0, 1] and checks nothing; three callers use it, each on entries that
    cannot leave the range: the model reader, which has range-checked every
    weight it read; `reduction._Segment.weights_at`, a convex combination of
    two checked vectors; and `surfaces.base_weights`, checked weights
    followed by the coefficients of marker-less fibers, which `MarkedFiber`
    has range-checked.

    The record keeps an instance dict, entering neither `==` nor `hash`,
    for two memos: the texts of its weights that the JSON writer stores
    (`_texts_of`), and its integer lift (`_lift_of`), which every wall query
    and every degree table on it reads.  The walk sets both on a vector it
    derives; on any other each is built on first read.
    """

    def __new__(cls, entries):
        ent = tuple(rat(e) for e in entries)
        for e in ent:
            # 0 <= e <= 1 on the integers of e: its denominator is positive
            if not 0 <= e.numerator <= e.denominator:
                raise ValueError(f"weight {e} outside [0, 1]")
        return tuple.__new__(cls, (ent,))

    @property
    def r(self) -> int:
        return len(self.entries)

    def weight(self, index: int) -> Fraction:
        if not 1 <= index <= self.r:
            raise KeyError(f"marker index {index} outside 1..{self.r}")
        return self.entries[index - 1]

    def sum(self, indices: Iterable[int]) -> Fraction:
        """The weight sum over the given marker indices, each counted as often
        as it is listed: the one marker-set sum of the package.  A single
        index gives its entry and none gives 0; more are added as integers,
        numerators over the lcm of the denominators, into one `Fraction`."""
        entries = self.entries
        r = len(entries)
        # an index out of range goes to `weight`, which raises its KeyError
        terms = [entries[i - 1] if 0 < i <= r else self.weight(i) for i in indices]
        if len(terms) < 2:
            return terms[0] if terms else Fraction(0)
        D = lcm(*[w.denominator for w in terms])
        return Fraction(sum([w.numerator * (D // w.denominator) for w in terms]), D)


def interpolate(A: WeightVector, B: WeightVector, t: Fraction) -> WeightVector:
    """The point (1-t)*A + t*B of the weight segment, exact."""
    if A.r != B.r:
        raise ValueError("weight vectors have different lengths")
    return WeightVector(tuple((1 - t) * a + t * b for a, b in zip(A.entries, B.entries)))


def _check_indices(indices: tuple[int, ...], weights: WeightVector) -> None:
    """Raise `WeightVector.weight`'s `KeyError` for the lowest of the
    ascending marker `indices` outside the vector, if any."""
    r = len(weights.entries)
    if indices and not (0 < indices[0] and indices[-1] <= r):
        weights.weight(next(i for i in indices if not 0 < i <= r))


def _degree_table(curve: MarkedNodalCurve, weights: WeightVector) -> tuple[dict[int, int], int]:
    """The degree of the weighted dualizing sheaf on every component, in
    vertex order, as an integer over one common denominator D:
    D (2g - 2 + valence + sum of marker weights on the vertex), from the
    curve's cached shape and the lift the vector keeps (`_lift_of`), whose
    scale is D.  A marker index outside the vector raises
    `WeightVector.weight`'s `KeyError`, for the lowest such index.  Returns
    the table and D."""
    base, indices, where, _ = curve._shape
    _check_indices(indices, weights)
    D, lift = _lift_of(weights)
    table = {vid: D * b for vid, b in base.items()}
    for vid, i in zip(where, indices):
        table[vid] += lift[i - 1]
    return table, D


def component_degree(curve: MarkedNodalCurve, vid: int, weights: WeightVector) -> Fraction:
    """Degree of the weighted dualizing sheaf on one component:
    2g - 2 + valence + sum of marker weights on the vertex."""
    curve.vertex(vid)
    table, D = _degree_table(curve, weights)
    return Fraction(table[vid], D)


def is_hassett_stable(curve: MarkedNodalCurve, weights: WeightVector) -> bool:
    """Weighted stability: strictly positive degree on every component, and
    every marker present on the curve carries a strictly positive weight."""
    if any(weights.weight(m.index) <= 0 for m in curve.markers):
        return False
    return all(d > 0 for d in _degree_table(curve, weights)[0].values())


def _contract(
    curve: MarkedNodalCurve, pending: set[int], degree: dict[int, int] | None = None
) -> MarkedNodalCurve:
    """Collapse the pending vertices, each onto a neighbor, in one pass.

    The lowest pending id merges into its lowest-id neighbor class, and a
    pending vertex with no neighbor (the last one left, or an isolated one)
    is skipped.  Genera add and markers move along.  With a `degree` table,
    the absorber takes the contracted vertex's degree and joins the pending
    set once that degree is non-positive.  Classes are named by their
    absorbing vertex and resolved at the end, and one curve is built; with
    nothing contracted the input curve comes back.  A new curve per
    contraction would be quadratic on a long chain, and so would copying
    every neighbour set, so only the sets that change are copied.
    `pending` and `degree` are consumed.
    """
    if not pending:
        return curve
    # class id -> ids of the classes it shares an edge with; each set is the
    # curve's own until it first changes, when it is copied (`copied` lists
    # the ids whose sets are copies)
    adjacency = dict(curve._adjacency)
    copied: set[int] = set()
    parent: dict[int, int] = {}  # contracted vertex -> the class that absorbed it
    while pending:
        vid = min(pending)
        pending.remove(vid)
        nbrs = adjacency[vid]
        if not nbrs:
            continue
        del adjacency[vid]
        target = min(nbrs)
        nbrs = nbrs - {target}
        for w in (target, *nbrs):
            if w not in copied:
                copied.add(w)
                adjacency[w] = set(adjacency[w])
        into = adjacency[target]
        into.discard(vid)
        into |= nbrs
        for w in nbrs:
            around = adjacency[w]
            around.discard(vid)
            around.add(target)
        parent[vid] = target
        if degree is not None:
            degree[target] += degree.pop(vid)
            if degree[target] <= 0:
                pending.add(target)
    if not parent:
        return curve
    # a class absorbs only while it is alive, so each vertex's absorber is
    # resolved before it, walking the contractions backwards
    root: dict[int, int] = {}
    for vid in reversed(parent):
        root[vid] = root.get(parent[vid], parent[vid])

    # each contraction closes one edge of its class up into nothing; the
    # other edges between the two classes become self-loops of the absorber
    closed: dict[int, int] = {}
    for vid in parent:
        closed[root[vid]] = closed.get(root[vid], 0) + 1
    # an edge no contraction touched is kept; any of a class's self-loops
    # may close up, as they are all the same
    edges = []
    for edge in curve.edges:
        a, b = edge
        if a in root or b in root:
            a, b = root.get(a, a), root.get(b, b)
            if a == b and closed.get(a):
                closed[a] -= 1
                continue
            edge = (a, b) if a <= b else (b, a)
        edges.append(edge)
    markers = [Marker(m.index, root[m.vertex]) if m.vertex in root else m for m in curve.markers]
    vertices = []
    gained: dict[int, int] = {}  # class id -> genus of the vertices it absorbed
    for v in curve.vertices:
        if v.vid not in root:
            vertices.append(v)
        elif v.genus:
            gained[root[v.vid]] = gained.get(root[v.vid], 0) + v.genus
    if gained:
        vertices = [
            Vertex(v.vid, v.genus + gained[v.vid]) if v.vid in gained else v for v in vertices
        ]
    return curve._build(vertices, edges, markers)  # only the edges lost their order


def hassett_reduce(curve: MarkedNodalCurve, weights: WeightVector) -> MarkedNodalCurve:
    """Repeatedly collapse components of non-positive weighted degree.

    Contracts the lowest-id vertex of non-positive degree into its lowest-id
    neighbor until the curve is stable or one vertex is left; the result is
    independent of this convention, which exists only for determinism.  The
    contractions are `_contract`'s, the routine `surfaces.base_curve` uses
    for type II vertices.

    Degrees add under a contraction: deg(t ∪ v) = deg(t) + deg(v).  Genera,
    marker weights and valences add, except that the edge that closes up
    takes 2 off the valence, and the merged vertex counts the -2 of 2g - 2
    once instead of twice, which puts the 2 back.  So one degree table
    serves the whole reduction: only the absorber's degree changes, it only
    falls (deg(v) <= 0), and an unstable vertex stays unstable until it is
    contracted.  A marker index outside `weights` raises `KeyError`, on a
    one-vertex curve too.
    """
    if not curve.is_connected():
        raise CurveError("cannot reduce a disconnected curve")
    if len(curve.vertices) == 1:
        _check_indices(curve._shape[1], weights)
        return curve
    degree, _ = _degree_table(curve, weights)
    return _contract(curve, {vid for vid, d in degree.items() if d <= 0}, degree)


# -- serialization ----------------------------------------------------------


def curve_to_obj(curve: MarkedNodalCurve) -> dict:
    return {
        "vertices": [{"id": v.vid, "genus": v.genus} for v in curve.vertices],
        "edges": [[a, b] for a, b in curve.edges],
        "markers": [{"index": m.index, "vertex": m.vertex} for m in curve.markers],
    }


def curve_from_obj(obj: dict) -> MarkedNodalCurve:
    try:
        vertices = tuple(Vertex(json_int(v["id"]), json_int(v["genus"])) for v in obj["vertices"])
        edges = tuple((json_int(a), json_int(b)) for a, b in obj.get("edges", []))
        markers = tuple(
            Marker(json_int(m["index"]), json_int(m["vertex"])) for m in obj.get("markers", [])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CurveError(f"malformed curve object: {exc}") from exc
    return MarkedNodalCurve(vertices, edges, markers)


def curve_from_json(text: str | bytes) -> MarkedNodalCurve:
    return curve_from_obj(json.loads(text))


def curve_to_dot(curve: MarkedNodalCurve, weights: WeightVector | None = None) -> str:
    """Deterministic DOT rendering of the dual graph."""
    lines = ["graph dual {", "  node [shape=circle];"]
    on: dict[int, list[Marker]] = {}
    for m in curve.markers:
        on.setdefault(m.vertex, []).append(m)
    for v in curve.vertices:
        marks = on.get(v.vid)
        label = f"v{v.vid} g={v.genus}"
        if marks:
            parts = []
            for m in marks:
                if weights is not None:
                    parts.append(f"{m.index}:{rat_to_str(weights.weight(m.index))}")
                else:
                    parts.append(str(m.index))
            label += "\\nmarkers " + ",".join(parts)
        lines.append(f'  v{v.vid} [label="{label}"];')
    for a, b in curve.edges:
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
