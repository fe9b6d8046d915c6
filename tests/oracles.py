"""Independent oracles the test suite checks the library against.

Each function here deliberately re-derives its answer by a different route
than the library: the volume oracle expands the self-intersection against a
full pairing matrix instead of the closed form, the wall oracle
re-enumerates the arrangement over raw bitmask subsets, the surface lookups
scan the model where the library reads its cached lookups, the curve degree is
counted edge by edge for one vertex where the library sweeps all of them,
curves are contracted one vertex at a time where the library contracts in one
union-find pass, marker-set sums and fiber states are taken by `Fraction`
arithmetic and comparison where the library compares integers, and the model
JSON, the `reduce` trace and the
`walls --segment` listing are built as plain objects and laid out whole by
`json.dumps(indent=2)`, where the library writes each text directly and joins
the texts it stores on components and glues.  `wall_from_obj` reads such a
wall object back.
"""

from __future__ import annotations

import json
from fractions import Fraction

from mmp_elliptic.kodaira import (
    FiberState,
    canonical_contribution,
    intersection_data,
    lct_threshold,
)
from mmp_elliptic.rationals import json_bool, json_int, rat_from_str, rat_to_str
from mmp_elliptic.walls import Wall, WallKind

F = Fraction

WALL_CONSTANTS = [F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(5, 6)]


def gram_volume(X):
    """Expand (K + S + sum of marked divisors)^2 in the curve basis
    {fiber class, section, per-fiber components} with the full pairing matrix.
    Classes from different fibers pair to zero; unnamed pairs default to zero.
    """
    comp = X.elliptic[0]
    d = comp.degL
    k = 2 * comp.genus - 2 + d

    pair: dict[frozenset, Fraction] = {}

    def put(a, b, v):
        pair[frozenset((a, b))] = v

    def get(a, b):
        return pair.get(frozenset((a, b)), F(0))

    put("f", "S", F(1))
    put("S", "S", -d)
    divisor: dict[str, Fraction] = {"f": k, "S": F(1)}

    for f in comp.fibers:
        a = X.fiber_coeff(f)
        if f.state == FiberState.WEIERSTRASS:
            name = f"F_{f.fid}"
            put(name, "S", F(1))
            divisor[name] = a
        else:
            data = intersection_data(f.ftype)
            alpha = canonical_contribution(f.ftype, f.state)
            A, E = f"A_{f.fid}", f"E_{f.fid}"
            put(A, A, data.A_sq)
            put(E, E, data.E_sq)
            put(A, E, data.AE)
            put(A, "S", F(1))
            divisor[A] = a
            divisor[E] = alpha + 1  # E marked with one plus the canonical excess
    total = F(0)
    for x, cx in divisor.items():
        for y, cy in divisor.items():
            total += cx * cy * get(x, y)
    return total


def weight_sum_fold(W, indices):
    """`WeightVector.sum` as a `Fraction` fold, one term at a time."""
    return sum((W.weight(i) for i in indices), F(0))


def fiber_model_by_fractions(ftype, a):
    """`kodaira.fiber_model_at` by `Fraction` comparisons of a with 0, its
    type's threshold a0 and 1."""
    if not 0 <= a <= 1:
        raise ValueError(f"coefficient {a} outside [0, 1]")
    a0 = lct_threshold(ftype)
    if a0 is None or a <= a0:
        return FiberState.WEIERSTRASS
    if a < 1:
        return FiberState.INTERMEDIATE
    return FiberState.TWISTED


def is_settled_by_fractions(ftype, a, state):
    """`kodaira.is_settled`: the state `fiber_model_by_fractions` gives, or
    the intermediate model in place of the twisted one at a = 1."""
    want = fiber_model_by_fractions(ftype, a)
    return state == want or (
        a == 1 and state == FiberState.INTERMEDIATE and want == FiberState.TWISTED
    )


def brute_force_walls(r, types, rational_base):
    """Exhaustive re-enumeration over bitmask subsets, written independently
    of the library's combination-based generator."""
    found = set()
    for i in range(1, r + 1):
        c = lct_threshold(types[i - 1])
        if c is not None:
            found.add(("WI", frozenset({i}), c, False))
            found.add(("WI", frozenset({i}), F(1), True))
    for mask in range(1, 1 << r):
        subset = frozenset(i + 1 for i in range(r) if mask >> i & 1)
        found.add(("WII", subset, F(1), False))
        for c in WALL_CONSTANTS:
            found.add(("WIII", subset, c, False))
    if rational_base:
        found.add(("WII", frozenset(range(1, r + 1)), F(2), False))
    return found


def wall_keys(walls):
    return {(w.kind.value, w.subset, w.constant, w.boundary) for w in walls}


# -- surface lookups by scanning the model ---------------------------------------


def scan_pseudo_nodes(X):
    """Every pseudo node, tree by tree, each node before its children."""
    out = []

    def visit(node):
        out.append(node)
        for link in node.children:
            visit(link.node)

    for att in X.trees:
        visit(att.root)
    return out


def scan_owners(X):
    """(owner id, fibers) of every component, then of every pseudo node in
    tree order, each node before its children."""
    return [(c.cid, c.fibers) for c in X.components] + [
        (node.pid, node.fibers) for node in scan_pseudo_nodes(X)
    ]


def scan_component(X, cid):
    for c in X.components:
        if c.cid == cid:
            return c
    raise KeyError(cid)


def scan_glue_ends(X, cid):
    return [(g, end) for g in X.glues for end in (g.a, g.b) if end.component == cid]


def scan_host_fiber(X, owner, fid):
    for o, fibers in scan_owners(X):
        if o == owner:
            for f in fibers:
                if f.fid == fid:
                    return f
    raise KeyError((owner, fid))


def scan_host_keys(X):
    """(owner id, fiber id) of the host fiber of every tree root and child."""
    out = {(att.host_component, att.host_fiber) for att in X.trees}
    for node in scan_pseudo_nodes(X):
        out |= {(node.pid, link.via_fiber) for link in node.children}
    return out


# -- weighted curves -------------------------------------------------------------


def vertex_degree(curve, vid, weights):
    """2g - 2 + valence + marker weights at one vertex, with the valence
    counted edge by edge: a self-loop adds two, each parallel edge one."""
    genus = next(v.genus for v in curve.vertices if v.vid == vid)
    valence = 0
    for a, b in curve.edges:
        if a == vid:
            valence += 1
        if b == vid:
            valence += 1
    marked = F(0)
    for m in curve.markers:
        if m.vertex == vid:
            marked += weights.entries[m.index - 1]
    return 2 * genus - 2 + valence + marked


def contract_into_neighbor(curve, vid):
    """Collapse the component at `vid` onto its lowest-id neighbour, one step.

    The neighbours are read off the edges.  One connecting edge disappears;
    further edges at `vid` are rerouted to the absorber (an edge back to the
    absorber becomes a self-loop), genera add, and markers are transported.
    """
    from mmp_elliptic.curves import MarkedNodalCurve, Marker, Vertex

    nbrs = sorted({b if a == vid else a for a, b in curve.edges if (a == vid) != (b == vid)})
    if not nbrs:
        raise ValueError(f"vertex {vid} has no neighbour to absorb it")
    target = nbrs[0]
    removed_one = False
    new_edges = []
    for a, b in curve.edges:
        if not removed_one and {a, b} == {vid, target}:
            removed_one = True
            continue
        new_edges.append((target if a == vid else a, target if b == vid else b))
    old = curve.vertex(vid)
    new_vertices = tuple(
        Vertex(v.vid, v.genus + old.genus) if v.vid == target else v
        for v in curve.vertices
        if v.vid != vid
    )
    new_markers = tuple(Marker(m.index, target) if m.vertex == vid else m for m in curve.markers)
    return MarkedNodalCurve(new_vertices, tuple(new_edges), new_markers)


def contract_by_step(curve, pending):
    """Contract the pending vertices one step at a time, in increasing id
    order, skipping each one that has no neighbour left."""
    for vid in sorted(pending):
        if any((a == vid) != (b == vid) for a, b in curve.edges):
            curve = contract_into_neighbor(curve, vid)
    return curve


def base_curve_by_step(X):
    """The base curve with its type II vertices contracted one step at a time."""
    from mmp_elliptic.surfaces import pre_base_curve

    return contract_by_step(pre_base_curve(X), {c.vertex for c in X.pseudo2})


def hassett_by_vertex(curve, weights):
    """Hassett reduction with every degree taken from `vertex_degree`:
    contract the lowest-id vertex of non-positive degree into its lowest-id
    neighbour until none is left or one vertex remains."""
    while len(curve.vertices) > 1:
        bad = [v.vid for v in curve.vertices if vertex_degree(curve, v.vid, weights) <= 0]
        if not bad:
            break
        curve = contract_into_neighbor(curve, min(bad))
    return curve


# -- JSON layouts ------------------------------------------------------------------


def _fiber_obj(f):
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


def _node_obj(n):
    out = {
        "id": n.pid,
        "degL": rat_to_str(n.degL),
        "attach_type": str(n.attach_ftype),
        "fibers": [_fiber_obj(f) for f in n.fibers],
        "children": [{"via_fiber": l.via_fiber, "node": _node_obj(l.node)} for l in n.children],
    }
    if n.isotrivial_jinf:
        out["isotrivial_jinf"] = True
    return out


def _end_obj(e):
    return {"component": e.component, "fiber": e.fiber_id, "type": str(e.ftype)}


def wall_to_obj(w):
    return {
        "kind": w.kind.value,
        "subset": sorted(w.subset),
        "constant": rat_to_str(w.constant),
        "boundary": w.boundary,
    }


def wall_from_obj(obj):
    return Wall(
        WallKind(obj["kind"]),
        frozenset(json_int(i) for i in obj["subset"]),
        rat_from_str(obj["constant"]),
        json_bool(obj.get("boundary", False)),
    )


def model_to_obj(X):
    """The model as the plain object its canonical JSON text lays out."""
    return {
        "weights": [rat_to_str(w) for w in X.weights.entries],
        "components": [
            {
                "id": c.cid,
                "kind": "elliptic" if c.has_section else "pseudo2",
                "vertex": c.vertex,
                "genus": c.genus,
                "degL": rat_to_str(c.degL),
                "isotrivial_jinf": c.isotrivial_jinf,
                "fibers": [_fiber_obj(f) for f in c.fibers],
            }
            for c in X.components
        ],
        "attachments": [{"id": g.gid, "a": _end_obj(g.a), "b": _end_obj(g.b)} for g in X.glues],
        "trees": [
            {"host": t.host_component, "host_fiber": t.host_fiber, "root": _node_obj(t.root)}
            for t in X.trees
        ],
    }


def serialize_oracle(X):
    """The canonical model JSON, laid out in one `json.dumps` call."""
    return json.dumps(model_to_obj(X), indent=2) + "\n"


def trace_oracle(start, target, trace):
    """The stdout of `reduce` from `start` to the weight vector `target`."""
    obj = {
        "start_weights": [rat_to_str(w) for w in start.weights.entries],
        "target_weights": [rat_to_str(w) for w in target.entries],
        "records": [
            {
                "t": rat_to_str(rec.t),
                "kind": str(rec.kind),
                "wall": wall_to_obj(rec.wall),
                "affected": list(rec.affected),
                "note": rec.note,
                "snapshot_after": model_to_obj(rec.snapshot_after),
            }
            for rec in trace.records
        ],
        "final": model_to_obj(trace.final),
        "halted": trace.halted,
    }
    return json.dumps(obj, indent=2) + "\n"


def segment_oracle(crossings, on_start, on_end):
    """The stdout of `walls --segment` for its crossings and the walls through
    the segment's start and end."""
    obj = {
        "crossings": [
            {"t": rat_to_str(c.t), "walls": [wall_to_obj(w) for w in c.walls_hit]} for c in crossings
        ],
        "on_walls_at_start": [wall_to_obj(w) for w in on_start],
        "on_walls_at_end": [wall_to_obj(w) for w in on_end],
    }
    return json.dumps(obj, indent=2) + "\n"
