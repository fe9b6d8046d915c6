"""Independent oracles the test suite checks the library against.

Each function here deliberately re-derives its answer by a different route
than the library: the volume oracle expands the self-intersection against a
full pairing matrix instead of the closed form, the wall oracle
re-enumerates the arrangement over raw bitmask subsets, `eager_walls` builds
every `Wall` of an arrangement in sort order where the library keeps columns
and builds a wall only when asked, the surface lookups
scan the model where the library reads its cached lookups, the curve degree is
counted edge by edge for one vertex where the library sweeps all of them,
curves are contracted one vertex at a time where the library contracts in one
union-find pass, marker-set sums and fiber states are taken by `Fraction`
arithmetic and comparison where the library compares integers, and the model
JSON, the `reduce` trace and the
`walls --segment` listing are built as plain objects and laid out whole by
`json.dumps(indent=2)`, where the library writes each text directly and joins
the texts it stores on components and glues.  `wall_from_obj` reads such a
wall object back.  `rebuilt` builds a model again through the public
constructors, which check and sort every part, where the walk rebuilds its
snapshots through the unchecked `_replace`.  `resolved_fiber` derives the
Kodaira thresholds, intersection numbers and canonical corrections from
each fiber type's resolution graph (`fiber_graph`) by plain elimination,
where the library reads three hand-typed tables.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from mmp_elliptic.curves import WeightVector
from mmp_elliptic.kodaira import (
    FiberState,
    KodairaType,
    canonical_contribution,
    intersection_data,
    lct_threshold,
)
from mmp_elliptic.rationals import json_bool, json_int, rat_from_str, rat_to_str
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


def eager_walls(r, types, rational_base):
    """`enumerate_walls` as a list of `Wall`s built one by one, in
    `Wall.sort_key` order, by combining subsets in lexicographic order."""
    walls = []
    for i, ftype in enumerate(types):
        c = lct_threshold(ftype)
        if c is not None:
            subset = frozenset((i + 1,))
            walls += [Wall(WallKind.WI, subset, c), Wall(WallKind.WI, subset, F(1), True)]
    # every nonempty subset of k..r in the order of its sorted tuple: {k}, then
    # {k} with each subset of k+1..r, then the subsets of k+1..r
    subsets = []
    for k in range(r, 0, -1):
        single = frozenset((k,))
        subsets = [single, *[single | s for s in subsets], *subsets]
    wii = [Wall(WallKind.WII, s, F(1)) for s in subsets]
    if rational_base:
        # the full set is the r-th subset, and its wall at two sorts right
        # after its wall at one
        wii.insert(r, Wall(WallKind.WII, frozenset(range(1, r + 1)), F(2)))
    walls += wii
    walls += [Wall(WallKind.WIII, s, c) for s in subsets for c in WALL_CONSTANTS]
    return walls


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


def scan_trees_on(X, cid):
    return tuple(t for t in X.trees if t.host_component == cid)


def scan_fiber(fibers, fid):
    """The first fiber with id `fid` in `fibers`."""
    for f in fibers:
        if f.fid == fid:
            return f
    raise KeyError(fid)


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


def pre_base_curve_by_scan(X):
    """The base curve before its type II vertices contract, read off the
    components on every call, with no part stored on them: each weight index
    a marker on its component's vertex, then each marker-less fiber, in
    component and fiber order, marker r + k."""
    from mmp_elliptic.curves import MarkedNodalCurve, Marker, Vertex

    at = {c.cid: c.vertex for c in X.components}
    markers = [Marker(i, c.vertex) for c in X.components for f in c.fibers for i in f.markers]
    fixed = [c.vertex for c in X.components for f in c.fibers if not f.markers]
    markers += [Marker(X.weights.r + k, v) for k, v in enumerate(fixed, start=1)]
    return MarkedNodalCurve(
        [Vertex(c.vertex, c.genus) for c in X.components],
        [(at[g.a.component], at[g.b.component]) for g in X.glues],
        markers,
    )


def base_curve_by_step(X):
    """The base curve with its type II vertices contracted one step at a time."""
    return contract_by_step(pre_base_curve_by_scan(X), {c.vertex for c in X.pseudo2})


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


def _rebuilt_fiber(f):
    return MarkedFiber(
        f.fid, KodairaType(*f.ftype), f.coeff, f.state, f.markers, f.nonminimal_cusp
    )


def _rebuilt_node(n):
    return PseudoComponent(
        n.pid,
        n.degL,
        KodairaType(*n.attach_ftype),
        [_rebuilt_fiber(f) for f in n.fibers],
        [ChildLink(link.via_fiber, _rebuilt_node(link.node)) for link in n.children],
        n.isotrivial_jinf,
    )


def _rebuilt_end(e):
    return AttachEnd(e.component, e.fiber_id, KodairaType(*e.ftype))


def rebuilt(X):
    """X built again through the public constructors, part by part: weights,
    components with their fibers, glues with their ends, and trees with their
    nodes; each constructor checks its part and sorts its lists."""
    return BrokenEllipticSurface(
        WeightVector(X.weights.entries),
        [
            Component(
                c.cid,
                c.vertex,
                c.genus,
                c.degL,
                [_rebuilt_fiber(f) for f in c.fibers],
                c.isotrivial_jinf,
                c.has_section,
            )
            for c in X.components
        ],
        [Glue(g.gid, _rebuilt_end(g.a), _rebuilt_end(g.b)) for g in X.glues],
        [TreeAttachment(t.host_component, t.host_fiber, _rebuilt_node(t.root)) for t in X.trees],
    )


# -- Kodaira fibers from their resolution graphs -------------------------------


class FiberGraph(NamedTuple):
    """The dual graph of a log resolution of one Weierstrass fiber, near the
    fiber, on a relatively minimal elliptic surface blown up where needed.

    `curves` lists each curve as (name, self-intersection, genus,
    exceptional), exceptional meaning a blow-up made it; `meets` lists
    (name, name, intersection number).  `A` is the component the section
    meets, and `E` the curve the intermediate model keeps beside it, or None
    for a type without an intermediate model.  On the normalization of a
    non-normal surface, `double` lists (name, points) where the double curve
    crosses a curve; the canonical class there is K + (double curve).
    Multiplicities in the fiber and discrepancies are not given:
    `resolved_fiber` derives them.
    """

    curves: tuple[tuple[str, int, int, bool], ...]
    meets: tuple[tuple[str, str, int], ...]
    A: str
    E: str | None
    double: tuple[tuple[str, int], ...] = ()


def _path(names, start=None):
    """The meets of a path of curves, hung off `start` when given."""
    names = ([start] if start else []) + list(names)
    return tuple((a, b, 1) for a, b in zip(names, names[1:]))


def _minus_two(names):
    return tuple((name, -2, 0, False) for name in names)


def fiber_graph(ftype: KodairaType) -> FiberGraph | None:
    """The resolution graph of a fiber of type `ftype`.

    - I*n, II*, III*, IV*: the Kodaira fiber itself, (-2)-curves on the
      extended Dynkin diagram D(n+4), E8, E7 or E6, with A an end of
      multiplicity one and E the curve of largest multiplicity nearest to A.
    - II, III, IV: the Kodaira fiber (a cuspidal curve, two curves tangent
      at a point, three concurrent lines) blown up 3, 2 and 1 times until it
      has normal crossings; E is the last exceptional curve.
    - In: a cycle of n (-2)-curves for n >= 2, the nodal curve blown up at
      its node for n = 1, and a smooth elliptic curve for n = 0.
    - N0: the fiber of the normalization of the isotrivial j = infinity
      surface, a smooth rational curve of multiplicity one, which the two
      branches of the double curve cross transversally.
    - N1 (there the double curve is tangent to the fiber) and N2: no graph
      here; None.
    """
    family, n = ftype
    if family == "I*":
        chain = [f"c{i}" for i in range(n + 1)]
        names = ["a", "l2", *chain, "l3", "l4"]
        meets = (("a", "c0", 1), ("l2", "c0", 1)) + _path(chain) + ((chain[-1], "l3", 1), (chain[-1], "l4", 1))
        return FiberGraph(_minus_two(names), meets, "a", "c0")
    if family in ("II*", "III*", "IV*"):
        # the arm through A to the centre e, then the other arms from e
        main, others = {
            "II*": (["a", "a2", "a3", "a4", "a5"], [["b4", "b2"], ["c3"]]),
            "III*": (["a", "a2", "a3"], [["b3", "b2", "b1"], ["c2"]]),
            "IV*": (["a", "a2"], [["b2", "b1"], ["c2", "c1"]]),
        }[family]
        names = main + ["e"] + [name for arm in others for name in arm]
        meets = _path(main + ["e"]) + tuple(m for arm in others for m in _path(arm, "e"))
        return FiberGraph(_minus_two(names), meets, "a", "e")
    if family == "II":
        curves = (("c", -6, 0, False), ("e1", -3, 0, True), ("e2", -2, 0, True), ("e3", -1, 0, True))
        return FiberGraph(curves, (("e3", "c", 1), ("e3", "e1", 1), ("e3", "e2", 1)), "c", "e3")
    if family == "III":
        curves = (("c1", -4, 0, False), ("c2", -4, 0, False), ("e1", -2, 0, True), ("e2", -1, 0, True))
        return FiberGraph(curves, (("e2", "c1", 1), ("e2", "c2", 1), ("e2", "e1", 1)), "c1", "e2")
    if family == "IV":
        curves = (("c1", -3, 0, False), ("c2", -3, 0, False), ("c3", -3, 0, False), ("e", -1, 0, True))
        return FiberGraph(curves, tuple(("e", c, 1) for c in ("c1", "c2", "c3")), "c1", "e")
    if family == "I":
        if n == 0:
            return FiberGraph((("c", 0, 1, False),), (), "c", None)
        if n == 1:
            return FiberGraph((("c", -4, 0, False), ("e", -1, 0, True)), (("c", "e", 2),), "c", None)
        names = [f"c{i}" for i in range(n)]
        meets = (("c0", "c1", 2),) if n == 2 else _path(names) + ((names[-1], "c0", 1),)
        return FiberGraph(_minus_two(names), meets, "c0", None)
    if family == "N0":
        return FiberGraph((("c", 0, 0, False),), (), "c", None, (("c", 2),))
    return None


def _solve(M, B):
    """X with M X = B, by Gauss-Jordan elimination over `Fraction`s; M is
    square (possibly empty) and nonsingular, B a list of rows."""
    n = len(M)
    rows = [[F(x) for x in M[i]] + [F(x) for x in B[i]] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


class ResolvedFiber(NamedTuple):
    threshold: Fraction
    E_threshold: Fraction | None
    A_sq: Fraction | None
    E_sq: Fraction | None
    AE: Fraction | None
    mult: Fraction | None
    KE: Fraction | None


def resolved_fiber(graph: FiberGraph) -> ResolvedFiber:
    """What a fiber's resolution graph says of the `kodaira` tables.

    - The intersection matrix M comes from the graph, and K.C = 2g - 2 - C^2
      for each curve C (adjunction; K of the minimal surface meets no fiber
      curve), plus the points of the double curve on C.
    - The multiplicities m solve M m = 0 (the fiber meets each of its
      curves in zero) with m = 1 on A; the discrepancies k solve M k = K.C
      on the exceptional curves and are zero on the others.  Both systems
      are checked on every curve.
    - The threshold is min (1 + k) / m over the curves, and `E_threshold`
      is (1 + k) / m on E.
    - Contracting every curve but A and E gives the intermediate fiber: its
      intersection form is the Schur complement of M onto A and E
      (Mumford's pullback), and K.E there is K.E minus the pairing of E
      with the pullback of K on the contracted curves.
    """
    names = [c[0] for c in graph.curves]
    at = {name: i for i, name in enumerate(names)}
    size = len(names)
    M = [[0] * size for _ in range(size)]
    for name, self_int, _, _ in graph.curves:
        M[at[name]][at[name]] = self_int
    for u, v, number in graph.meets:
        M[at[u]][at[v]] += number
        M[at[v]][at[u]] += number
    double = dict(graph.double)
    K = [2 * genus - 2 - self_int + double.get(name, 0) for name, self_int, genus, _ in graph.curves]

    def restricted(rows, cols, rhs):
        return _solve([[M[i][j] for j in cols] for i in rows], [rhs(i) for i in rows])

    a = at[graph.A]
    m = [F(1)] * size
    rest = [i for i in range(size) if i != a]
    for i, (x,) in zip(rest, restricted(rest, rest, lambda i: [-M[i][a]])):
        m[i] = x
    assert all(sum(M[i][j] * m[j] for j in range(size)) == 0 for i in range(size)), "not a fiber"
    k = [F(0)] * size
    exceptional = [i for i, c in enumerate(graph.curves) if c[3]]
    for i, (x,) in zip(exceptional, restricted(exceptional, exceptional, lambda i: [K[i]])):
        k[i] = x
    assert all(sum(M[i][j] * k[j] for j in range(size)) == K[i] for i in range(size)), "no such K"
    threshold = min((1 + k[i]) / m[i] for i in range(size))
    if graph.E is None:
        return ResolvedFiber(threshold, None, None, None, None, None, None)

    e = at[graph.E]
    cut = [i for i in range(size) if i not in (a, e)]
    X = restricted(cut, cut, lambda i: [M[i][a], M[i][e], K[i]])

    def contracted(u, column, value):
        return value - sum(M[u][c] * x[column] for c, x in zip(cut, X))

    return ResolvedFiber(
        threshold,
        (1 + k[e]) / m[e],
        contracted(a, 0, F(M[a][a])),
        contracted(e, 1, F(M[e][e])),
        contracted(e, 0, F(M[e][a])),
        m[e],
        contracted(e, 2, F(K[e])),
    )
