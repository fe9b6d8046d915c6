"""Independent oracles the test suite checks the library against.

Each function here deliberately re-derives its answer by a different route
than the library: the volume oracle expands the self-intersection against a
full pairing matrix instead of the closed form, the wall oracle
re-enumerates the arrangement over raw bitmask subsets, the surface lookups
scan the model where the library reads its cached lookups, the curve degree is
counted edge by edge for one vertex where the library sweeps all of them, and
the model JSON is laid out whole by `json.dumps` where the library joins the
texts it stores on components and glues.
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
from mmp_elliptic.modeljson import model_to_obj

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


def scan_subtrees(X):
    """(host owner id, host fiber id, subtree root, depth) of every subtree
    level, in `scan_pseudo_nodes` order."""
    out = []

    def visit(owner, fid, node, depth):
        out.append((owner, fid, node, depth))
        for link in node.children:
            visit(node.pid, link.via_fiber, link.node, depth + 1)

    for att in X.trees:
        visit(att.host_component, att.host_fiber, att.root, 0)
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
    return {(owner, fid) for owner, fid, _, _ in scan_subtrees(X)}


def scan_marked_fibers(X):
    hosts = scan_host_keys(X)
    return [
        (owner, f)
        for owner, fibers in scan_owners(X)
        for f in fibers
        if f.markers and (owner, f.fid) not in hosts
    ]


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


def hassett_by_vertex(curve, weights):
    """Hassett reduction with every degree taken from `vertex_degree`:
    contract the lowest-id vertex of non-positive degree into its lowest-id
    neighbour until none is left or one vertex remains."""
    from mmp_elliptic.curves import contract_into_neighbor

    while len(curve.vertices) > 1:
        bad = [v.vid for v in curve.vertices if vertex_degree(curve, v.vid, weights) <= 0]
        if not bad:
            break
        curve = contract_into_neighbor(curve, min(bad))
    return curve


def serialize_oracle(X):
    """The canonical model JSON, laid out in one `json.dumps` call."""
    return json.dumps(model_to_obj(X), indent=2) + "\n"
