"""Deterministic DOT rendering of broken-surface models.

Components render as clusters of fiber nodes, pseudoelliptic trees as nested
subgraphs inside an outer tree cluster, gluings as bold edges labeled with the
two fiber types, and tree attachments as bold edges labeled with the host
fiber's type and coefficient.  Identical models produce byte-identical text.
"""

from __future__ import annotations

from .kodaira import FiberState
from .rationals import rat_to_str
from .surfaces import BrokenEllipticSurface, Component, MarkedFiber, PseudoComponent

_STATE_TAG = {
    FiberState.WEIERSTRASS: "W",
    FiberState.INTERMEDIATE: "int",
    FiberState.TWISTED: "tw",
}


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def _fiber_label(f: MarkedFiber) -> str:
    label = f"{f.fid}: {f.ftype} a={rat_to_str(f.coeff)} [{_STATE_TAG[f.state]}]"
    if f.markers:
        label += " m" + ",".join(str(i) for i in sorted(f.markers))
    if f.nonminimal_cusp:
        label += " (cusp)"
    return label


def _component_cluster(lines: list[str], c: Component, indent: str) -> None:
    tag = _sanitize(c.cid)
    kind = "elliptic" if c.has_section else "pseudo II"
    lines.append(f"{indent}subgraph cluster_{tag} {{")
    lines.append(f'{indent}  label="{c.cid} ({kind}) g={c.genus} degL={rat_to_str(c.degL)}";')
    lines.append(f'{indent}  anchor_{tag} [shape=point, label=""];')
    for f in c.fibers:
        lines.append(f'{indent}  {tag}__{_sanitize(f.fid)} [shape=box, label="{_fiber_label(f)}"];')
    lines.append(f"{indent}}}")


def _node_cluster(lines: list[str], node: PseudoComponent, indent: str) -> None:
    tag = _sanitize(node.pid)
    lines.append(f"{indent}subgraph cluster_{tag} {{")
    flag = " isotrivial" if node.isotrivial_jinf else ""
    lines.append(
        f'{indent}  label="{node.pid} (pseudo I) degL={rat_to_str(node.degL)}'
        f' via {node.attach_ftype}{flag}";'
    )
    lines.append(f'{indent}  anchor_{tag} [shape=point, label=""];')
    for f in node.fibers:
        lines.append(f'{indent}  {tag}__{_sanitize(f.fid)} [shape=box, label="{_fiber_label(f)}"];')
    for link in node.children:
        _node_cluster(lines, link.node, indent + "  ")
    lines.append(f"{indent}}}")


def _tree_edges(lines: list[str], node: PseudoComponent) -> None:
    tag = _sanitize(node.pid)
    for link in node.children:
        host = node.fiber(link.via_fiber)
        label = f"{host.ftype}, {rat_to_str(host.coeff)}"
        lines.append(
            f"  {tag}__{_sanitize(link.via_fiber)} -> anchor_{_sanitize(link.node.pid)}"
            f' [style=bold, label="{label}"];'
        )
        _tree_edges(lines, link.node)


def emit_dot(X: BrokenEllipticSurface) -> str:
    """Render the model; stable node ordering makes the output deterministic."""
    lines = ["digraph broken_surface {", "  compound=true;", "  rankdir=LR;"]
    for c in X.elliptic + X.pseudo2:  # clusters with a section first
        _component_cluster(lines, c, "  ")
    for t in X.trees:
        _node_cluster(lines, t.root, "  ")
    for g in X.glues:
        a, b = sorted(g.ends(), key=lambda e: (e.component, e.fiber_id))
        label = f"{g.gid}: {a.ftype} ~ {b.ftype}, 1"
        lines.append(
            f"  anchor_{_sanitize(a.component)} -> anchor_{_sanitize(b.component)}"
            f' [style=bold, dir=none, label="{label}"];'
        )
    for t in X.trees:
        host = X.component(t.host_component).fiber(t.host_fiber)
        label = f"{host.ftype}, {rat_to_str(host.coeff)}"
        lines.append(
            f"  {_sanitize(t.host_component)}__{_sanitize(t.host_fiber)} ->"
            f' anchor_{_sanitize(t.root.pid)} [style=bold, label="{label}"];'
        )
        _tree_edges(lines, t.root)
    lines.append("}")
    return "\n".join(lines) + "\n"
