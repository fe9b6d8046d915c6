"""Deterministic DOT rendering of broken-surface models.

Components render as clusters of fiber nodes, pseudoelliptic trees as nested
subgraphs inside an outer tree cluster, gluings as bold edges labeled with the
two fiber types, and tree attachments as bold edges labeled with the host
fiber's type and coefficient.  Identical models produce byte-identical text.
Every label escapes `\\` and `"` (`_label`); a rational is written as `!s`
(`rat_to_str` without the call) and a state's tag from a fixed table.  Each
`Component` keeps its cluster and each `Glue` its edge in its instance dict
(`surfaces.stored_texts`), built on first use; a rewrite builds new records,
so a stored text cannot go stale.  Tree clusters and edges are built on every call.
"""

from __future__ import annotations

import re

from .surfaces import BrokenEllipticSurface, Component, Glue, MarkedFiber, PseudoComponent, stored_texts

# the tag of each `FiberState`, indexed by the state
_STATE_TAGS = ("W", "int", "tw")

_PLAIN = re.compile(r"(?![0-9])[^\W_]+(?:_[^\W_]+)*")


def _sanitize(name: str) -> str:
    """An id as a part of DOT names: itself when it is letters and digits
    joined by single underscores and does not start with an ASCII digit (a
    DOT ID may not), else `__x` and the hex of its UTF-8 bytes.
    No two ids share a part, and `{owner}__{fid}` splits at its first `__`
    past the start, so it names one fiber and never an `anchor_{id}`."""
    return name if _PLAIN.fullmatch(name) else "__x" + name.encode().hex()


def _label(text: str) -> str:
    """A DOT label attribute; `\\` and `"` in ids are escaped."""
    return 'label="' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _fiber_node(tag: str, f: MarkedFiber, indent: str) -> str:
    label = f"{f.fid}: {f.ftype!s} a={f.coeff!s} [{_STATE_TAGS[f.state]}]"
    if f.markers:
        label += " m" + ",".join(map(str, sorted(f.markers)))
    if f.nonminimal_cusp:
        label += " (cusp)"
    return f"{indent}  {tag}__{_sanitize(f.fid)} [shape=box, {_label(label)}];"


def _component_cluster(c: Component) -> str:
    tag = _sanitize(c.cid)
    kind = "elliptic" if c.has_section else "pseudo II"
    lines = [
        f"  subgraph cluster_{tag} {{",
        f"    {_label(f'{c.cid} ({kind}) g={c.genus} degL={c.degL!s}')};",
        f'    anchor_{tag} [shape=point, label=""];',
    ]
    lines += [_fiber_node(tag, f, "  ") for f in c.fibers]
    lines.append("  }")
    return "\n".join(lines)


def _node_cluster(lines: list[str], node: PseudoComponent, indent: str) -> None:
    tag = _sanitize(node.pid)
    lines.append(f"{indent}subgraph cluster_{tag} {{")
    flag = " isotrivial" if node.isotrivial_jinf else ""
    label = f"{node.pid} (pseudo I) degL={node.degL!s} via {node.attach_ftype}{flag}"
    lines.append(f"{indent}  {_label(label)};")
    lines.append(f'{indent}  anchor_{tag} [shape=point, label=""];')
    lines += [_fiber_node(tag, f, indent) for f in node.fibers]
    for link in node.children:
        _node_cluster(lines, link.node, indent + "  ")
    lines.append(f"{indent}}}")


def _tree_edge(owner: str, host: MarkedFiber, node: PseudoComponent) -> str:
    label = _label(f"{host.ftype}, {host.coeff!s}")
    tail = f"{_sanitize(owner)}__{_sanitize(host.fid)}"
    return f"  {tail} -> anchor_{_sanitize(node.pid)} [style=bold, {label}];"


def _tree_edges(lines: list[str], node: PseudoComponent) -> None:
    for link in node.children:
        lines.append(_tree_edge(node.pid, node.fiber(link.via_fiber), link.node))
        _tree_edges(lines, link.node)


def _glue_edge(g: Glue) -> str:
    # the two ends in (component, fiber id) order; equal ones keep theirs
    a, b = (g.a, g.b) if g.a[:2] <= g.b[:2] else (g.b, g.a)
    return (
        f"  anchor_{_sanitize(a.component)} -> anchor_{_sanitize(b.component)}"
        f" [style=bold, dir=none, {_label(f'{g.gid}: {a.ftype} ~ {b.ftype}, 1')}];"
    )


def emit_dot(X: BrokenEllipticSurface) -> str:
    """Render the model; stable node ordering makes the output deterministic."""
    lines = ["digraph broken_surface {", "  compound=true;", "  rankdir=LR;"]
    # clusters with a section first
    lines += stored_texts(X.elliptic + X.pseudo2, "_dot_text", _component_cluster)
    for t in X.trees:
        _node_cluster(lines, t.root, "  ")
    lines += stored_texts(X.glues, "_dot_text", _glue_edge)
    for t in X.trees:
        host = X.component(t.host_component).fiber(t.host_fiber)
        lines.append(_tree_edge(t.host_component, host, t.root))
        _tree_edges(lines, t.root)
    lines.append("}")
    return "\n".join(lines) + "\n"
