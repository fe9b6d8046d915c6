"""Broken elliptic surface pairs as decorated dual graphs.

A model consists of components fibered over base-curve vertices, gluings
between components, and rooted trees of type I pseudoelliptic components
hanging off intermediate fibers.  A component is elliptic while it has a
section; once the log MMP contracts the section it is a type II
pseudoelliptic (still attached along twisted fibers), or the whole surface
when it has no gluings.  Marked fibers carry their Kodaira type, model state,
a rational coefficient, and the set of weight-vector indices backing that
coefficient.

Coefficients of tree-hosting intermediate fibers are derived: they equal the
sum of the weights of every marker carried by the attached subtree, with each
marker counted once.  The validator re-checks that identity together with the
per-fiber state rules, so inconsistent configurations are reported as data
rather than silently propagated.

Three lookups are cached on the frozen surface, each built in one pass the
first time it is read: components by id (`component`), glue ends per
component (`glue_ends`), and every subtree level with its host key
(`pseudo_nodes`, `fiber_owners`, `host_keys`).  Each is read several times
per build on the snapshots of a walk: components by id 4 (random models) to
59 (long chains) times, glue ends 2.5 to 13, subtree levels 3 to 5.
`fibers_with` and `host_fiber` are asked about once per surface, so they scan
`fiber_owners` instead of keeping a lookup of their own.  A lookup holds the
surface's parts, never the surface, and a rewrite that returns a new surface
starts afresh, so no lookup can go stale.

The verdict of `validate` is cached beside them, as a tuple of violations
(empty for a valid model), because it is read twice per model: once by the
caller (`parse_model`, the CLI's `validate`) and once by `reduce` on its
input.  Each call of `validate` returns a new list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .curves import MarkedNodalCurve, Marker, Vertex, WeightVector, _checked_weights, _contract
from .kodaira import (
    FiberState,
    KodairaType,
    NoIntermediateModel,
    UnsupportedFiberType,
    canonical_contribution,
    fiber_model_at,
    intersection_data,
    is_settled,
    lct_threshold,
)


class NoSectionError(Exception):
    """Section-specific query on a component without a section."""


class UnsupportedConfiguration(Exception):
    """The requested quantity is only defined for a restricted model class."""


class MissingThreshold(Exception):
    """A pseudoelliptic fate query hit a host fiber type without a threshold."""


@dataclass(frozen=True)
class Violation:
    """One validation failure: a stable code, the offending location, detail text."""

    code: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.where}: {self.detail}"


@dataclass(frozen=True)
class MarkedFiber:
    """A marked (pseudo)fiber: type, coefficient, model state, backing markers.

    `markers` lists the weight-vector indices whose weights sum to `coeff`;
    it has several indices only after a pseudoelliptic collapse folded a whole
    tree's marking onto one fiber.  `nonminimal_cusp` records that the fiber
    arose from such a collapse.
    """

    fid: str
    ftype: KodairaType
    coeff: Fraction
    state: FiberState
    markers: frozenset[int] = frozenset()
    nonminimal_cusp: bool = False

    def __post_init__(self) -> None:
        # 0 <= coeff <= 1 on the integers of coeff: its denominator is positive
        if not 0 <= self.coeff.numerator <= self.coeff.denominator:
            raise ValueError(f"fiber {self.fid}: coefficient {self.coeff} outside [0, 1]")


@dataclass(frozen=True)
class AttachEnd:
    component: str
    fiber_id: str
    ftype: KodairaType


@dataclass(frozen=True)
class Glue:
    """One gluing of two components along coefficient-one attaching fibers.

    Each side names its own fiber; the two fibers are identified curves on the
    surface but distinct fibers of their respective fibrations.
    """

    gid: str
    a: AttachEnd
    b: AttachEnd

    def ends(self) -> tuple[AttachEnd, AttachEnd]:
        return (self.a, self.b)

    def peer_of(self, cid: str) -> AttachEnd:
        if self.a.component == cid:
            return self.b
        if self.b.component == cid:
            return self.a
        raise KeyError(f"glue {self.gid} does not touch {cid}")


@dataclass(frozen=True)
class Component:
    """A surface component over one base vertex.

    With a section it is elliptic.  Without one it is a type II
    pseudoelliptic attached along >= 2 twisted fibers, or the residue of a
    whole-surface section contraction (then with no gluings).
    """

    cid: str
    vertex: int
    genus: int
    degL: Fraction
    fibers: tuple[MarkedFiber, ...]
    isotrivial_jinf: bool = False
    has_section: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "fibers", tuple(sorted(self.fibers, key=lambda f: f.fid)))

    def fiber(self, fid: str) -> MarkedFiber:
        for f in self.fibers:
            if f.fid == fid:
                return f
        raise KeyError(f"component {self.cid} has no fiber {fid}")

    @property
    def marker_set(self) -> frozenset[int]:
        """Every weight index marked on the component's fibers, tree hosts
        included: the markers whose weights count on its section."""
        return frozenset(i for f in self.fibers for i in f.markers)

    def section_constant(self, attachments: int) -> Fraction:
        """The weight-independent part of the section's degree when the
        component has `attachments` attaching fibers: 2g - 2 + attachments +
        (coefficients of marker-less fibers, fixed at one)."""
        base = Fraction(2 * self.genus - 2 + attachments)
        return sum((f.coeff for f in self.fibers if not f.markers), base)


@dataclass(frozen=True)
class PseudoComponent:
    """A type I pseudoelliptic tree node.

    The node glues upward along a twisted pseudofiber of type `attach_ftype`;
    each child hangs off the E component of one of this node's intermediate
    pseudofibers, named by the child link.
    """

    pid: str
    degL: Fraction
    attach_ftype: KodairaType
    fibers: tuple[MarkedFiber, ...]
    children: tuple["ChildLink", ...] = ()
    isotrivial_jinf: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "fibers", tuple(sorted(self.fibers, key=lambda f: f.fid)))
        object.__setattr__(
            self, "children", tuple(sorted(self.children, key=lambda c: c.node.pid))
        )

    def fiber(self, fid: str) -> MarkedFiber:
        for f in self.fibers:
            if f.fid == fid:
                return f
        raise KeyError(f"pseudo component {self.pid} has no fiber {fid}")

    @property
    def collapses_to_curve(self) -> bool:
        """An isotrivial j-infinity quotient with trivial fundamental line
        bundle contracts onto a curve, not a point, when its tree collapses."""
        return self.isotrivial_jinf and self.degL == 0

    def nodes(self) -> list["PseudoComponent"]:
        out = [self]
        for link in self.children:
            out.extend(link.node.nodes())
        return out


@dataclass(frozen=True)
class ChildLink:
    via_fiber: str
    node: PseudoComponent


@dataclass(frozen=True)
class TreeAttachment:
    """A pseudoelliptic tree glued to the E component of an intermediate fiber
    on an elliptic or type II pseudoelliptic host."""

    host_component: str
    host_fiber: str
    root: PseudoComponent


def subtree_markers(node: PseudoComponent) -> frozenset[int]:
    """All weight indices marked anywhere in the tree below (and on) `node`.

    Host pseudofibers repeat their child's markers, so a plain union is the
    each-marker-once total that drives every derived coefficient.
    """
    out: set[int] = set()
    for n in node.nodes():
        for f in n.fibers:
            out |= f.markers
    return frozenset(out)


@dataclass(frozen=True)
class BrokenEllipticSurface:
    """The full decorated dual graph of a weighted broken elliptic surface."""

    weights: WeightVector
    components: tuple[Component, ...]
    glues: tuple[Glue, ...] = ()
    trees: tuple[TreeAttachment, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "components", tuple(sorted(self.components, key=lambda c: c.cid))
        )
        object.__setattr__(self, "glues", tuple(sorted(self.glues, key=lambda g: g.gid)))
        object.__setattr__(
            self,
            "trees",
            tuple(sorted(self.trees, key=lambda t: (t.host_component, t.host_fiber))),
        )

    # -- lookups, each read from the structure alone on first use ---------

    @cached_property
    def _components_by_id(self) -> dict[str, Component]:
        # the first of a repeated id wins, as in a scan
        return {c.cid: c for c in reversed(self.components)}

    @cached_property
    def _ends(self) -> dict[str, list[tuple[Glue, AttachEnd]]]:
        out: dict[str, list[tuple[Glue, AttachEnd]]] = {}
        for g in self.glues:
            for end in g.ends():
                out.setdefault(end.component, []).append((g, end))
        return out

    @cached_property
    def _subtrees(self) -> list[tuple[str, str, PseudoComponent]]:
        """(host owner id, host fiber id, subtree root) of every subtree level
        in preorder, so its roots are the pseudo nodes in
        `PseudoComponent.nodes` order."""
        out = []
        stack = [(t.host_component, t.host_fiber, t.root) for t in reversed(self.trees)]
        while stack:
            entry = stack.pop()
            out.append(entry)
            node = entry[2]
            stack += [(node.pid, link.via_fiber, link.node) for link in reversed(node.children)]
        return out

    @cached_property
    def _verdict(self) -> tuple[Violation, ...]:
        """What `validate` finds, found once per surface."""
        return tuple(_violations(self))

    @property
    def elliptic(self) -> tuple[Component, ...]:
        """The components that keep their section."""
        return tuple(c for c in self.components if c.has_section)

    @property
    def pseudo2(self) -> tuple[Component, ...]:
        """The type II pseudoelliptic components: section contracted."""
        return tuple(c for c in self.components if not c.has_section)

    def component(self, cid: str) -> Component:
        try:
            return self._components_by_id[cid]
        except KeyError:
            raise KeyError(f"no component {cid}") from None

    def glue_ends(self, cid: str) -> list[tuple[Glue, AttachEnd]]:
        """Every attaching-fiber end on the given component, glue included."""
        return list(self._ends.get(cid, ()))

    def trees_on(self, cid: str) -> tuple[TreeAttachment, ...]:
        return tuple(t for t in self.trees if t.host_component == cid)

    def tree(self, tree_id: str) -> TreeAttachment:
        for t in self.trees:
            if t.root.pid == tree_id:
                return t
        raise KeyError(f"no attached tree rooted at {tree_id}")

    def pseudo_nodes(self) -> list[PseudoComponent]:
        return [node for _, _, node in self._subtrees]

    def fiber_owners(self) -> list[tuple[str, tuple[MarkedFiber, ...]]]:
        """(owner id, fibers) for every component, then every pseudo node."""
        return [(c.cid, c.fibers) for c in self.components] + [
            (node.pid, node.fibers) for _, _, node in self._subtrees
        ]

    def host_keys(self) -> frozenset[tuple[str, str]]:
        """(owner id, fiber id) of every fiber that hosts a subtree."""
        return frozenset((owner, fid) for owner, fid, _ in self._subtrees)

    def fibers_with(self, markers: Iterable[int]) -> list[tuple[str, MarkedFiber]]:
        """(owner id, fiber) for every fiber, tree hosts included, whose
        markers meet `markers`, in `fiber_owners` order."""
        markers = set(markers)
        owners = self.fiber_owners()
        return [(o, f) for o, fibers in owners for f in fibers if not f.markers.isdisjoint(markers)]

    def host_fiber(self, owner: str, fid: str) -> MarkedFiber:
        """The fiber `fid` of a component or pseudo node; under a repeated id,
        the first such fiber of any owner with that id."""
        for o, fibers in self.fiber_owners():
            if o == owner:
                for f in fibers:
                    if f.fid == fid:
                        return f
        raise KeyError(f"{owner} has no fiber {fid}")

    # -- derived quantities -------------------------------------------------

    def fiber_coeff(self, fiber: MarkedFiber) -> Fraction:
        """Ground-truth coefficient: the weight sum over the fiber's markers,
        or the fixed boundary coefficient of a marker-less fiber."""
        if not fiber.markers:
            return fiber.coeff
        return self.weights.sum(fiber.markers)


# -- base curve projection ----------------------------------------------------


def _fixed_points(X: BrokenEllipticSurface) -> list[tuple[int, Fraction]]:
    """(base vertex, coefficient) of every marker-less fiber on a component,
    in component and fiber order.  Such a fiber is a twisted fiber of fixed
    coefficient one (e.g. the residue of a collapse onto a curve), and the
    surface keeps its section there, so on the base curve it is a point of
    weight one that no weight change moves."""
    return [(c.vertex, f.coeff) for c in X.components for f in c.fibers if not f.markers]


def pre_base_curve(X: BrokenEllipticSurface) -> MarkedNodalCurve:
    """Dual graph before contracting type II pseudoelliptic vertices.

    Marker i of the weight vector sits on the vertex of the component whose
    fiber it backs; the k-th marker-less fiber becomes marker r + k, weighted
    by `base_weights`.
    """
    vertices = tuple(Vertex(c.vertex, c.genus) for c in X.components)
    vmap = {c.cid: c.vertex for c in X.components}
    edges = tuple(
        (vmap[g.a.component], vmap[g.b.component]) for g in X.glues
    )
    # the constructor orders the markers by index
    markers = [Marker(i, c.vertex) for c in X.components for f in c.fibers for i in f.markers]
    r = X.weights.r
    markers += [Marker(r + k, v) for k, (v, _) in enumerate(_fixed_points(X), start=1)]
    return MarkedNodalCurve(vertices, edges, tuple(markers))


def base_weights(X: BrokenEllipticSurface) -> WeightVector:
    """The weights of the markers of `base_curve`: the model's weights, then
    the fixed coefficient of each marker-less fiber.  The Hassett reduction of
    a base curve is taken at these weights.  Both parts are already checked
    (a `MarkedFiber` keeps its coefficient in [0, 1]), so they are not
    checked again."""
    return _checked_weights(X.weights.entries + tuple(a for _, a in _fixed_points(X)))


def base_curve(X: BrokenEllipticSurface) -> MarkedNodalCurve:
    """The dual graph of the image curve, marked as `pre_base_curve` marks it.

    Type II pseudoelliptic components are contracted by the fibration, so
    their vertices collapse onto a neighbor, lowest id first, through
    `curves._contract`, the code the weighted-curve reducer runs; genera add,
    and pseudoelliptic trees contribute nothing.  A component with no
    neighbor (a whole-surface pseudoelliptic) keeps its vertex so the
    projection stays a curve.  Its markers carry the weights `base_weights`
    gives.
    """
    return _contract(pre_base_curve(X), {c.vertex for c in X.pseudo2})


# -- section adjunction -------------------------------------------------------


def section_degree(X: BrokenEllipticSurface, cid: str) -> Fraction:
    """Degree of the log canonical divisor on the section over one component:
    2g - 2 + (number of attaching fibers) + (sum of fiber coefficients), where
    a marker-less fiber keeps its fixed coefficient one.

    Marked coefficients are evaluated from the weight vector, so the result is
    exact even if cached fiber coefficients are stale.
    """
    comp = X.component(cid)
    if not comp.has_section:
        raise NoSectionError(f"component {cid} is pseudoelliptic; its section is contracted")
    base = comp.section_constant(len(X.glue_ends(cid)))
    return sum((X.fiber_coeff(f) for f in comp.fibers if f.markers), base)


# -- pseudoelliptic fate ------------------------------------------------------


PSEUDO_BIG = "Big"
PSEUDO_TO_POINT = "ContractToPoint"
PSEUDO_TO_CURVE = "ContractToCurve"


def pseudo_fate(X: BrokenEllipticSurface, tree_id: str) -> str:
    """What the log canonical map does to an attached pseudoelliptic tree.

    With S the tree's total marked weight and c the threshold of the host
    fiber type: the tree stays (Big) while S > c and contracts once S <= c,
    to a curve instead of a point only for trees whose root is flagged as an
    isotrivial j-infinity quotient with trivial fundamental line bundle.
    """
    att = X.tree(tree_id)
    host = X.component(att.host_component)
    hfiber = host.fiber(att.host_fiber)
    c = lct_threshold(hfiber.ftype)
    if c is None:
        raise MissingThreshold(f"host fiber type {hfiber.ftype} has no threshold")
    if X.weights.sum(subtree_markers(att.root)) > c:
        return PSEUDO_BIG
    if att.root.collapses_to_curve:
        return PSEUDO_TO_CURVE
    return PSEUDO_TO_POINT


# -- volume -------------------------------------------------------------------


def volume(X: BrokenEllipticSurface) -> Fraction:
    """Self-intersection of the log canonical divisor on an irreducible model.

    Only defined for a single elliptic component with every marked fiber in
    Weierstrass or intermediate state: there the canonical bundle formula and
    the tabulated intermediate pairings determine the expansion

        (K + S + F)^2 = 2k - degL + sum_i (2 a_i + corr_i),
        k = 2g - 2 + degL,

    where corr vanishes for a Weierstrass fiber and for an intermediate fiber
    of type t equals a^2 A^2 + 2a(alpha+1) A.E + (alpha+1)^2 E^2 from the
    local table.  Everything else raises UnsupportedConfiguration.
    """
    if len(X.elliptic) != 1 or X.pseudo2 or X.trees or X.glues:
        raise UnsupportedConfiguration("volume needs an irreducible elliptic model")
    comp = X.elliptic[0]
    k = 2 * comp.genus - 2 + comp.degL
    total = 2 * k - comp.degL
    for f in comp.fibers:
        a = X.fiber_coeff(f)
        total += 2 * a
        if f.state == FiberState.TWISTED:
            raise UnsupportedConfiguration(
                f"fiber {f.fid} is twisted; its local pairings are not tabulated"
            )
        if f.state == FiberState.INTERMEDIATE:
            try:
                data = intersection_data(f.ftype)
            except NoIntermediateModel as exc:
                raise UnsupportedConfiguration(str(exc)) from None
            alpha = canonical_contribution(f.ftype, FiberState.INTERMEDIATE)
            c1 = alpha + 1
            total += a * a * data.A_sq + 2 * a * c1 * data.AE + c1 * c1 * data.E_sq
    return total


# -- validation ---------------------------------------------------------------


def _check_fiber_state(
    X: BrokenEllipticSurface,
    owner: str,
    f: MarkedFiber,
    hosts: dict[tuple[str, str], frozenset[int]],
    out: list[Violation],
) -> None:
    derived = X.fiber_coeff(f)
    key = (owner, f.fid)
    if key in hosts:
        expected = hosts[key]
        if f.markers != expected:
            out.append(
                Violation(
                    "eq-4.1",
                    f"{owner}/{f.fid}",
                    f"host fiber markers {sorted(f.markers)} != tree markers {sorted(expected)}",
                )
            )
            return
        if f.coeff != derived:
            out.append(
                Violation(
                    "eq-4.1",
                    f"{owner}/{f.fid}",
                    f"host coefficient {f.coeff} != tree marked weight {derived}",
                )
            )
        if f.state != FiberState.INTERMEDIATE:
            out.append(
                Violation("host-state", f"{owner}/{f.fid}", "tree host fibers must be intermediate")
            )
            return
        try:
            a0 = lct_threshold(f.ftype)
        except UnsupportedFiberType:
            out.append(Violation("fiber-type", f"{owner}/{f.fid}", "N2 cannot host a tree"))
            return
        if a0 is None:
            out.append(
                Violation(
                    "host-state", f"{owner}/{f.fid}", f"type {f.ftype} has no intermediate model"
                )
            )
        elif not a0 <= derived <= 1:
            # the closed bottom end is the nef limit exactly on the collapse
            # wall; strictly below it the tree must already have collapsed
            out.append(
                Violation(
                    "host-state",
                    f"{owner}/{f.fid}",
                    f"host coefficient {derived} outside [{a0}, 1]",
                )
            )
        return
    if not f.markers:
        # marker-less fibers carry the fixed coefficient one of the boundary:
        # only a twisted fiber (e.g. the residue of a collapse onto a curve)
        # is representable without backing markers
        try:
            a0 = lct_threshold(f.ftype)
        except UnsupportedFiberType:
            a0 = None
        if f.state != FiberState.TWISTED or f.coeff != 1 or a0 is None:
            out.append(
                Violation(
                    "unmarked-fiber",
                    f"{owner}/{f.fid}",
                    "a fiber without markers must be twisted with coefficient one",
                )
            )
        return
    if f.coeff != derived:
        out.append(
            Violation(
                "coeff",
                f"{owner}/{f.fid}",
                f"cached coefficient {f.coeff} != marker weight sum {derived}",
            )
        )
    if f.ftype.family == "N2":
        if derived != 0 or f.state != FiberState.WEIERSTRASS:
            out.append(
                Violation(
                    "fiber-type",
                    f"{owner}/{f.fid}",
                    "N2 state rules are unmodeled; only coefficient 0 Weierstrass is accepted",
                )
            )
        return
    if not is_settled(f.ftype, derived, f.state):
        out.append(
            Violation(
                "fiber-state",
                f"{owner}/{f.fid}",
                f"state {f.state} but coefficient {derived} implies"
                f" {fiber_model_at(f.ftype, derived)}",
            )
        )


def validate(X: BrokenEllipticSurface) -> list[Violation]:
    """Every invariant violation in the model, as data; empty means valid.
    The verdict is found once per surface; each call returns a new list."""
    return list(X._verdict)


def _violations(X: BrokenEllipticSurface) -> list[Violation]:
    """The checks behind `validate`, uncached: `_verdict` keeps their result."""
    out: list[Violation] = []

    owners = X.fiber_owners()
    ids = [owner for owner, _ in owners]
    if len(set(ids)) != len(ids):
        out.append(Violation("ids", "surface", "component/node ids are not unique"))
    verts = [c.vertex for c in X.components]
    if len(set(verts)) != len(verts):
        out.append(Violation("vertices", "surface", "two components share a base vertex"))

    # gluings
    for g in X.glues:
        for end in g.ends():
            try:
                comp = X.component(end.component)
            except KeyError:
                out.append(Violation("glue", g.gid, f"unknown component {end.component}"))
                continue
            if any(f.fid == end.fiber_id for f in comp.fibers):
                out.append(
                    Violation(
                        "glue",
                        g.gid,
                        f"attach fiber id {end.fiber_id} collides with a marked fiber",
                    )
                )
            try:
                a0 = lct_threshold(end.ftype)
            except UnsupportedFiberType:
                out.append(Violation("glue", g.gid, "N2 attaching fibers are unsupported"))
                continue
            if a0 is None and not end.ftype.is_stable:
                out.append(
                    Violation(
                        "glue",
                        g.gid,
                        f"type {end.ftype} is neither twisted-capable nor stable",
                    )
                )
    end_ids: set[tuple[str, str]] = set()
    for g in X.glues:
        for end in g.ends():
            key = (end.component, end.fiber_id)
            if key in end_ids:
                out.append(Violation("glue", g.gid, f"attach fiber {key} used twice"))
            end_ids.add(key)

    # fiber id uniqueness per component
    for comp in X.components:
        fids = [f.fid for f in comp.fibers]
        if len(set(fids)) != len(fids):
            out.append(Violation("ids", comp.cid, "duplicate fiber ids"))
    for node in X.pseudo_nodes():
        fids = [f.fid for f in node.fibers]
        if len(set(fids)) != len(fids):
            out.append(Violation("ids", node.pid, "duplicate pseudofiber ids"))

    # (host key, subtree root) of every tree and child link whose host exists
    links: list[tuple[tuple[str, str], PseudoComponent]] = []
    for att in X.trees:
        try:
            host = X.component(att.host_component)
        except KeyError:
            out.append(Violation("tree", att.root.pid, f"unknown host {att.host_component}"))
            continue
        try:
            host.fiber(att.host_fiber)
        except KeyError:
            out.append(
                Violation(
                    "tree",
                    att.root.pid,
                    f"host {att.host_component} has no fiber {att.host_fiber}",
                )
            )
            continue
        links.append(((att.host_component, att.host_fiber), att.root))
    for node in X.pseudo_nodes():
        for link in node.children:
            try:
                node.fiber(link.via_fiber)
            except KeyError:
                out.append(
                    Violation(
                        "tree",
                        link.node.pid,
                        f"parent {node.pid} has no pseudofiber {link.via_fiber}",
                    )
                )
                continue
            links.append(((node.pid, link.via_fiber), link.node))

    # host fiber map: (owner, fiber id) -> markers required by eq. (4.1).  A
    # fiber hosts one subtree: each later one is reported, and all count
    hosts: dict[tuple[str, str], frozenset[int]] = {}
    for key, node in links:
        if key in hosts:
            out.append(Violation("tree", "/".join(key), f"also hosts the subtree of {node.pid}"))
        hosts[key] = hosts.get(key, frozenset()) | subtree_markers(node)

    # marker disjointness over the marked fibers that host no subtree
    seen: dict[int, str] = {}
    host_keys = X.host_keys()
    for owner, fibers in owners:
        for f in fibers:
            if (owner, f.fid) in host_keys:
                continue
            where = f"{owner}/{f.fid}"
            for i in f.markers:
                if not 1 <= i <= X.weights.r:
                    out.append(Violation("marker", where, f"marker {i} outside 1..{X.weights.r}"))
                elif i in seen:
                    out.append(Violation("marker", where, f"marker {i} already used by {seen[i]}"))
                else:
                    seen[i] = where

    # per-fiber states, coefficients, eq. (4.1); a marker outside 1..r has
    # no weight, and its fiber is already reported above
    for owner, fibers in owners:
        for f in fibers:
            if all(1 <= i <= X.weights.r for i in f.markers):
                _check_fiber_state(X, owner, f, hosts, out)

    # pseudo node attach types must admit a twisted model
    for node in X.pseudo_nodes():
        try:
            a0 = lct_threshold(node.attach_ftype)
        except UnsupportedFiberType:
            out.append(Violation("tree", node.pid, "N2 attaching pseudofiber"))
            continue
        if a0 is None and not node.attach_ftype.is_stable:
            out.append(
                Violation("tree", node.pid, f"attach type {node.attach_ftype} cannot be twisted")
            )

    # type II components need >= 2 attachments unless they are the residue of
    # a whole-surface section contraction
    for c in X.pseudo2:
        n_ends = len(X.glue_ends(c.cid))
        if n_ends < 2 and not (n_ends == 0 and len(X.components) == 1):
            out.append(
                Violation(
                    "type-ii",
                    c.cid,
                    f"type II component has {n_ends} attaching fiber(s); needs >= 2",
                )
            )

    # degL bookkeeping: S^2 = -degL <= 0, and degL = 0 forces every singular
    # fiber on an elliptic component to be twisted
    for comp in X.components:
        if comp.degL < 0:
            out.append(Violation("degL", comp.cid, "negative fundamental line bundle degree"))
    for node in X.pseudo_nodes():
        if node.degL < 0:
            out.append(Violation("degL", node.pid, "negative fundamental line bundle degree"))
    for comp in X.elliptic:
        if comp.degL == 0:
            for f in comp.fibers:
                if not f.ftype.is_smooth and f.state != FiberState.TWISTED:
                    out.append(
                        Violation(
                            "degL",
                            f"{comp.cid}/{f.fid}",
                            "degL = 0 permits only smooth or twisted fibers",
                        )
                    )
            for g, end in X.glue_ends(comp.cid):
                if end.ftype.is_stable and not end.ftype.is_smooth:
                    out.append(
                        Violation(
                            "degL",
                            f"{comp.cid}/{end.fiber_id}",
                            "degL = 0 permits only smooth or twisted attaching fibers",
                        )
                    )

    # connectivity of the component graph
    if len(X.components) > 1:
        adjacency: dict[str, set[str]] = {c.cid: set() for c in X.components}
        for g in X.glues:
            if g.a.component in adjacency and g.b.component in adjacency:
                adjacency[g.a.component].add(g.b.component)
                adjacency[g.b.component].add(g.a.component)
        start = X.components[0].cid
        seen_c = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in seen_c:
                    seen_c.add(w)
                    frontier.append(w)
        if len(seen_c) != len(X.components):
            out.append(Violation("connectivity", "surface", "component graph is disconnected"))

    return out
