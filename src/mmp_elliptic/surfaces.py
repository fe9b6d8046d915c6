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

Every part of a model is a `typing.NamedTuple` record, whose fields cannot
be assigned.  A record that checks or sorts its parts does it in the `__new__`
of a subclass, the public constructor.  `_replace` rebuilds a record through
`tuple.__new__` and checks and sorts nothing: it is the one trusted rebuild,
which the walk's rewrites (`reduction`) use where the new parts keep their
order and their ranges.  Five records keep an instance dict for memos: the
surface, for the cached lookups and the verdict below; `Component`, `Glue`
and `TreeAttachment`, for the texts the writers store (`stored_texts`) and,
on a component, its part of the base curve (`_base_points`); and
`curves.WeightVector`, for the texts of its weights (`curves._texts_of`) and
its integer lift, both set by the walk on a vector it derives.  Every other
record has `__slots__ = ()`.

Components are sorted by id, trees by (host component, host fiber) and
fibers by id, and every `_replace` in the walk keeps that order, so
`component`, `trees_on` and `fiber` bisect the sorted parts, store nothing,
and find the first of a repeated id, as a scan would.  Two lookups are
cached on the surface, each built in one pass the first time it is read:
glue ends per component (`glue_ends`, from `glue_index`), and every subtree
level with its host key (`pseudo_nodes`, `fiber_owners`, `host_keys`);
`host_fiber` bisects the components and walks only the trees.  A lookup
holds the surface's parts, never the surface, and a rewrite, through a
constructor or `_replace`, returns a new surface with an empty instance
dict, so no lookup can go stale.  The reduction walk builds no lookup on
the models it passes through: it keeps its own `glue_index`, built from its
start and patched by each flip, and it settles only the fibers of the
components and trees it tracks, not every fiber of `fiber_owners`.

The verdict of `validate` is cached beside them, as a tuple of violations
(empty for a valid model), because it is read twice per model: once by the
caller (`parse_model`, the CLI's `validate`) and once by `reduce` on its
input.  Each call of `validate` returns a new list.  The checks decide each
fiber's coefficient (a one-marker fiber's is its weight entry itself) and state
on integers, and build a `where` or detail text only for a violation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import Iterable, NamedTuple

from .curves import MarkedNodalCurve, Marker, Vertex, WeightVector, _by_index, _by_vid, _contract
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


class Violation(NamedTuple):
    """One validation failure: a stable code, the offending location, detail text."""

    code: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.where}: {self.detail}"


class _MarkedFiber(NamedTuple):
    fid: str
    ftype: KodairaType
    coeff: Fraction
    state: FiberState
    markers: frozenset[int]
    nonminimal_cusp: bool


class MarkedFiber(_MarkedFiber):
    """A marked (pseudo)fiber: type, coefficient, model state, backing markers.

    `markers` lists the weight-vector indices whose weights sum to `coeff`;
    it has several indices only after a pseudoelliptic collapse folded a whole
    tree's marking onto one fiber.  `nonminimal_cusp` records that the fiber
    arose from such a collapse.
    """

    __slots__ = ()

    def __new__(cls, fid, ftype, coeff, state, markers=frozenset(), nonminimal_cusp=False):
        # 0 <= coeff <= 1 on the integers of coeff: its denominator is positive
        if not 0 <= coeff.numerator <= coeff.denominator:
            raise ValueError(f"fiber {fid}: coefficient {coeff} outside [0, 1]")
        return tuple.__new__(cls, (fid, ftype, coeff, state, markers, nonminimal_cusp))


class AttachEnd(NamedTuple):
    component: str
    fiber_id: str
    ftype: KodairaType


class _Glue(NamedTuple):
    gid: str
    a: AttachEnd
    b: AttachEnd


class Glue(_Glue):
    """One gluing of two components along coefficient-one attaching fibers.

    Each side names its own fiber; the two fibers are identified curves on the
    surface but distinct fibers of their respective fibrations.  The record
    keeps an instance dict, for the texts the writers store on it.
    """

    def ends(self) -> tuple[AttachEnd, AttachEnd]:
        return (self.a, self.b)

    def peer_of(self, cid: str) -> AttachEnd:
        if self.a.component == cid:
            return self.b
        if self.b.component == cid:
            return self.a
        raise KeyError(f"glue {self.gid} does not touch {cid}")


_FID = attrgetter("fid")
_CID = attrgetter("cid")
_HOST = attrgetter("host_component")


def _fiber(fibers: tuple[MarkedFiber, ...], fid: str, kind: str, owner: str) -> MarkedFiber:
    """The first fiber with id `fid` in the id-sorted `fibers` of `owner`."""
    i = bisect_left(fibers, fid, key=_FID)
    if i < len(fibers) and fibers[i].fid == fid:
        return fibers[i]
    raise KeyError(f"{kind} {owner} has no fiber {fid}")


class _Component(NamedTuple):
    cid: str
    vertex: int
    genus: int
    degL: Fraction
    fibers: tuple[MarkedFiber, ...]
    isotrivial_jinf: bool
    has_section: bool


class Component(_Component):
    """A surface component over one base vertex.

    With a section it is elliptic.  Without one it is a type II
    pseudoelliptic attached along >= 2 twisted fibers, or the residue of a
    whole-surface section contraction (then with no gluings).  The
    constructor sorts the fibers by id.  The record keeps an instance dict,
    for the texts the writers store on it.
    """

    def __new__(cls, cid, vertex, genus, degL, fibers, isotrivial_jinf=False, has_section=True):
        fibers = tuple(sorted(fibers, key=_FID))
        return tuple.__new__(cls, (cid, vertex, genus, degL, fibers, isotrivial_jinf, has_section))

    def fiber(self, fid: str) -> MarkedFiber:
        return _fiber(self.fibers, fid, "component", self.cid)

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


class _PseudoComponent(NamedTuple):
    pid: str
    degL: Fraction
    attach_ftype: KodairaType
    fibers: tuple[MarkedFiber, ...]
    children: tuple[ChildLink, ...]
    isotrivial_jinf: bool


class PseudoComponent(_PseudoComponent):
    """A type I pseudoelliptic tree node.

    The node glues upward along a twisted pseudofiber of type `attach_ftype`;
    each child hangs off the E component of one of this node's intermediate
    pseudofibers, named by the child link.  The constructor sorts the fibers
    by id and the children by the id of their node.
    """

    __slots__ = ()

    def __new__(cls, pid, degL, attach_ftype, fibers, children=(), isotrivial_jinf=False):
        fibers = tuple(sorted(fibers, key=_FID))
        children = tuple(sorted(children, key=lambda c: c.node.pid))
        return tuple.__new__(cls, (pid, degL, attach_ftype, fibers, children, isotrivial_jinf))

    def fiber(self, fid: str) -> MarkedFiber:
        return _fiber(self.fibers, fid, "pseudo component", self.pid)

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


class ChildLink(NamedTuple):
    via_fiber: str
    node: PseudoComponent


class _TreeAttachment(NamedTuple):
    host_component: str
    host_fiber: str
    root: PseudoComponent


class TreeAttachment(_TreeAttachment):
    """A pseudoelliptic tree glued to the E component of an intermediate fiber
    on an elliptic or type II pseudoelliptic host.  The record keeps an
    instance dict, for the texts the writers store on it."""


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


class _BrokenEllipticSurface(NamedTuple):
    weights: WeightVector
    components: tuple[Component, ...]
    glues: tuple[Glue, ...]
    trees: tuple[TreeAttachment, ...]


class BrokenEllipticSurface(_BrokenEllipticSurface):
    """The full decorated dual graph of a weighted broken elliptic surface.

    The constructor sorts the components, the glues and the trees by id
    (a tree by its host component and host fiber).  The record keeps an
    instance dict, for the cached lookups and the verdict below.
    """

    def __new__(cls, weights, components, glues=(), trees=()):
        components = tuple(sorted(components, key=lambda c: c.cid))
        glues = tuple(sorted(glues, key=lambda g: g.gid))
        trees = tuple(sorted(trees, key=lambda t: (t.host_component, t.host_fiber)))
        return tuple.__new__(cls, (weights, components, glues, trees))

    # -- lookups: bisections of the sorted parts, or built on first use -----

    @cached_property
    def _ends(self) -> dict[str, list[tuple[Glue, AttachEnd]]]:
        return glue_index(self.glues)

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
        """The first component with id `cid`, bisected out of the components."""
        i = bisect_left(self.components, cid, key=_CID)
        if i < len(self.components) and self.components[i].cid == cid:
            return self.components[i]
        raise KeyError(f"no component {cid}")

    def glue_ends(self, cid: str) -> list[tuple[Glue, AttachEnd]]:
        """Every attaching-fiber end on the given component, glue included."""
        return list(self._ends.get(cid, ()))

    def trees_on(self, cid: str) -> tuple[TreeAttachment, ...]:
        """The trees hosted by `cid`, in order: a bisected run of the trees."""
        lo = bisect_left(self.trees, cid, key=_HOST)
        return self.trees[lo : bisect_right(self.trees, cid, lo, key=_HOST)]

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

    def host_fiber(self, owner: str, fid: str) -> MarkedFiber:
        """The fiber `fid` of a component or pseudo node; under a repeated id,
        the first such fiber of any owner with that id, in `fiber_owners`
        order.  The components with id `owner` are a bisected run, and only
        the trees are walked, so no lookup is built."""
        lo = bisect_left(self.components, owner, key=_CID)
        comps = self.components[lo : bisect_right(self.components, owner, lo, key=_CID)]
        nodes = (node for t in self.trees for node in t.root.nodes() if node.pid == owner)
        for part in chain(comps, nodes):
            for f in part.fibers:
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


def glue_index(glues: Iterable[Glue]) -> dict[str, list[tuple[Glue, AttachEnd]]]:
    """Each component's attaching-fiber ends, glue included, in glue order,
    keyed by component id and built in one pass: the lookup behind
    `glue_ends`, and the index the reduction walk keeps and patches."""
    out: dict[str, list[tuple[Glue, AttachEnd]]] = {}
    for g in glues:
        _, a, b = g
        out.setdefault(a.component, []).append((g, a))
        out.setdefault(b.component, []).append((g, b))
    return out


# -- texts stored on the part records -----------------------------------------


def stored_texts(objs: Iterable, key: str, build) -> list[str]:
    """`build(obj)` for each of `objs`, kept under `key` in the instance dict
    of `obj`, a `Component`, a `Glue` or a `TreeAttachment`, the part records
    that keep one: like the surface's lookups, built on first use, it lives
    and dies with `obj`.  The JSON and DOT writers store their texts this way."""
    return [obj.__dict__.get(key) or obj.__dict__.setdefault(key, build(obj)) for obj in objs]


# -- base curve projection ----------------------------------------------------


def _base_points(
    X: BrokenEllipticSurface,
) -> tuple[list[Vertex], list[Marker], list[tuple[int, Fraction]], dict[str, int]]:
    """One pass over the components: the base vertex of each, the markers of
    the weight indices on its fibers, the (vertex, coefficient) of each
    marker-less fiber in component and fiber order, and each component's
    vertex by id.

    A component's share (vertex, markers, coefficients of its marker-less
    fibers) is kept in its instance dict under `_base_part`, as
    `stored_text` keeps a text, but built inline in this pass, so a model's
    first base curve costs what it did before parts were kept, and a
    snapshot builds only the parts of the components its record replaced.
    A marker-less fiber is a twisted fiber of fixed coefficient one (e.g.
    the residue of a collapse onto a curve), and the surface keeps its
    section there, so on the base curve it is a point of weight one that no
    weight change moves.
    """
    vertices = []
    markers: list[Marker] = []
    fixed: list[tuple[int, Fraction]] = []
    vmap = {}
    for c in X.components:
        v = c.vertex
        memo = c.__dict__
        part = memo.get("_base_part")
        if part is None:
            marks = []
            coeffs = ()
            for f in c.fibers:
                if f.markers:
                    for i in f.markers:
                        marks.append(Marker(i, v))
                else:
                    coeffs += (f.coeff,)
            part = memo["_base_part"] = (Vertex(v, c.genus), tuple(marks), coeffs)
        vertex, marks, coeffs = part
        vertices.append(vertex)
        markers += marks
        vmap[c.cid] = v
        if coeffs:
            fixed += [(v, a) for a in coeffs]
    return vertices, markers, fixed, vmap


def pre_base_curve(X: BrokenEllipticSurface) -> MarkedNodalCurve:
    """Dual graph before contracting type II pseudoelliptic vertices.

    Marker i of the weight vector sits on the vertex of the component whose
    fiber it backs; the k-th marker-less fiber becomes marker r + k, weighted
    by `base_weights`.  The other parts are stored on the components
    (`_base_points`); the markers r + k depend on every component, so they
    are numbered on each call.  Every part sits on a component's vertex, so
    the trusted `_build` makes the curve.
    """
    vertices, markers, fixed, vmap = _base_points(X)
    ends = [(vmap[g.a.component], vmap[g.b.component]) for g in X.glues]
    edges = [(a, b) if a <= b else (b, a) for a, b in ends]
    r = X.weights.r
    markers += [Marker(r + k, v) for k, (v, _) in enumerate(fixed, start=1)]
    return MarkedNodalCurve._build(_by_vid(vertices), edges, _by_index(markers))


def base_weights(X: BrokenEllipticSurface) -> WeightVector:
    """The weights of the markers of `base_curve`: the model's weights, then
    the fixed coefficient of each marker-less fiber.  The Hassett reduction of
    a base curve is taken at these weights.  Both parts are already checked
    (a `MarkedFiber` keeps its coefficient in [0, 1]), so they are not
    checked again.  With no marker-less fiber they are the model's weights,
    the same vector, so its kept lift is read (`curves._lift_of`)."""
    fixed = tuple(a for _, a in _base_points(X)[2])
    return WeightVector._make((X.weights.entries + fixed,)) if fixed else X.weights


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
    # a one-marker fiber's coefficient is its weight entry itself
    derived = X.weights.entries[min(f.markers) - 1] if len(f.markers) == 1 else X.fiber_coeff(f)
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
    # both are in lowest terms, so equal exactly when their integers are
    p, q = derived.numerator, derived.denominator
    if f.coeff is not derived and (f.coeff.numerator != p or f.coeff.denominator != q):
        out.append(
            Violation(
                "coeff",
                f"{owner}/{f.fid}",
                f"cached coefficient {f.coeff} != marker weight sum {derived}",
            )
        )
    if f.ftype.family == "N2":
        if p != 0 or f.state != FiberState.WEIERSTRASS:
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
    gids: set[str] = set()
    for g in X.glues:
        if g.gid in gids:
            out.append(Violation("glue", g.gid, "glue id used twice"))
        gids.add(g.gid)
        for end in g.ends():
            key = (end.component, end.fiber_id)
            if key in end_ids:
                out.append(Violation("glue", g.gid, f"attach fiber {key} used twice"))
            end_ids.add(key)

    # fiber id uniqueness per component, then per pseudo node
    for i, (owner, fibers) in enumerate(owners):
        fids = [f.fid for f in fibers]
        if len(set(fids)) != len(fids):
            kind = "fiber" if i < len(X.components) else "pseudofiber"
            out.append(Violation("ids", owner, f"duplicate {kind} ids"))

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

    # marker disjointness over the marked fibers that host no subtree; each
    # marker keeps the (owner, fiber id) that used it first
    r = X.weights.r
    seen: dict[int, tuple[str, str]] = {}
    host_keys = X.host_keys()
    for owner, fibers in owners:
        for f in fibers:
            key = (owner, f.fid)
            if key in host_keys:
                continue
            for i in f.markers:
                if not 1 <= i <= r:
                    out.append(Violation("marker", "/".join(key), f"marker {i} outside 1..{r}"))
                elif i in seen:
                    out.append(Violation("marker", "/".join(key), f"marker {i} already used by {'/'.join(seen[i])}"))
                else:
                    seen[i] = key

    # per-fiber states, coefficients, eq. (4.1); a marker outside 1..r has
    # no weight, and its fiber is already reported above
    indices = frozenset(range(1, r + 1))
    for owner, fibers in owners:
        for f in fibers:
            if f.markers <= indices:
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

    # g >= 0 and S^2 = -degL <= 0; degL = 0 forces every singular fiber on
    # an elliptic component to be twisted
    for comp in X.components:
        if comp.genus < 0:
            out.append(Violation("genus", comp.cid, f"negative genus {comp.genus}"))
        if comp.degL.numerator < 0:
            out.append(Violation("degL", comp.cid, "negative fundamental line bundle degree"))
    for node in X.pseudo_nodes():
        if node.degL.numerator < 0:
            out.append(Violation("degL", node.pid, "negative fundamental line bundle degree"))
    for comp in X.elliptic:
        if comp.degL.numerator == 0:
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
