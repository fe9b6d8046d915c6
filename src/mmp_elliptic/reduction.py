"""Wall-crossing transformations and the stable-reduction walk.

Decreasing the weight vector of a valid broken-surface model triggers a fixed
repertoire of rewrites: marked fibers slide between their twisted,
intermediate, and Weierstrass models (WI walls); sections of rational
components contract, either flipping a leaf component into a pseudoelliptic
tree or forming a type II pseudoelliptic (WII walls); attached trees collapse
to a point or a curve once their marked weight drops to the host threshold
(WIII walls).  `reduce` walks a weight segment, applies every transformation
at its exact crossing time in the batch order WI, WII, WIII, and returns the
ordered trace with a model snapshot after each record.

Where a wall acts is decided in one place, the felt-wall table
(`felt_walls`, beside its integer twin `_Segment.holds`): the walk fires the
walls of its rows, and `cross_wall` acts at the felt wall with the given
wall's kind, markers and constant, or refuses.  Each record kind is built in
one place.  `_apply_section_contraction`
is the one WII path: a leaf flips (La Nave), taking along every type II
pseudoelliptic the flip leaves with a single attachment, and any other
component's section contracts in place; it reads its markers from the wall
that fired.  `_collapse_subtree` is the one WIII path, and its record
carries that wall.  Every fiber swap and subtree cut goes through one
helper, `_rewrite`, which reuses each component and tree that the change
does not touch.

A rewrite rebuilds the records it changes through `_replace`, the records'
one trusted rebuild: it checks and sorts nothing (see `surfaces`).  Each call
site may use it because its new parts keep the canonical order and stay in
range: a swapped fiber keeps its id, a cut or a dropped section keeps every
list in order, a walk's weights come from `_Segment.weights_at`, and a
recomputed coefficient is a weight sum that cannot exceed one (`_settle`).
The La Nave flip (`_hang_off_peer`) puts its new host fiber into its
fid-ordered place on the peer and its new tree into its (host component,
host fiber) place, where the public constructors would sort them, so no
rewrite of the walk builds a surface through them.  Every rewrite finds the
components, glues and trees it changes by bisecting the id-sorted tuples (a
pseudo node by a walk of the trees only) and copies each tuple it changes
once, with those places replaced.

The walk runs in the package's one integer form (`_Segment`): over D, the
scale `curves._integers` gives its two ends from the lift each weight vector
keeps, the weights at time t are (low + t * rise) / D, so each felt wall's
marker sum is an integer affine in t, and each wall's crossing time is fixed
as one integer ratio, scaled by its constant's denominator, when its row
enters the walk's table; `_due` and `_event_times` then compare integers,
and a `Fraction` is built only for an event time and a snapshot's weights,
which keep their lift and texts but nothing of the walk (`weights_at`).
The table holds the rows (`felt_row`) of the components that carry a moving
marker (A_i < B_i), trees included, and of any other component with a WII or
WIII wall already due: a wall whose markers all stay fixed never moves, so
the walk never crosses the rest of `felt_walls`.  It is built once from the
start and kept for the whole walk: a WII or WIII record builds again only
the row of the component it rewrote and drops the rows of the components it
hung; every other row stays as it was.  That component is known, not searched
for: the one a section contraction returns, or the row of the collapsed
tree's wall.  Each batch settles only the fibers whose markers move, found on
the table's components and their trees, which includes any such fiber a WII
or WIII rewrite has created; the others keep their coefficient, so they stay
settled.  The glue ends of each component come from one index
(`surfaces.glue_index`) that the walk builds from its start, in the pass
that counts each component's attachments for the table, and that each flip
patches as it removes its glue: a record reads the ends of the components it
touches there, and the walk builds no lookup on the models it passes
through.  `cross_wall` builds the index from its one input.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from fractions import Fraction
from itertools import compress, islice
from operator import attrgetter, itemgetter, sub
from typing import Container, Iterable, NamedTuple, Sequence

from .curves import WeightVector, _integers, _texts_of
from .kodaira import FiberState, fiber_model_at, is_settled, lct_threshold
from .surfaces import (
    _CID,
    _FID,
    _HOST,
    AttachEnd,
    BrokenEllipticSurface,
    ChildLink,
    Component,
    Glue,
    MarkedFiber,
    PseudoComponent,
    TreeAttachment,
    glue_index,
    subtree_markers,
    validate,
)
from .walls import Wall, WallKind


class WallNotSatisfied(Exception):
    """The model's weights do not lie on the requested wall."""


class RuleNotApplicable(Exception):
    """No transformation of the requested kind applies to the model."""


class InvalidModel(Exception):
    """Stable reduction was asked to start from an invalid model."""


class InconsistentTarget(Exception):
    """The target weight vector is outside the cube or not below the start."""


class RecordKind(str, Enum):
    FIBER_TO_WEIERSTRASS = "FiberToWeierstrass"
    FIBER_TO_INTERMEDIATE = "FiberToIntermediate"
    LA_NAVE_FLIP = "LaNaveFlip"
    TYPE_II_PSEUDO_FORMATION = "TypeIIPseudoFormation"
    WHOLE_SECTION_CONTRACTION = "WholeSectionContraction"
    TREE_COLLAPSE_TO_POINT = "TreeCollapseToPoint"
    TREE_COLLAPSE_TO_CURVE = "TreeCollapseToCurve"

    def __str__(self) -> str:
        return self.value


_WALL_OF_KIND = {
    RecordKind.FIBER_TO_WEIERSTRASS: WallKind.WI,
    RecordKind.FIBER_TO_INTERMEDIATE: WallKind.WI,
    RecordKind.LA_NAVE_FLIP: WallKind.WII,
    RecordKind.TYPE_II_PSEUDO_FORMATION: WallKind.WII,
    RecordKind.WHOLE_SECTION_CONTRACTION: WallKind.WII,
    RecordKind.TREE_COLLAPSE_TO_POINT: WallKind.WIII,
    RecordKind.TREE_COLLAPSE_TO_CURVE: WallKind.WIII,
}


class _TransformationRecord(NamedTuple):
    t: Fraction
    wall: Wall
    kind: RecordKind
    affected: tuple[str, ...]
    snapshot_after: BrokenEllipticSurface
    note: str


class TransformationRecord(_TransformationRecord):
    """One applied transformation: time on the walk, wall, kind, what moved,
    and a snapshot of the full model.  A WII or WIII record's snapshot is the
    model immediately after it.  The WI records of one batch of the walk share
    one snapshot: the model once every fiber of the batch has settled, before
    its section contractions and collapses, so it also holds the changes of
    the batch's later WI records.  The constructor checks that the kind
    belongs to the wall's kind."""

    __slots__ = ()

    def __new__(cls, t, wall, kind, affected, snapshot_after, note=""):
        if _WALL_OF_KIND[kind] != wall.kind:
            raise ValueError(f"record kind {kind} inconsistent with wall kind {wall.kind}")
        return tuple.__new__(cls, (t, wall, kind, affected, snapshot_after, note))


class ReductionTrace(NamedTuple):
    """Ordered log of a stable-reduction walk.

    Record times are non-increasing; several records share a time exactly when
    multiple walls are crossed at once, in which case the fixed batch order
    WI, WII, WIII applies; the WI records of one batch share one snapshot
    (`TransformationRecord`).  `halted` is set when a tree collapsed onto a
    curve, which the engine cannot re-mark automatically; the walk stops there,
    the final weights stay at the halting wall, and for a collapse nested
    inside a larger tree the final model may fail the derived-coefficient
    identity above the collapse point.  When `halted` is None the final model
    is valid and carries the target weights.
    """

    start: BrokenEllipticSurface
    target_weights: WeightVector
    records: tuple[TransformationRecord, ...]
    final: BrokenEllipticSurface
    halted: str | None = None


# -- structural rewriting helpers ---------------------------------------------


_GID = attrgetter("gid")
_TREE_KEY = itemgetter(0, 1)  # a tree's (host component, host fiber)


def _rewrite(
    X: BrokenEllipticSurface,
    new: dict[tuple[str, str], MarkedFiber],
    drop: tuple[str, str] | None = None,
) -> BrokenEllipticSurface:
    """The model with each fiber keyed (owner id, fiber id) in `new` swapped
    in and, when `drop` is one of those keys, the subtree hung off that fiber
    cut away.  A component owner is bisected out of the components; a pseudo
    node is found by a walk of the trees only, and a dropped top-level tree
    by bisecting the trees.  Every other component and tree is reused as it
    is, and the new tuples are copies with the touched places replaced, so a
    rewrite costs the owners it touches.  They are rebuilt through
    `_replace`, with no re-sort: a swapped fiber keeps its id and a cut only
    drops an entry, so every list keeps its order."""
    if not new:
        return X
    parts, components, nodes = X.components, {}, set()
    for owner in {owner for owner, _ in new}:
        i = bisect_left(parts, owner, key=_CID)
        if i < len(parts) and parts[i].cid == owner:
            c = parts[i]
            components[i] = c._replace(fibers=tuple([new.get((owner, f.fid), f) for f in c.fibers]))
        else:
            nodes.add(owner)
    trees = {}
    if nodes:
        for j, t in enumerate(X.trees):
            if any(n.pid in nodes for n in t.root.nodes()):
                trees[j] = TreeAttachment(t.host_component, t.host_fiber, _rewrite_node(t.root, new, drop))
    if drop is not None:
        lo = bisect_left(X.trees, drop, key=_TREE_KEY)
        for j in range(lo, bisect_right(X.trees, drop, lo, key=_TREE_KEY)):
            trees[j] = None
    return X._replace(components=_patched(parts, components), trees=_patched(X.trees, trees))


def _patched(parts: tuple, changes: dict[int, object]) -> tuple:
    """`parts` with the part at each place in `changes` replaced by its value,
    or dropped for None, in one copy; `parts` itself when nothing changes."""
    if not changes:
        return parts
    out = list(parts)
    for i in sorted(changes, reverse=True):
        if changes[i] is None:
            del out[i]
        else:
            out[i] = changes[i]
    return tuple(out)


def _inserted(parts: tuple, part, key) -> tuple:
    """The sorted `parts` with `part` put after every part whose `key` is at
    most its own: where a stable sort puts a part appended to them."""
    k = bisect_right(parts, key(part), key=key)
    return parts[:k] + (part,) + parts[k:]


def _rewrite_node(
    node: PseudoComponent, new: dict[tuple[str, str], MarkedFiber], drop: tuple[str, str] | None
) -> PseudoComponent:
    """The tree below `node` rebuilt as `_rewrite` asks."""
    children = [
        ChildLink(l.via_fiber, _rewrite_node(l.node, new, drop))
        for l in node.children
        if (node.pid, l.via_fiber) != drop
    ]
    return node._replace(fibers=tuple([new.get((node.pid, f.fid), f) for f in node.fibers]), children=tuple(children))


# -- WI: fiber model transitions ----------------------------------------------


def _settle(
    X: BrokenEllipticSurface,
    fibers: Iterable[tuple[str, MarkedFiber]],
    hosts: Container[tuple[str, str]],
    leave_one: bool = False,
) -> tuple[BrokenEllipticSurface, list[tuple[str, MarkedFiber, FiberState]]]:
    """Bring `fibers`, each as (owner id, fiber), to the model's weights.

    Each coefficient is recomputed from `X.weights`, and each plain fiber
    among them (its key not in `hosts`, not N2) moves to the state
    `fiber_model_at` gives unless `is_settled` already accepts its state.
    Tree-hosting fibers keep their state: flips and collapses govern them.
    With `leave_one` a twisted fiber at coefficient one drops to its
    intermediate model, as the walk asks on each batch; below t = 1 no listed
    fiber is at one.  Fibers not listed are left as they are.  Returns the
    model and each state change as (owner, fiber, new state), in the order of
    `fibers`.
    """
    events: list[tuple[str, MarkedFiber, FiberState]] = []
    new: dict[tuple[str, str], MarkedFiber] = {}
    for owner, f in fibers:
        coeff = X.weights.sum(f.markers)
        state = f.state
        if (owner, f.fid) not in hosts and f.ftype.family != "N2":
            if not is_settled(f.ftype, coeff, state):
                state = fiber_model_at(f.ftype, coeff)
            elif state == FiberState.TWISTED and leave_one:
                state = FiberState.INTERMEDIATE
            if state != f.state:
                events.append((owner, f, state))
        # coeff lies in [0, 1]: the walk only lowers weights from a valid
        # start, and `at_weights` refuses a sum above one before it settles
        if coeff != f.coeff or state != f.state:
            new[owner, f.fid] = f._replace(coeff=coeff, state=state)
    return _rewrite(X, new), events


def at_weights(X: BrokenEllipticSurface, W: WeightVector) -> BrokenEllipticSurface:
    """The model re-evaluated at other weights: coefficients recomputed from
    the markers and plain fiber states moved to the log canonical model at the
    new coefficient.  Tree hosts stay intermediate.  Refused with
    `RuleNotApplicable`, before any fiber is rebuilt, when W lifts the
    coefficient of a fiber, such as a tree host's derived one, above one."""
    every: set[int] = set()
    for owner, fibers in X.fiber_owners():
        for f in fibers:
            if f.markers:
                coeff = W.sum(f.markers)
                if coeff > 1:
                    raise RuleNotApplicable(
                        f"fiber {f.fid} of {owner}: coefficient {coeff} outside [0, 1]"
                    )
                every |= f.markers
    return _settle(X._replace(weights=W), X.fibers_with(every), X.host_keys())[0]


def _record_fiber_event(
    t: Fraction,
    owner: str,
    f: MarkedFiber,
    new_state: FiberState,
    snapshot: BrokenEllipticSurface,
) -> TransformationRecord:
    if new_state == FiberState.WEIERSTRASS:
        kind = RecordKind.FIBER_TO_WEIERSTRASS
        wall = Wall(WallKind.WI, f.markers, lct_threshold(f.ftype))
    else:
        kind = RecordKind.FIBER_TO_INTERMEDIATE
        wall = Wall(WallKind.WI, f.markers, Fraction(1), boundary=True)
    return TransformationRecord(t, wall, kind, (owner, f.fid), snapshot)


# -- WII: section contractions -------------------------------------------------


# the glue ends of each component of the model a walk is on (`glue_index`):
# built once, and patched by each flip
_Ends = dict[str, list[tuple[Glue, AttachEnd]]]


def _hang_off_peer(X: BrokenEllipticSurface, cid: str, ends: _Ends) -> tuple[BrokenEllipticSurface, str]:
    """Hang a 1-attachment component, with or without a section, off its
    peer's attaching fiber as the root of a pseudo tree.

    The root takes the component's fibers and, as children, the trees it
    hosts; the attaching fiber becomes the tree's intermediate host.  `ends`
    is the glue-end index of X; it is patched into that of the new model.
    Returns the model and the peer's component id.

    The component, the peer, the glue and the hosted trees are bisected out
    of X's sorted parts, and the new model is built from slices through
    `_replace`, with no re-sort: the host fiber goes into its fid-ordered
    place on the peer and the new tree into its (host component, host fiber)
    place (`_inserted`), where the public constructors would sort them.
    """
    [(glue, my_end)] = ends[cid]
    peer = glue.peer_of(cid)
    if lct_threshold(peer.ftype) is None:
        raise RuleNotApplicable(
            f"attaching fiber {peer.fiber_id} of type {peer.ftype} admits no intermediate model"
        )
    i = bisect_left(X.components, cid, key=_CID)
    comp = X.components[i]
    lo_t = bisect_left(X.trees, cid, key=_HOST)
    hi_t = bisect_right(X.trees, cid, lo_t, key=_HOST)
    root = PseudoComponent(
        pid=cid,
        degL=comp.degL,
        attach_ftype=my_end.ftype,
        fibers=comp.fibers,
        children=tuple(ChildLink(t.host_fiber, t.root) for t in X.trees[lo_t:hi_t]),
        isotrivial_jinf=comp.isotrivial_jinf,
    )
    markers = subtree_markers(root)
    host = MarkedFiber(
        peer.fiber_id, peer.ftype, X.weights.sum(markers), FiberState.INTERMEDIATE, markers
    )
    p = bisect_left(X.components, peer.component, key=_CID)
    hung = X.components[p]._replace(fibers=_inserted(X.components[p].fibers, host, _FID))
    lo = bisect_left(X.glues, glue.gid, key=_GID)
    hi = bisect_right(X.glues, glue.gid, lo, key=_GID)
    tree = TreeAttachment(peer.component, peer.fiber_id, root)
    rewritten = X._replace(
        components=_patched(X.components, {p: hung, i: None}),
        glues=X.glues[:lo] + X.glues[hi:],
        trees=_inserted(X.trees[:lo_t] + X.trees[hi_t:], tree, _TREE_KEY),
    )
    del ends[cid]
    for g in X.glues[lo:hi]:
        for end in (g.a, g.b):
            if end.component != cid:
                ends[end.component].remove((g, end))
    return rewritten, peer.component


def _apply_section_contraction(
    X: BrokenEllipticSurface, fw: FeltWall, t: Fraction, ends: _Ends
) -> tuple[BrokenEllipticSurface, TransformationRecord, str]:
    """Contract the section of `fw.owner`, whose WII wall `fw` fired.

    A leaf flips (La Nave): it becomes the root of a type I pseudoelliptic
    tree on its peer's attaching fiber.  A type II pseudoelliptic that the
    flip leaves with a single attachment has lost its right to exist and is
    folded into the tree as well, re-rooting it one step further along the
    chain.  Otherwise the section contracts in place: a multiply-attached
    component becomes a type II pseudoelliptic, and an unattached one makes
    the whole surface pseudoelliptic, keeping its base vertex so the model
    still projects to a curve.  `ends` is the glue-end index of X, and each
    flip patches it (`_hang_off_peer`).  Returns the model, the record and
    the component whose row changes: the last peer of a flip, or `fw.owner`.
    """
    cid, subset = fw.owner, fw.wall.subset
    constant = X.weights.sum(subset)
    n_ends = len(ends.get(cid, ()))
    affected, top = [cid], cid
    if n_ends == 1:
        kind, boundary = RecordKind.LA_NAVE_FLIP, constant != 1
        current, top = _hang_off_peer(X, cid, ends)
        while not current.component(top).has_section and len(ends.get(top, ())) == 1:
            affected.append(top)
            current, top = _hang_off_peer(current, top, ends)
    else:
        if n_ends == 0:
            kind, boundary = RecordKind.WHOLE_SECTION_CONTRACTION, constant != 2
        else:
            kind, boundary = RecordKind.TYPE_II_PSEUDO_FORMATION, True
        i = bisect_left(X.components, cid, key=_CID)
        current = X._replace(components=_patched(X.components, {i: X.components[i]._replace(has_section=False)}))
    wall = Wall(WallKind.WII, subset, constant, boundary=boundary)
    return current, TransformationRecord(t, wall, kind, tuple(affected), current), top


# -- WIII: pseudoelliptic collapses ---------------------------------------------


def _collapse_subtree(
    X: BrokenEllipticSurface, fw: FeltWall, t: Fraction
) -> tuple[BrokenEllipticSurface, TransformationRecord, bool]:
    """Remove the attached subtree of the WIII wall `fw` that fired; the record
    carries that wall.  The host fiber becomes the Weierstrass fiber of its
    own type carrying the tree's markers or, when the tree collapses onto a
    curve, an unmarked twisted fiber of coefficient one: the tree's markers
    then have no home, and the caller must halt the walk."""
    owner, fid, node = fw.owner, fw.fid, fw.node
    markers = fw.wall.subset
    old = X.host_fiber(owner, fid)
    to_curve = node.collapses_to_curve
    if to_curve:
        newf = MarkedFiber(fid, old.ftype, Fraction(1), FiberState.TWISTED, frozenset())
    else:
        coeff = X.weights.sum(markers)
        newf = MarkedFiber(
            fid, old.ftype, coeff, fiber_model_at(old.ftype, coeff), markers, nonminimal_cusp=True
        )
    current = _rewrite(X, {(owner, fid): newf}, drop=(owner, fid))
    kind = RecordKind.TREE_COLLAPSE_TO_CURVE if to_curve else RecordKind.TREE_COLLAPSE_TO_POINT
    note = f"host {owner}/{fid}"
    if to_curve:
        note += (
            f"; markers {sorted(markers)} contracted onto the attaching curve:"
            " requires manual review"
        )
    affected = tuple(n.pid for n in node.nodes())
    rec = TransformationRecord(t, fw.wall, kind, affected, current, note)
    return current, rec, to_curve


# -- the felt-wall table ----------------------------------------------------------


class FeltWall(NamedTuple):
    """One wall a model feels and the site it acts on: the fiber `fid` of
    `owner` for WI, the component `owner` for WII, and for WIII the subtree
    `node` hung off fiber `fid` of `owner`, `depth` levels below the top.
    `node` is the subtree as the table was built; only its structure is read."""

    wall: Wall
    owner: str
    fid: str = ""
    node: PseudoComponent | None = None
    depth: int = 0


def _fiber_walls(owner: str, fibers: Iterable[MarkedFiber], hosts: set[str]) -> list[FeltWall]:
    """The WI walls of one owner: a marked fiber that hosts no tree, is not
    N2 and whose type has a threshold feels that threshold and the boundary
    wall at one."""
    out = []
    for f in fibers:
        if f.markers and f.fid not in hosts and f.ftype.family != "N2":
            a0 = lct_threshold(f.ftype)
            if a0 is not None:
                for c, boundary in ((a0, False), (Fraction(1), True)):
                    out.append(FeltWall(Wall(WallKind.WI, f.markers, c, boundary), owner, f.fid))
    return out


def felt_row(comp: Component, attachments: int, trees: Sequence[TreeAttachment]) -> list[FeltWall]:
    """The row of `felt_walls` for one component, with `attachments`
    attaching fibers, and for `trees`, the trees it hosts: the component's
    walls, then those of every pseudo node in preorder.

    The component feels the WI walls of its marked fibers, then, while it
    has a section, its marker set at the value where the section's degree
    vanishes (WII): one for a rational leaf, two for an irreducible rational
    base, each lowered by the coefficients of its marker-less fibers.  A
    pseudo node's walls are the subtree it roots at its host fiber's
    threshold (WIII), when that type has one, then the WI walls of its
    marked fibers.  A fiber that hosts a subtree feels no WI wall.
    """
    row = _fiber_walls(comp.cid, comp.fibers, {t.host_fiber for t in trees})
    if comp.has_section:
        constant = -comp.section_constant(attachments)
        row.append(FeltWall(Wall(WallKind.WII, comp.marker_set, constant), comp.cid))
    for t in trees:
        _tree_walls(comp.cid, comp.fiber(t.host_fiber), t.root, 0, row)
    return row


def _tree_walls(owner: str, host: MarkedFiber, node: PseudoComponent, depth: int, row: list) -> None:
    """Append to `row` the walls of the subtree `node`, hung off fiber `host`
    of `owner` at `depth`, in preorder (see `felt_row`)."""
    a0 = lct_threshold(host.ftype)
    if a0 is not None:
        row.append(FeltWall(Wall(WallKind.WIII, subtree_markers(node), a0), owner, host.fid, node, depth))
    row += _fiber_walls(node.pid, node.fibers, {link.via_fiber for link in node.children})
    for link in node.children:
        _tree_walls(node.pid, node.fiber(link.via_fiber), link.node, depth + 1, row)


def felt_walls(X: BrokenEllipticSurface) -> list[FeltWall]:
    """Every wall the model feels, with its site: each component's row
    (`felt_row`), in id order.  Weights and fiber states do not enter."""
    return [fw for c in X.components for fw in felt_row(c, len(X.glue_ends(c.cid)), X.trees_on(c.cid))]


# -- batch application at one time ----------------------------------------------


# the walk's felt walls by component id, each wall as (num, den, felt wall):
# see `_Segment.reach`; the id is the component whose row holds the wall
_Table = dict[str, list[tuple[int, int, FeltWall]]]


class _Segment:
    """The walk's weight segment in integer form, from A (t = 0) up to B (t = 1).

    Over D, the scale of the one integer form of A and B
    (`curves._integers`), a multiple of `_DEN`, marker i sits at
    (low[i] + t * rise[i]) / D, so every marker-set sum times D is an integer
    affine in t.  `moving` holds the markers with A_i < B_i: the only ones
    whose fibers the walk has to settle again, and the only ones that move a
    wall (`holds`).  `reduce` refuses a segment with a negative rise
    (A_i > B_i) before it validates the model.  `ends` is the glue-end
    index (`glue_index`) of the model the walk is on: `table` builds it from
    the start, and each flip patches it.
    """

    def __init__(self, A: WeightVector, B: WeightVector) -> None:
        self.A = A
        self.D, a, b = _integers(A, B)
        self.low = [0, *a]
        self.rise = [0, *map(sub, b, a)]
        self.moving = frozenset(compress(range(A.r + 1), self.rise))

    def weights_at(self, t: Fraction) -> WeightVector:
        """The weights (1 - t) A + t B; a `Fraction` is built only for a
        moving marker.  For t in [0, 1] this convex combination of two
        checked vectors lies in [0, 1], so it is not checked again.  It keeps
        its lift (`curves._lift_of`), low[i] q + p rise[i] over qD for t = p/q,
        and its texts (`curves._texts_of`), A's but for the moving markers."""
        p, q = t.numerator, t.denominator
        L = q * self.D
        lift = [lo * q + p * up for lo, up in islice(zip(self.low, self.rise), 1, None)]
        entries = list(self.A.entries)
        texts = _texts_of(self.A).copy()
        for i in self.moving:
            entries[i - 1] = w = Fraction(lift[i - 1], L)
            texts[i - 1] = str(w)
        W = WeightVector._make((tuple(entries),))
        W.__dict__.update(_lift=(L, lift), _texts=texts)
        return W

    def reach(self, walls: Iterable[FeltWall]) -> list[tuple[int, int, FeltWall]]:
        """The walls the segment can still reach, each as (num, den, felt wall).

        A wall with constant c = m/n over a subset with sum s(t) gives
        num = mD - n low and den = n rise, low and rise summed over the
        subset: c - s(0) and s(1) - s(0) times nD.  It is due (s(t) <= c)
        exactly when t * den <= num, and the segment crosses it from above
        at t = num / den.  A wall with num < 0 stays above its constant on
        the whole segment and is left out.
        """
        out = []
        for fw in walls:
            c, subset = fw.wall.constant, fw.wall.subset
            n = c.denominator
            num = c.numerator * self.D - n * sum(map(self.low.__getitem__, subset))
            if num >= 0:
                out.append((num, n * sum(map(self.rise.__getitem__, subset)), fw))
        return out

    def holds(self, comp: Component, attachments: int, trees: Sequence[TreeAttachment]) -> bool:
        """Whether the walk's table holds the row (`felt_row`) of `comp`,
        with `attachments` attaching fibers and hosting `trees`.

        It does when `comp` carries a moving marker; a host fiber carries
        every marker of its tree, so this covers the trees.  Otherwise each
        sum is the same at every time, the WI walls never cross, and the row
        is held only when a WII or WIII wall there is already due, so that
        it fires in the current batch.  That test runs on integers and builds
        no wall: the section's degree (`section_constant` plus the marked
        weights, each marker on one fiber) is at most zero, or a host fiber's
        markers, which `validate` checks are its subtree's, sum to at most
        the threshold of its type.
        """
        marks = [i for f in comp.fibers for i in f.markers]
        if not self.moving.isdisjoint(marks):
            return True
        D, low = self.D, self.low
        if comp.has_section:
            degree = (2 * comp.genus - 2 + attachments) * D + sum(map(low.__getitem__, marks))
            # the marker-less coefficients only add, so they are summed only
            # when the rest is not positive; with none, `fixed` is int 0
            if degree <= 0:
                fixed = sum([f.coeff for f in comp.fibers if not f.markers])
                if degree * fixed.denominator + fixed.numerator * D <= 0:
                    return True
        stack = [(comp.fiber(t.host_fiber), t.root) for t in trees]
        while stack:
            host, node = stack.pop()
            a0 = lct_threshold(host.ftype)
            if a0 is not None and a0.denominator * sum(low[i] for i in host.markers) <= a0.numerator * D:
                return True
            stack += [(node.fiber(link.via_fiber), link.node) for link in node.children]
        return False

    def table(self, X: BrokenEllipticSurface) -> _Table:
        """The walk's start table: the reachable walls of each row it
        `holds`, keyed by component id.  Every row of `felt_walls(X)` it
        leaves out is one the walk never crosses.  The walk builds the table
        once and keeps it up to date with `update`.  The attachments of each
        component are read from `ends`, which this builds from X."""
        ends = self.ends = glue_index(X.glues)
        hosts = {t.host_component for t in X.trees}
        table: _Table = {}
        for comp in X.components:
            n, trees = len(ends.get(comp.cid, ())), X.trees_on(comp.cid) if comp.cid in hosts else ()
            if self.holds(comp, n, trees):
                table[comp.cid] = self.reach(felt_row(comp, n, trees))
        return table

    def update(self, table: _Table, Y: BrokenEllipticSurface, top: str, gone: Iterable[str]) -> None:
        """Drop the rows of `gone`, the affected ids of a WII or WIII record:
        the components a flip hung now sit in `top`'s tree.  Then build again
        the row of `top`, which the record rewrote into Y, or drop it when
        the table `holds` it no more.  No other component's section, fibers,
        attaching fibers or trees change, so no other row does, and the table
        stays the one `table` builds on Y.  `top` and its trees are bisected
        out of Y and its attaching fibers read from `ends`, so Y gains no
        lookup (`test_table_update_builds_no_lookup`).
        """
        for cid in gone:
            table.pop(cid, None)
        comp, n, trees = Y.component(top), len(self.ends.get(top, ())), Y.trees_on(top)
        if self.holds(comp, n, trees):
            table[top] = self.reach(felt_row(comp, n, trees))
        else:
            table.pop(top, None)

    def fibers(
        self, X: BrokenEllipticSurface, table: _Table
    ) -> tuple[list[tuple[str, MarkedFiber]], set[tuple[str, str]]]:
        """`X.fibers_with(self.moving)`, in its order, and the keys of the
        host fibers among them, found on the components of `table` and their
        trees only: the table `holds` the row of every component with a
        moving marker, and a host fiber carries every marker of its tree."""
        moving = self.moving
        owners = [X.component(cid) for cid in sorted(table)]
        fibers = [(c.cid, f) for c in owners for f in c.fibers if not f.markers.isdisjoint(moving)]
        hosts = set()
        for t in (t for c in owners for t in X.trees_on(c.cid)):
            hosts.add((t.host_component, t.host_fiber))
            for node in t.root.nodes():
                hosts.update((node.pid, link.via_fiber) for link in node.children)
                fibers += [(node.pid, f) for f in node.fibers if not f.markers.isdisjoint(moving)]
        return fibers, hosts


def _due(table: _Table, kind: WallKind, t: Fraction) -> list[tuple[str, FeltWall]]:
    """The walls of one kind in the walk's table whose marked weight is down
    to their constant at time t, each with the id of its row."""
    p, q = t.numerator, t.denominator
    rows = table.items()
    return [(cid, fw) for cid, row in rows for num, den, fw in row if fw.wall.kind == kind and p * den <= num * q]


def _apply_batch(
    X: BrokenEllipticSurface,
    segment: _Segment,
    table: _Table,
    t: Fraction,
    records: list[TransformationRecord],
) -> tuple[BrokenEllipticSurface, bool]:
    """Apply all transformations pending at time t of the walk.

    `table` is the segment's table of the model's felt walls
    (`_Segment.table`); it is updated in place.  Returns the rewritten model
    and whether the walk must halt (curve collapse).  The fibers of the
    moving markers, found by `_Segment.fibers`, are settled once (`_settle`,
    one WI record per state change); then one WII section
    contraction (lowest component id first) or, when none is due, one WIII
    collapse (deepest first, ties by pseudo node id) is applied at a time
    until neither is due, so cascades stay inside one batch.  A flip or a
    collapse leaves no plain fiber unsettled: hosts are pinned, a collapsed
    host is built at its log canonical model, and fibers that move keep
    their state.  WI records change no felt wall, so they leave the table as
    it is; after each WII or WIII record, `_Segment.update` builds again the
    row of the component the record rewrote, trees included, and drops those
    of the components a flip hung.
    """
    current, events = _settle(X, *segment.fibers(X, table), leave_one=True)
    for owner, fiber, new_state in events:
        records.append(_record_fiber_event(t, owner, fiber, new_state, current))
    halted = False
    while not halted:
        wii = _due(table, WallKind.WII, t)
        if wii:
            # lowest component id first: a WII wall's row is its component's
            _, fw = min(wii, key=itemgetter(0))
            current, rec, top = _apply_section_contraction(current, fw, t, segment.ends)
            if len(wii) > 1:
                rec = rec._replace(note=(rec.note + "; simultaneous section walls").strip("; "))
        else:
            wiii = _due(table, WallKind.WIII, t)
            if not wiii:
                break
            # deepest first so nested collapses precede their hosts'
            top, fw = min(wiii, key=lambda due: (-due[1].depth, due[1].node.pid))
            current, rec, halted = _collapse_subtree(current, fw, t)
        records.append(rec)
        segment.update(table, current, top, rec.affected)
    return current, halted


# -- the public operations --------------------------------------------------------


# a WI crossing by whether it is the boundary wall at one: the state the
# fiber must be in, the state it moves to, and the refusal when it is not
_WI_STEPS = {
    True: (FiberState.TWISTED, FiberState.INTERMEDIATE, "fiber is not twisted; nothing to blow up at one"),
    False: (FiberState.INTERMEDIATE, FiberState.WEIERSTRASS, "fiber is not intermediate; no Weierstrass contraction"),
}


def cross_wall(X: BrokenEllipticSurface, wall: Wall) -> tuple[BrokenEllipticSurface, TransformationRecord]:
    """Apply the single transformation attached to one wall.

    The model's weights must lie on the wall.  The model may be the limit of
    the above-chamber family (states not yet transitioned), which is exactly
    the input the crossing consumes; full validation is therefore not required
    here.  The site is the one rule the walk uses too: the first wall of
    `felt_walls` with the kind, the markers and the constant of `wall`.  A
    wall the model does not feel, such as a WII wall off its component's
    section constant or a WI wall off its fiber's threshold, is refused with
    `RuleNotApplicable`.  Standalone records carry t = 1.
    """
    if wall.side(X.weights) != "on":
        raise WallNotSatisfied(f"weights are not on {wall}")
    # kind, markers and constant: every field of a wall but its boundary flag
    site = next((fw for fw in felt_walls(X) if fw.wall[:3] == wall[:3]), None)
    if site is None:
        raise RuleNotApplicable(f"the model does not feel {wall}")
    t = Fraction(1)
    if wall.kind == WallKind.WI:
        fiber = X.host_fiber(site.owner, site.fid)
        state, new_state, refusal = _WI_STEPS[wall.constant == 1]
        if fiber.state != state:
            raise RuleNotApplicable(refusal)
        current = _rewrite(X, {(site.owner, site.fid): fiber._replace(state=new_state)})
        return current, _record_fiber_event(t, site.owner, fiber, new_state, current)
    if wall.kind == WallKind.WII:
        return _apply_section_contraction(X, site, t, glue_index(X.glues))[:2]
    return _collapse_subtree(X, site, t)[:2]


def _event_times(table: _Table, t: Fraction) -> Fraction:
    """Largest crossing time in [0, t) among the walls of the walk's table:
    the next time the segment meets a felt wall from above, or 0."""
    p, q = t.numerator, t.denominator
    best_num, best_den = -1, 1
    for num, den, _ in (entry for row in table.values() for entry in row):
        if num * q < p * den and num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(max(best_num, 0), best_den)


def reduce(X: BrokenEllipticSurface, target: WeightVector) -> ReductionTrace:
    """Walk the weight segment from the model's weights down to `target`,
    applying every wall transformation at its exact crossing time.

    The walk enforces, rather than assumes, the firing conventions: a section
    contracts as soon as its degree is non-positive, a tree collapses as soon
    as its marked weight reaches the host threshold, and fiber models are the
    log canonical ones at each visited weight (the boundary value a = a0
    already being Weierstrass).  An empty segment is a no-op.
    """
    if target.r != X.weights.r:
        raise InconsistentTarget(
            f"target has {target.r} entries; the model has {X.weights.r} markers"
        )
    segment = _Segment(target, X.weights)
    if min(segment.rise) < 0:
        raise InconsistentTarget("target must be entrywise <= the current weights")
    problems = validate(X)
    if problems:
        raise InvalidModel("; ".join(str(p) for p in problems))
    if not segment.moving:
        return ReductionTrace(X, target, (), X)

    records: list[TransformationRecord] = []
    t_cur = Fraction(1)
    table = segment.table(X)
    current, halted = _apply_batch(X, segment, table, t_cur, records)
    while not halted:
        t_next = _event_times(table, t_cur)
        current = current._replace(weights=segment.weights_at(t_next))
        current, halted = _apply_batch(current, segment, table, t_next, records)
        t_cur = t_next
        if t_cur == 0:
            break

    halt_note = None
    if halted:
        halt_rec = records[-1]
        halt_note = f"{halt_rec.kind} at t = {halt_rec.t}: {halt_rec.note}"
    return ReductionTrace(X, target, tuple(records), current, halt_note)
