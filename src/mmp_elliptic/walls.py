"""Hyperplane walls in the weight cube and chamber bookkeeping.

Walls come in three kinds: fiber-model transitions on single coordinates
(WI), section contractions on subset sums equal to one (plus the total sum
equal to two over a rational base) (WII), and pseudoelliptic collapses on
subset sums equal to a threshold constant (WIII).  Boundary walls at a
coordinate equal to zero or one carry a flag.  Everything is exact; the full
arrangement on r markers is exponential in r.

`enumerate_walls` returns an `Arrangement`: a read-only list of the walls in
`Wall.sort_key` order that also carries integer columns, built once with the
walls: each wall's subset as a bitmask and its constant times one common
denominator (12 for the Kodaira constants).  `locate`, `walls_containing` and
`segment_walls` read every list through `Arrangement.of`, which builds the
same columns for any other iterable.  A query takes each weight over the lcm
of that denominator and its own, adds up every subset sum once from a table
of integers, compares integers only, and builds a `Fraction` only for a
crossing time that is hit.  `Wall.value_at` and `Wall.side` answer for one
wall.

`felt_walls` is the one table of the walls a given model feels, each paired
with the fiber, section or tree that crossing it rewrites.  It is made of
one row per component, keyed by its id in `felt_rows`; `felt_row` builds the
row of one component and the trees it hosts from those parts alone.  The
table depends only on the model's structure, so the reduction walk builds it
once and, after a WII or WIII record, replaces only the row of the component
the record rewrote; one full build is linear in the size of the model.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import eq
from typing import Iterable, NamedTuple, Sequence

from .curves import WeightVector
from .kodaira import THRESHOLD_CONSTANTS, KodairaType, lct_threshold
from .surfaces import (
    BrokenEllipticSurface,
    Component,
    MarkedFiber,
    PseudoComponent,
    TreeAttachment,
    subtree_markers,
)


class WallKind(str, Enum):
    WI = "WI"
    WII = "WII"
    WIII = "WIII"

    def __str__(self) -> str:
        return self.value


class Wall(NamedTuple):
    """The locus where the weight sum over `subset` equals `constant`."""

    kind: WallKind
    subset: frozenset[int]
    constant: Fraction
    boundary: bool = False

    def value_at(self, weights: WeightVector) -> Fraction:
        return weights.sum(self.subset)

    def side(self, weights: WeightVector) -> str:
        v = self.value_at(weights)
        if v < self.constant:
            return "below"
        if v > self.constant:
            return "above"
        return "on"

    def sort_key(self):
        return (self.kind.value, tuple(sorted(self.subset)), self.constant, self.boundary)

    def __str__(self) -> str:
        lhs = " + ".join(f"a{i}" for i in sorted(self.subset))
        tag = " (boundary)" if self.boundary else ""
        return f"{self.kind.value}: {lhs} = {self.constant}{tag}"


# the constants are shared objects, so walls and chambers of two enumerations
# compare them by identity
_ONE, _TWO = Fraction(1), Fraction(2)


class Arrangement(list):
    """Walls in `Wall.sort_key` order, with integer columns.

    `masks[i]` has bit k - 1 set for each marker k of wall i's subset;
    `scaled[i]` is wall i's constant times `den`, the lcm of the constants'
    denominators; `r` is the highest marker of any wall.  A query adds up
    its subset sums on a table of subsets closed under dropping the highest
    marker: wall i reads slot `_slots[i]`, and each step (k, parents) appends
    the sums of the parents' subsets plus the weight of marker k + 1.  For
    `enumerate_walls` the table is every subset, in mask order; for any other
    list it holds at most one entry per marker of each wall, so its cost does
    not grow with the marker indices.  The list refuses in-place changes, so
    it cannot drift from its columns.
    """

    __slots__ = ("masks", "scaled", "den", "r", "_slots", "_steps")

    def __init__(self, walls, masks, scaled, den, r, slots, steps) -> None:
        super().__init__(walls)
        self.masks, self.scaled, self.den, self.r = masks, scaled, den, r
        self._slots, self._steps = slots, steps

    @classmethod
    def of(cls, walls: Iterable[Wall]) -> Arrangement:
        """`walls` itself when it is an Arrangement; else its walls, in a
        stable sort by `Wall.sort_key`, with their columns.  Raises `KeyError`
        for a marker below 1."""
        if isinstance(walls, Arrangement):
            return walls
        walls = sorted(walls, key=Wall.sort_key)
        masks = []
        for w in walls:
            if min(w.subset, default=1) < 1:
                raise KeyError(f"marker index {min(w.subset)} below 1")
            masks.append(sum(1 << (i - 1) for i in w.subset))
        den = lcm(*(w.constant.denominator for w in walls))
        table = {0}
        for m in set(masks):
            while m not in table:
                table.add(m)
                m ^= 1 << (m.bit_length() - 1)
        table = sorted(table)
        slot = {m: j for j, m in enumerate(table)}
        steps: dict[int, list[int]] = {}
        for m in table[1:]:
            k = m.bit_length() - 1
            steps.setdefault(k, []).append(slot[m ^ 1 << k])
        return cls(
            walls,
            masks,
            [w.constant.numerator * (den // w.constant.denominator) for w in walls],
            den,
            table[-1].bit_length(),
            [slot[m] for m in masks],
            list(steps.items()),
        )

    def _over(self, *vectors: WeightVector) -> list[list[int]]:
        """Per wall, in order, as integers over D, the lcm of `den` and every
        weight denominator: the constants, then each vector's subset sums.
        Raises `KeyError` for a marker outside 1..r of a vector."""
        for v in vectors:
            if self.r > v.r:
                raise KeyError(f"marker index {self.r} outside 1..{v.r}")
        D = lcm(self.den, *(x.denominator for v in vectors for x in v.entries))
        scale = D // self.den
        out = [[c * scale for c in self.scaled]]
        for v in vectors:
            weights = [x.numerator * (D // x.denominator) for x in v.entries]
            sums = [0]
            for k, parents in self._steps:
                x = weights[k]
                sums += [sums[p] + x for p in parents]
            out.append(list(map(sums.__getitem__, self._slots)))
        return out

    def _read_only(self, *args, **kwargs):
        raise TypeError("an Arrangement cannot change in place; build a new one with Arrangement.of")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only

    def __reduce__(self):
        return Arrangement.of, (list(self),)


@dataclass(frozen=True)
class Chamber:
    """Sign vector of a weight vector against a wall collection, in `Wall.sort_key` order."""

    signs: tuple[tuple[Wall, str], ...]

    def sign(self, wall: Wall) -> str:
        """The sign of `wall`, bisected on `Wall.sort_key`; a repeated wall reads its first copy."""
        i = bisect_left(self.signs, wall.sort_key(), key=lambda pair: pair[0].sort_key())
        if i < len(self.signs) and self.signs[i][0] == wall:
            return self.signs[i][1]
        raise KeyError(f"wall {wall} not part of this chamber's arrangement")

    def on_walls(self) -> tuple[Wall, ...]:
        return tuple(w for w, s in self.signs if s == "on")

    def interior(self) -> bool:
        return not self.on_walls()


@dataclass(frozen=True)
class SegmentCrossing:
    """One crossing time along a weight segment, with every wall hit there."""

    t: Fraction
    walls_hit: tuple[Wall, ...]


def enumerate_walls(
    r: int, fiber_types: Iterable[KodairaType], rational_base: bool = False
) -> Arrangement:
    """The finite wall set for r markers of the given types.

    WI walls exist only for markers whose type has a threshold (a transition
    wall at the threshold and a boundary wall at one); WII walls are all
    nonempty subset sums equal to one, plus the total sum equal to two over a
    rational base; WIII walls are all nonempty subset sums equal to each
    threshold constant.  Every threshold is below one and the constants are
    distinct, so the walls are distinct by construction.  Emitted in
    `Wall.sort_key` order, with the columns of an `Arrangement` over every
    subset; the walls on one subset share its frozenset.
    """
    types = list(fiber_types)
    if len(types) != r:
        raise ValueError(f"expected {r} fiber types, got {len(types)}")
    den = lcm(*(c.denominator for c in THRESHOLD_CONSTANTS))  # every threshold is one of them
    walls, masks, scaled = [], [], []
    for i, ftype in enumerate(types):
        c = lct_threshold(ftype)  # may raise UnsupportedFiberType for N2
        if c is not None:
            subset = frozenset((i + 1,))
            walls += [Wall(WallKind.WI, subset, c), Wall(WallKind.WI, subset, _ONE, True)]
            masks += [1 << i, 1 << i]
            scaled += [c.numerator * (den // c.denominator), den]
    # every nonempty subset of k..r in the order of its sorted tuple: {k}, then
    # {k} with each subset of k+1..r, then the subsets of k+1..r
    subsets: list[frozenset[int]] = []
    lex: list[int] = []
    for k in range(r, 0, -1):
        single, bit = frozenset((k,)), 1 << (k - 1)
        subsets = [single, *[single | s for s in subsets], *subsets]
        lex = [bit, *[bit | m for m in lex], *lex]
    # tuple.__new__ skips the keyword handling of Wall(...), the cost of this loop
    new, WII, WIII = tuple.__new__, WallKind.WII, WallKind.WIII
    wii = [new(Wall, (WII, s, _ONE, False)) for s in subsets]
    wii_masks, wii_scaled = lex[:], [den] * len(lex)
    if rational_base:
        # the full set (1, ..., r) is the r-th subset in lexicographic order,
        # and its wall at two sorts right after its wall at one
        wii.insert(r, Wall(WII, frozenset(range(1, r + 1)), _TWO))
        wii_masks.insert(r, (1 << r) - 1)
        wii_scaled.insert(r, 2 * den)
    walls += wii
    walls += [new(Wall, (WIII, s, c, False)) for s in subsets for c in THRESHOLD_CONSTANTS]
    masks += wii_masks
    masks += [m for m in lex for _ in THRESHOLD_CONSTANTS]
    scaled += wii_scaled
    scaled += [c.numerator * (den // c.denominator) for c in THRESHOLD_CONSTANTS] * len(lex)
    steps = [(k, range(1 << k)) for k in range(r)]
    return Arrangement(walls, masks, scaled, den, r, masks, steps)


def locate(weights: WeightVector, walls: Iterable[Wall]) -> Chamber:
    """Sign vector of the weight vector against each wall, in
    `Wall.sort_key` order."""
    walls = Arrangement.of(walls)
    constants, sums = walls._over(weights)
    return Chamber(tuple([
        (w, "below" if v < c else "above" if v > c else "on")
        for w, v, c in zip(walls, sums, constants)
    ]))


def walls_containing(weights: WeightVector, walls: Iterable[Wall]) -> list[Wall]:
    """The walls through the weight vector, in `Wall.sort_key` order."""
    walls = Arrangement.of(walls)
    constants, sums = walls._over(weights)
    return list(compress(walls, map(eq, sums, constants)))


def segment_walls(
    A: WeightVector, B: WeightVector, walls: Iterable[Wall]
) -> list[SegmentCrossing]:
    """Interior crossing times of the segment A(t) = (1-t)A + tB, t from 1 to 0.

    Requires A <= B entrywise.  Walls containing the whole segment are not
    crossings and are omitted; endpoints on walls are reported separately by
    `walls_containing`.  Output is sorted by decreasing t, each crossing
    listing every wall hit at that time in `Wall.sort_key` order.
    """
    if not A.leq(B):
        raise ValueError("segment requires A <= B entrywise")
    walls = Arrangement.of(walls)
    constants, at_a, at_b = walls._over(A, B)
    hits: dict[Fraction, list[Wall]] = {}
    for w, c, lo, hi in zip(walls, constants, at_a, at_b):
        # A <= B, so a subset sum rises along the segment: a wall is crossed
        # inside it exactly when its constant lies strictly between the ends
        if lo < c < hi:
            hits.setdefault(Fraction(c - lo, hi - lo), []).append(w)
    return [SegmentCrossing(t, tuple(hits[t])) for t in sorted(hits, reverse=True)]


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
                for c, boundary in ((a0, False), (_ONE, True)):
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


def felt_rows(X: BrokenEllipticSurface) -> dict[str, list[FeltWall]]:
    """The rows of `felt_walls` keyed by component id, in id order
    (`felt_row`); a repeated id, which `validate` refuses, shares one row.

    Only the structure enters: weights and fiber states do not.  A
    component's row changes only with its section, fibers, attaching fibers
    or trees, so the reduction walk builds these rows once and, after a
    section contraction or a tree collapse, replaces only the row of the
    component that the record rewrote.
    """
    hosted: dict[str, list[TreeAttachment]] = {}
    for t in X.trees:
        hosted.setdefault(t.host_component, []).append(t)
    rows: dict[str, list[FeltWall]] = {}
    for comp in X.components:
        row = felt_row(comp, len(X.glue_ends(comp.cid)), hosted.get(comp.cid, ()))
        rows.setdefault(comp.cid, []).extend(row)
    return rows


def felt_walls(X: BrokenEllipticSurface) -> list[FeltWall]:
    """Every wall the model feels, with its site: the rows of `felt_rows`
    one after another."""
    return [fw for row in felt_rows(X).values() for fw in row]
