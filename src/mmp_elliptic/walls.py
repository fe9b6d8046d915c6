"""Hyperplane walls in the weight cube and chamber bookkeeping.

Walls come in three kinds: fiber-model transitions on single coordinates
(WI), section contractions on subset sums equal to one (plus the total sum
equal to two over a rational base) (WII), and pseudoelliptic collapses on
subset sums equal to a threshold constant (WIII).  Boundary walls at a
coordinate equal to zero or one carry a flag.  Everything is exact; the full
arrangement on r markers is exponential in r.

`enumerate_walls` returns an `Arrangement`: a read-only sequence of the
walls in `Wall.sort_key` order, held as columns of ints and shared objects:
each wall's kind, its subset as a bitmask, its constant times one common
denominator (12 for the Kodaira constants) and its boundary flag.  It builds
a `Wall` only when someone asks for one.  `locate`, `walls_containing` and
`segment_walls` read every list through `Arrangement.of`, which builds the
same columns for any other iterable.  A query takes each weight over the lcm
of that denominator and its own, adds up every subset sum once from a table
of integers, compares integers only, and builds a `Wall` and a `Fraction`
only for an answer: the walls through a point, or a crossing that is hit.
A `Chamber` is two masks over the arrangement, of the walls a point lies
below and on.  `Wall.value_at` and `Wall.side` answer for one wall.

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
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from itertools import chain, count, repeat
from math import lcm
from operator import add, eq, gt, lt
from typing import Iterable, Iterator, NamedTuple

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


# the constants are shared objects, so walls of two enumerations meet equal
# constants by identity; an enumeration keeps each one as its value times _DEN
# and reads the object back from _KODAIRA
_ONE, _TWO = Fraction(1), Fraction(2)
_DEN = lcm(*(c.denominator for c in THRESHOLD_CONSTANTS))  # every threshold is one of them
_KODAIRA = {c.numerator * (_DEN // c.denominator): c for c in (*THRESHOLD_CONSTANTS, _ONE, _TWO)}

_DIGITS = bytes.maketrans(b"\0\1", b"01")
_SIDES = {"10": "below", "01": "on", "00": "above"}


def _mask(flags: Iterable[bool]) -> int:
    """The int with bit i set where flag i is true."""
    return int(bytes(flags).translate(_DIGITS)[::-1] or b"0", 2)


def _rows(mask: int) -> Iterator[int]:
    """The indices of the set bits of `mask`, ascending."""
    bits = format(mask, "b")[::-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


def _integers(*vectors: WeightVector) -> tuple:
    """D, the lcm of every weight denominator, then each vector's weights times D."""
    D = lcm(*(x.denominator for v in vectors for x in v.entries))
    return (D, *[[x.numerator * (D // x.denominator) for x in v.entries] for v in vectors])


class Arrangement(Sequence):
    """Walls in `Wall.sort_key` order, held as columns of ints and shared objects.

    Row i is one wall: its kind, `masks[i]` with bit k - 1 set for each
    marker k of its subset, `scaled[i]`, its constant times `den` (the lcm of
    the constants' denominators), and its boundary flag; `r` is the highest
    marker of any wall.  Each distinct subset and constant is one object,
    looked up by mask and by scaled value, so the walls on one subset share
    its frozenset and every enumeration shares the Kodaira constants.  A
    `Wall` is built only when someone asks for one: by index, by iterating,
    which builds them all in one pass, or as the answer of a query.

    A query adds up its subset sums on a table of subsets closed under
    dropping the highest marker: wall i reads slot `_slots[i]`, and each step
    (k, parents) appends the sums of the parents' subsets plus the weight of
    marker k + 1.  For `enumerate_walls` the table is every subset, in mask
    order; for any other list it holds at most one entry per marker of each
    wall, so its cost does not grow with the marker indices.  The constants
    over a query's denominator are kept per scale.

    It is a read-only `Sequence`, equal to a list of the same walls and to
    an Arrangement of them; every in-place change raises `TypeError`.
    """

    __slots__ = (
        "masks", "scaled", "den", "r", "_kinds", "_boundary", "_subsets", "_constants", "_slots", "_steps", "_at_scale"
    )

    def __init__(self, kinds, masks, scaled, boundary, den, r, subsets, constants, slots, steps) -> None:
        self._kinds, self.masks, self.scaled, self._boundary = kinds, masks, scaled, boundary
        self.den, self.r = den, r
        self._subsets, self._constants = subsets, constants
        self._slots, self._steps = slots, steps
        self._at_scale = {1: scaled}

    @classmethod
    def of(cls, walls: Iterable[Wall]) -> Arrangement:
        """`walls` itself when it is an Arrangement; else its walls, in a
        stable sort by `Wall.sort_key`, as columns.  Raises `KeyError` for a
        marker below 1."""
        if isinstance(walls, Arrangement):
            return walls
        walls = sorted(walls, key=Wall.sort_key)
        den = lcm(*(w.constant.denominator for w in walls))
        masks, scaled, subsets, constants = [], [], {}, {}
        for w in walls:
            if min(w.subset, default=1) < 1:
                raise KeyError(f"marker index {min(w.subset)} below 1")
            m = sum(1 << (i - 1) for i in w.subset)
            c = w.constant.numerator * (den // w.constant.denominator)
            masks.append(m)
            scaled.append(c)
            subsets.setdefault(m, w.subset)
            constants.setdefault(c, w.constant)
        table = {0}
        for m in subsets:
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
            [w.kind for w in walls],
            masks,
            scaled,
            [w.boundary for w in walls],
            den,
            table[-1].bit_length(),
            subsets,
            constants,
            [slot[m] for m in masks],
            list(steps.items()),
        )

    def _walls(self, rows: Iterable[int] | None = None) -> Iterator[Wall]:
        """The walls at `rows`, or every wall, in one pass over the columns:
        the one place that builds a `Wall` of an arrangement."""
        columns = self._kinds, self.masks, self.scaled, self._boundary
        if rows is not None:
            rows = list(rows)
            columns = [map(column.__getitem__, rows) for column in columns]
        kinds, masks, scaled, boundary = columns
        # tuple.__new__ skips the keyword handling of Wall(...)
        return map(tuple.__new__, repeat(Wall), zip(
            kinds, map(self._subsets.__getitem__, masks), map(self._constants.__getitem__, scaled), boundary
        ))

    def __len__(self) -> int:
        return len(self._kinds)

    def __iter__(self) -> Iterator[Wall]:
        return self._walls()

    def __getitem__(self, i):
        """One wall, or a list of the walls of a slice."""
        rows = range(len(self))[i]
        if isinstance(rows, range):
            return list(self._walls(rows))
        return next(self._walls((rows,)))

    def __eq__(self, other) -> bool:
        if isinstance(other, Arrangement) and other.den == self.den:
            return (self._kinds, self.masks, self.scaled, self._boundary) == (
                other._kinds, other.masks, other.scaled, other._boundary
            )
        if isinstance(other, (list, Arrangement)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<Arrangement of {len(self)} walls on markers up to {self.r}>"

    def _sort_key(self, i: int) -> tuple:
        """`Wall.sort_key` of row i, read from the columns."""
        subset = self._subsets[self.masks[i]]
        return (self._kinds[i].value, tuple(sorted(subset)), self._constants[self.scaled[i]], self._boundary[i])

    def _find(self, wall: Wall) -> int | None:
        """The row of the first copy of `wall`, bisected on `Wall.sort_key`;
        None when the arrangement does not hold it."""
        key = wall.sort_key()
        i = bisect_left(range(len(self)), key, key=self._sort_key)
        return i if i < len(self) and self._sort_key(i) == key else None

    def _over(self, D: int, *weights: list[int]) -> list[list[int]]:
        """As integers over L, the lcm of `den` and D: the constant of each
        wall, in order, then for each list of weights over D the subset sum
        of each slot, which wall i reads at `_slots[i]`.  Raises `KeyError`
        for a marker outside 1..r of a list."""
        for v in weights:
            if self.r > len(v):
                raise KeyError(f"marker index {self.r} outside 1..{len(v)}")
        L = lcm(self.den, D)
        scale, lift = L // self.den, L // D
        constants = self._at_scale.get(scale)
        if constants is None:
            constants = self._at_scale[scale] = [c * scale for c in self.scaled]
        out = [constants]
        for v in weights:
            sums = [0]
            for k, parents in self._steps:
                sums += map(add, map(sums.__getitem__, parents), repeat(v[k] * lift))
            out.append(sums)
        return out

    def _read_only(self, *args, **kwargs):
        raise TypeError("an Arrangement cannot change in place; build a new one with Arrangement.of")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only

    def __reduce__(self):
        return Arrangement.of, (list(self),)


class Chamber(NamedTuple):
    """Where a weight vector lies against the walls of an `Arrangement`: bit
    i of `below` is set when it lies below wall i, bit i of `on` when it lies
    on it, and neither when it lies above.  The masks come first, so two
    chambers that differ compare unequal without reading their walls."""

    below: int
    on: int
    walls: Arrangement

    @property
    def signs(self) -> tuple[tuple[Wall, str], ...]:
        """The sign of every wall, as (wall, side) pairs in `Wall.sort_key` order."""
        n = len(self.walls)
        codes = map(add, format(self.below, f"0{n}b")[::-1], format(self.on, f"0{n}b")[::-1])
        return tuple(zip(self.walls, map(_SIDES.__getitem__, codes)))

    def sign(self, wall: Wall) -> str:
        """The sign of `wall`, found by bisection; a repeated wall reads its first copy."""
        i = self.walls._find(wall)
        if i is None:
            raise KeyError(f"wall {wall} not part of this chamber's arrangement")
        return "below" if self.below >> i & 1 else "on" if self.on >> i & 1 else "above"

    def on_walls(self) -> tuple[Wall, ...]:
        return tuple(self.walls._walls(_rows(self.on)))

    def interior(self) -> bool:
        return not self.on

    def __hash__(self) -> int:
        return hash((self.below, self.on))

    def __repr__(self) -> str:
        # the masks have a bit per wall, too many digits to print
        return f"Chamber(below={self.below.bit_count()} walls, on={self.on.bit_count()} walls, walls={self.walls!r})"


class SegmentCrossing(NamedTuple):
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
    `Wall.sort_key` order as the columns of an `Arrangement` over every
    subset; no `Wall` is built here.
    """
    types = list(fiber_types)
    if len(types) != r:
        raise ValueError(f"expected {r} fiber types, got {len(types)}")
    WI, WII, WIII = WallKind.WI, WallKind.WII, WallKind.WIII
    kinds, masks, scaled, boundary = [], [], [], []
    for i, ftype in enumerate(types):
        c = lct_threshold(ftype)  # may raise UnsupportedFiberType for N2
        if c is not None:
            kinds += (WI, WI)
            masks += (1 << i, 1 << i)
            scaled += (c.numerator * (_DEN // c.denominator), _DEN)
            boundary += (False, True)
    # every nonempty subset of k..r as a mask, in the order of its sorted
    # tuple: {k}, then {k} with each subset of k+1..r, then the subsets of k+1..r
    lex: list[int] = []
    sets: list[frozenset[int]] = []
    for k in range(r, 0, -1):
        bit, single = 1 << (k - 1), frozenset((k,))
        lex = [bit, *[bit | m for m in lex], *lex]
        sets = [single, *[single | s for s in sets], *sets]
    wii, wii_scaled = lex[:], [_DEN] * len(lex)
    if rational_base:
        # the full set (1, ..., r) is the r-th subset in lexicographic order,
        # and its wall at two sorts right after its wall at one
        wii.insert(r, (1 << r) - 1)
        wii_scaled.insert(r, 2 * _DEN)
    wiii_scaled = [c.numerator * (_DEN // c.denominator) for c in THRESHOLD_CONSTANTS]
    kinds += [WII] * len(wii) + [WIII] * (len(wiii_scaled) * len(lex))
    masks += wii
    masks += chain.from_iterable(zip(*[lex] * len(wiii_scaled)))
    scaled += wii_scaled
    scaled += wiii_scaled * len(lex)
    boundary += [False] * (len(kinds) - len(boundary))
    # the frozenset of each subset, indexed by its mask
    subsets = [frozenset()] * (1 << r)
    for m, s in zip(lex, sets):
        subsets[m] = s
    steps = [(k, range(1 << k)) for k in range(r)]
    return Arrangement(kinds, masks, scaled, boundary, _DEN, r, subsets, _KODAIRA, masks, steps)


def locate(weights: WeightVector, walls: Iterable[Wall]) -> Chamber:
    """The chamber of the weight vector: its side of each wall, as the masks
    of the walls it lies below and on."""
    walls = Arrangement.of(walls)
    constants, sums = walls._over(*_integers(weights))
    values = list(map(sums.__getitem__, walls._slots))
    return Chamber(_mask(map(lt, values, constants)), _mask(map(eq, values, constants)), walls)


def walls_containing(weights: WeightVector, walls: Iterable[Wall]) -> list[Wall]:
    """The walls through the weight vector, in `Wall.sort_key` order."""
    walls = Arrangement.of(walls)
    constants, sums = walls._over(*_integers(weights))
    return list(walls._walls([i for i, s, c in zip(count(), walls._slots, constants) if sums[s] == c]))


def segment_walls(
    A: WeightVector, B: WeightVector, walls: Iterable[Wall]
) -> list[SegmentCrossing]:
    """Interior crossing times of the segment A(t) = (1-t)A + tB, t from 1 to 0.

    Requires A <= B entrywise.  Walls containing the whole segment are not
    crossings and are omitted; endpoints on walls are reported separately by
    `walls_containing`.  Output is sorted by decreasing t, each crossing
    listing every wall hit at that time in `Wall.sort_key` order.
    """
    D, a, b = _integers(A, B)
    if len(a) != len(b) or any(map(gt, a, b)):
        raise ValueError("segment requires A <= B entrywise")
    walls = Arrangement.of(walls)
    constants, at_a, at_b = walls._over(D, a, b)
    slots = walls._slots
    # A <= B, so a subset sum rises along the segment: a wall is crossed
    # inside it exactly when its constant lies strictly between the ends
    rows = [i for i, s, c in zip(count(), slots, constants) if at_a[s] < c < at_b[s]]
    hits: dict[Fraction, list[Wall]] = {}
    for i, w in zip(rows, walls._walls(rows)):
        lo = at_a[slots[i]]
        hits.setdefault(Fraction(constants[i] - lo, at_b[slots[i]] - lo), []).append(w)
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
