"""Hyperplane walls in the weight cube and chamber bookkeeping.

Walls come in three kinds: fiber-model transitions on single coordinates
(WI), section contractions on subset sums equal to one (plus the total sum
equal to two over a rational base) (WII), and pseudoelliptic collapses on
subset sums equal to a threshold constant (WIII).  Boundary walls at a
coordinate equal to zero or one carry a flag.  Everything is exact; the full
arrangement on r markers is exponential in r.  `enumerate_walls` emits it
already in `Wall.sort_key` order, sorting the 2^r - 1 subsets once.

`locate`, `walls_containing` and `segment_walls` read one integer kernel,
`_integer_sums`: over one common denominator D, the lcm of the weight and
wall-constant denominators, every weight and constant is an integer, and each
distinct wall subset's sum is added up once per weight vector.  A comparison
with a constant is then an integer comparison, and a `Fraction` is built only
for a crossing time.  `Wall.value_at` and `Wall.side` answer for one wall.

`felt_walls` is the one table of the walls a given model feels, each paired
with the fiber, section or tree that crossing it rewrites.  It depends only on
the model's structure, so the reduction walk rebuilds it only after a WII or
WIII record; it reads the model's sites from the surface's index, so one
build is linear in the size of the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, NamedTuple

from .curves import WeightVector
from .kodaira import THRESHOLD_CONSTANTS, KodairaType, lct_threshold
from .rationals import rat_from_str, rat_to_str
from .surfaces import BrokenEllipticSurface, PseudoComponent, section_constant, subtree_markers


class WallKind(str, Enum):
    WI = "WI"
    WII = "WII"
    WIII = "WIII"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Wall:
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


@dataclass(frozen=True)
class Chamber:
    """Sign vector of a weight vector against a wall collection."""

    signs: tuple[tuple[Wall, str], ...]

    def sign(self, wall: Wall) -> str:
        for w, s in self.signs:
            if w == wall:
                return s
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
) -> list[Wall]:
    """The finite wall set for r markers of the given types.

    WI walls exist only for markers whose type has a threshold (a transition
    wall at the threshold and a boundary wall at one); WII walls are all
    nonempty subset sums equal to one, plus the total sum equal to two over a
    rational base; WIII walls are all nonempty subset sums equal to each
    threshold constant.  Every threshold is below one and the constants are
    distinct, so the walls are distinct by construction.  Emitted in
    `Wall.sort_key` order; the WII and WIII walls on one subset share its
    frozenset.
    """
    types = list(fiber_types)
    if len(types) != r:
        raise ValueError(f"expected {r} fiber types, got {len(types)}")
    one = Fraction(1)
    walls = []
    for i, ftype in enumerate(types, start=1):
        c = lct_threshold(ftype)  # may raise UnsupportedFiberType for N2
        if c is not None:
            walls.append(Wall(WallKind.WI, frozenset({i}), c))
            walls.append(Wall(WallKind.WI, frozenset({i}), one, boundary=True))
    indices = range(1, r + 1)
    subsets = sorted(sub for size in indices for sub in combinations(indices, size))
    frozen = [frozenset(sub) for sub in subsets]
    wii = [Wall(WallKind.WII, sub, one) for sub in frozen]
    if rational_base:
        # the full set (1, ..., r) is the r-th subset in lexicographic order,
        # and its wall at two sorts right after its wall at one
        wii.insert(r, Wall(WallKind.WII, frozenset(indices), Fraction(2)))
    walls += wii
    walls += [Wall(WallKind.WIII, sub, c) for sub in frozen for c in THRESHOLD_CONSTANTS]
    return walls


def _integer_sums(
    walls: list[Wall], *vectors: WeightVector
) -> tuple[list[dict[frozenset[int], int]], dict[int, int]]:
    """The integer kernel behind `locate`, `walls_containing` and
    `segment_walls`.

    Takes D, the lcm of every weight denominator and every wall-constant
    denominator.  Returns, for each weight vector, a dict from each distinct
    wall subset to its weight sum times D, and a dict giving each wall
    constant c times D under the key `id(c)`: hashing a `Fraction` costs more
    than the comparison it serves, and `walls` keeps every constant alive
    while the caller reads the dict.  Walls from `enumerate_walls` share
    their subsets and constants, so both dicts stay small.  Raises `KeyError`
    for a subset naming a marker outside 1..r.
    """
    subsets = {w.subset for w in walls}
    constants = {id(w.constant): w.constant for w in walls}
    D = lcm(
        *(c.denominator for c in constants.values()),
        *(x.denominator for v in vectors for x in v.entries),
    )
    sums = []
    for v in vectors:
        numerators = {i: x.numerator * (D // x.denominator) for i, x in enumerate(v.entries, 1)}
        try:
            sums.append({sub: sum(map(numerators.__getitem__, sub)) for sub in subsets})
        except KeyError as exc:
            raise KeyError(f"marker index {exc.args[0]} outside 1..{v.r}") from None
    return sums, {k: c.numerator * (D // c.denominator) for k, c in constants.items()}


def locate(weights: WeightVector, walls: Iterable[Wall]) -> Chamber:
    """Sign vector of the weight vector against each wall, in
    `Wall.sort_key` order."""
    walls = list(walls)
    (sums,), scaled = _integer_sums(walls, weights)
    ordered = {sub: tuple(sorted(sub)) for sub in sums}
    # `Wall.sort_key` read off the kernel: the kind is a str enum, and scaling
    # by D keeps the constants' order
    walls.sort(key=lambda w: (w.kind, ordered[w.subset], scaled[id(w.constant)], w.boundary))
    signs = []
    for w in walls:
        v, at_c = sums[w.subset], scaled[id(w.constant)]
        signs.append((w, "below" if v < at_c else "above" if v > at_c else "on"))
    return Chamber(tuple(signs))


def walls_containing(weights: WeightVector, walls: Iterable[Wall]) -> list[Wall]:
    """The walls through the weight vector, in `Wall.sort_key` order."""
    walls = list(walls)
    (sums,), scaled = _integer_sums(walls, weights)
    on = [w for w in walls if sums[w.subset] == scaled[id(w.constant)]]
    return sorted(on, key=Wall.sort_key)


def segment_walls(
    A: WeightVector, B: WeightVector, walls: Iterable[Wall]
) -> list[SegmentCrossing]:
    """Interior crossing times of the segment A(t) = (1-t)A + tB, t from 1 to 0.

    Requires A <= B entrywise.  Walls containing the whole segment are not
    crossings and are omitted; endpoints on walls are reported separately by
    `walls_containing`.  Output is sorted by decreasing t, each crossing
    listing every wall hit at that time.
    """
    if not A.leq(B):
        raise ValueError("segment requires A <= B entrywise")
    walls = list(walls)
    (at_a, at_b), scaled = _integer_sums(walls, A, B)
    hits: dict[Fraction, list[Wall]] = {}
    for w in walls:
        # A <= B, so a subset sum rises along the segment: a wall is crossed
        # inside it exactly when its constant lies strictly between the ends
        at_c = scaled[id(w.constant)]
        lo = at_a[w.subset]
        if lo < at_c:
            hi = at_b[w.subset]
            if at_c < hi:
                hits.setdefault(Fraction(at_c - lo, hi - lo), []).append(w)
    return [
        SegmentCrossing(t, tuple(sorted(hits[t], key=Wall.sort_key)))
        for t in sorted(hits, reverse=True)
    ]


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


def felt_walls(X: BrokenEllipticSurface) -> list[FeltWall]:
    """Every wall the model feels, with its site: WI, then WII, then WIII.

    A marked fiber that hosts no tree, is not N2 and whose type has a
    threshold feels that threshold and the boundary wall at one.  A component
    with a section feels the sum of its markers at the value where the
    section's degree vanishes: one for a rational leaf, two for an
    irreducible rational base, each lowered by the coefficients of its
    marker-less fibers.  A subtree at any depth whose host fiber has a
    threshold feels its marker set at that threshold.  Only the structure
    enters: weights and fiber states do not, so the table stays valid until
    a section contracts or a tree collapses.
    """
    out = []
    for owner, f in X.marked_fibers():
        if f.ftype.family == "N2":
            continue
        a0 = lct_threshold(f.ftype)
        if a0 is not None:
            for c, boundary in ((a0, False), (Fraction(1), True)):
                out.append(FeltWall(Wall(WallKind.WI, f.markers, c, boundary), owner, f.fid))
    for comp in X.elliptic:
        wall = Wall(WallKind.WII, X.marker_set(comp.cid), -section_constant(X, comp.cid))
        out.append(FeltWall(wall, comp.cid))
    for owner, fid, node, depth in X.subtrees():
        a0 = lct_threshold(X.host_fiber(owner, fid).ftype)
        if a0 is not None:
            wall = Wall(WallKind.WIII, subtree_markers(node), a0)
            out.append(FeltWall(wall, owner, fid, node, depth))
    return out


def active_walls(X: BrokenEllipticSurface, walls: Iterable[Wall]) -> list[Wall]:
    """The walls of an arrangement that the given model feels (`felt_walls`)."""
    felt = {fw.wall for fw in felt_walls(X)}
    return sorted((w for w in walls if w in felt), key=Wall.sort_key)


def wall_to_obj(w: Wall) -> dict:
    return {
        "kind": w.kind.value,
        "subset": sorted(w.subset),
        "constant": rat_to_str(w.constant),
        "boundary": w.boundary,
    }


def wall_from_obj(obj: dict) -> Wall:
    return Wall(
        WallKind(obj["kind"]),
        frozenset(int(i) for i in obj["subset"]),
        rat_from_str(obj["constant"]),
        bool(obj.get("boundary", False)),
    )
