"""Hyperplane walls in the weight cube and chamber bookkeeping.

Walls come in three kinds: fiber-model transitions on single coordinates
(WI), section contractions on subset sums equal to one (plus the total sum
equal to two over a rational base) (WII), and pseudoelliptic collapses on
subset sums equal to a threshold constant (WIII).  Boundary walls at a
coordinate equal to zero or one carry a flag.  Everything is exact; the full
arrangement on r markers is exponential in r, and `enumerate_walls` builds it
as one sorted list.

`felt_walls` is the one table of the walls a given model feels, each paired
with the fiber, section or tree that crossing it rewrites.  It depends only on
the model's structure, so the reduction walk rebuilds it only after a WII or
WIII record.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
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
    distinct, so the walls are distinct by construction.  Deterministically
    ordered.
    """
    types = list(fiber_types)
    if len(types) != r:
        raise ValueError(f"expected {r} fiber types, got {len(types)}")
    walls = []
    for i, ftype in enumerate(types, start=1):
        c = lct_threshold(ftype)  # may raise UnsupportedFiberType for N2
        if c is not None:
            walls.append(Wall(WallKind.WI, frozenset({i}), c))
            walls.append(Wall(WallKind.WI, frozenset({i}), Fraction(1), boundary=True))
    indices = range(1, r + 1)
    subsets = [frozenset(sub) for size in indices for sub in combinations(indices, size)]
    walls += [Wall(WallKind.WII, sub, Fraction(1)) for sub in subsets]
    if rational_base:
        walls.append(Wall(WallKind.WII, frozenset(indices), Fraction(2)))
    walls += [Wall(WallKind.WIII, sub, c) for sub in subsets for c in THRESHOLD_CONSTANTS]
    return sorted(walls, key=Wall.sort_key)


def locate(weights: WeightVector, walls: Iterable[Wall]) -> Chamber:
    """Sign vector of the weight vector against each wall."""
    ordered = sorted(walls, key=Wall.sort_key)
    return Chamber(tuple((w, w.side(weights)) for w in ordered))


def walls_containing(weights: WeightVector, walls: Iterable[Wall]) -> list[Wall]:
    return [w for w in sorted(walls, key=Wall.sort_key) if w.side(weights) == "on"]


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
    hits: dict[Fraction, list[Wall]] = {}
    for w in walls:
        at_a = w.value_at(A) - w.constant
        at_b = w.value_at(B) - w.constant
        slope = at_b - at_a  # value along the segment is at_a + t * slope
        if slope == 0:
            continue
        t = -at_a / slope
        if 0 < t < 1:
            hits.setdefault(t, []).append(w)
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
    return [w for w in sorted(walls, key=Wall.sort_key) if w in felt]


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
