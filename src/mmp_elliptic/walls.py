"""Hyperplane walls in the weight cube and chamber bookkeeping.

Walls come in three kinds: fiber-model transitions on single coordinates
(WI), section contractions on subset sums equal to one (plus the total sum
equal to two over a rational base) (WII), and pseudoelliptic collapses on
subset sums equal to a threshold constant (WIII).  Boundary walls at a
coordinate equal to zero or one carry a flag.  Everything is exact; the full
arrangement on r markers is exponential in r.

`enumerate_walls` returns the walls on r markers as an `Arrangement`: a
read-only sequence in `Wall.sort_key` order that holds only its
definition, built in O(r).  Iterating it builds the walls in one pass; the
queries `locate`, `same_chamber`, `walls_containing` and `segment_walls`
take an Arrangement and never iterate it.  Every query compares integers
only, and builds a `Wall` and a `Fraction` only for an answer: the walls
through a point, or a crossing that is hit.  A `Chamber` holds a point and
its arrangement, so `locate` is O(r), and two chambers compare by
`same_chamber`, a meet in the middle over the subset sums that lists
2^ceil(r/2) sums per half.  `Wall.value_at` and `Wall.side` answer for one
wall.

`felt_walls` is the one table of the walls a given model feels, each paired
with the fiber, section or tree that crossing it rewrites.  It is made of
one row per component, keyed by its id in `felt_rows`; `felt_row` builds the
row of one component and the trees it hosts from those parts alone.  The
table depends only on the model's structure.  The reduction walk builds the
rows of the components whose walls its segment can move or has already
brought down, and after a WII or WIII record builds again only the row of
the component the record rewrote; one full build is linear in the size of
the model, and `cross_wall` and the tests read the full table.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain, cycle, islice, repeat
from math import gcd, lcm
from operator import add, eq, gt
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .curves import WeightVector
from .kodaira import THRESHOLD_CONSTANTS, KodairaType, lct_threshold

if TYPE_CHECKING:
    from .surfaces import BrokenEllipticSurface, Component, MarkedFiber, PseudoComponent, TreeAttachment


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
# constants by identity; an Arrangement keeps each one as its value times _DEN
# and reads the object back from _KODAIRA
_ONE, _TWO = Fraction(1), Fraction(2)
_DEN = lcm(*(c.denominator for c in THRESHOLD_CONSTANTS))  # every threshold is one of them
_KODAIRA = {c.numerator * (_DEN // c.denominator): c for c in (*THRESHOLD_CONSTANTS, _ONE, _TWO)}

# a side by the sign of value - constant: 0 on, 1 above, -1 below
_SIDE = ("on", "above", "below")
# the WIII constants times _DEN, ascending, as the walls on one subset list them
_WIII = [c.numerator * (_DEN // c.denominator) for c in THRESHOLD_CONSTANTS]


def _integers(*vectors: WeightVector) -> tuple:
    """D, the lcm of every weight denominator, then each vector's weights times D."""
    D = lcm(*(x.denominator for v in vectors for x in v.entries))
    return (D, *[[x.numerator * (D // x.denominator) for x in v.entries] for v in vectors])


def _place(rev: int, r: int) -> int:
    """The place of a nonempty subset of 1..r in the order of the sorted
    tuples of all of them, from `rev`, its mask with bit r - k for marker k.
    The subsets before it number 2^(r - k) for each marker k below its
    highest that it lacks, plus one for each marker it has besides its
    highest: 2^r less the lowest bit of rev less rev, plus its size less one."""
    return (1 << r) - (rev & -rev) - rev + rev.bit_count() - 1


def _lex_subset(p: int, r: int) -> frozenset[int]:
    """The subset of 1..r at place p of that order (`_place`), each marker
    joined to the set of those above it as `Arrangement.__iter__` joins
    them, so that the set iterates in the same order."""
    markers = []
    for k in range(1, r + 1):
        block = 1 << (r - k)  # the subsets whose lowest marker is k
        if p >= block:
            p -= block
            continue
        markers.append(k)
        if not p:
            break
        p -= 1
    subset = frozenset()
    for k in reversed(markers):
        subset = frozenset((k,)) | subset if subset else frozenset((k,))
    return subset


def _prefix_sums(values: list[int]) -> list[set[int]]:
    """sets[k]: every subset sum of the first k values."""
    sets = [{0}]
    for v in values:
        sets.append(sets[-1] | {s + v for s in sets[-1]})
    return sets


def _sum_masks(sets: list[set[int]], values: list[int], bits: list[int], s: int, k: int = -1, m: int = 0) -> list[int]:
    """The masks (bits[i] for values[i]) of every subset of the first k
    values (all by default) that adds up to s, which sets[k] must hold.  It
    walks down the prefix sets of `_prefix_sums`, taking each value when the
    rest of s is a sum of the values before it, and branches only where s is
    also such a sum without it, so every branch reaches a subset."""
    out, k = [], len(values) if k < 0 else k
    while k:
        k -= 1
        if s - values[k] in sets[k]:
            if s in sets[k]:
                out += _sum_masks(sets, values, bits, s, k, m)
            s -= values[k]
            m |= bits[k]
    out.append(m)
    return out


class Arrangement(Sequence):
    """The walls of `enumerate_walls`, in `Wall.sort_key` order, held as
    their definition: r, `_thresholds` (each marker's threshold times
    `_DEN`, None for a type without one) and `_rational` (the rational-base
    flag).

    Its rows are the WI walls, two per marker with a threshold, then the WII
    walls on every nonempty subset in the order of their sorted tuples (the
    full set's wall at two is row r of that block over a rational base),
    then the WIII walls of each subset, in constant order.  A row and its
    wall follow from each other in O(r) (`_place`, `_lex_subset`), and
    iterating, or slicing, builds every wall in row order in one pass; the
    walls built on one subset share its frozenset.  No query iterates: each
    reads only the definition, checks the WI walls and the wall at two one
    by one, and builds a `Wall` only for an answer:

    - `_hits` splits the markers into moving (a < b) and fixed ones.  The
      fixed part of a subset adds the same v at both ends, so for a nonempty
      moving part S_M and a constant c the crossed subsets are those whose
      fixed sum v lies in (c - b(S_M), c - a(S_M)).  The distinct fixed sums
      are kept per prefix of the fixed markers: a bisection of the last set
      finds the values hit, and backtracking through the prefix sets lists
      only the subsets that reach them (Horowitz and Sahni's split of a
      subset sum).
    - `_on` does the same at one point, where every marker is fixed and the
      interval is the constant itself.  Its first step, `_through`, finds
      the direct walls through the point and the subset constants among the
      last prefix set's sums; `Chamber.interior` stops there.
    - `_same` splits the markers into two halves and lists each half's
      distinct (P-sum, Q-sum) pairs.  Two points differ on the wall of a
      subset S at c when P(S) < c <= Q(S), Q(S) < c <= P(S), P(S) > c = Q(S)
      or P(S) = c < Q(S); the left half, sorted by each sum with the prefix
      maxima of the other and with the greatest of one sum at each value of
      the other, answers each of the four for a right pair in one lookup.
      The empty set never differs, since every constant is positive.
    - `_sides` adds up every subset sum once, in row order, and takes each
      distinct sum's WIII sides from two bisections into the sorted
      constants: it builds every side, for `Chamber.signs`.

    It is a read-only `Sequence`, equal to a list of the same walls and to
    an Arrangement of the same definition; every in-place change raises
    `TypeError`.  `in`, `index` and `count` answer as a list does, by
    bisection (`_find`), so they build only the walls they compare.
    """

    __slots__ = ("r", "_thresholds", "_rational", "_wi", "_top", "_wii", "_sets")

    def __init__(self, r: int, thresholds: tuple, rational: bool) -> None:
        self.r, self._thresholds, self._rational = r, thresholds, rational
        self._wi = [i for i, t in enumerate(thresholds) if t is not None]
        # the WI rows, then the WII rows, then the WIII rows
        self._top, self._wii = 2 * len(self._wi), (1 << r) - 1 + rational
        self._sets: dict[int, frozenset[int]] = {}

    def __len__(self) -> int:
        return self._top + (1 + len(_WIII)) * ((1 << self.r) - 1) + self._rational

    def __iter__(self) -> Iterator[Wall]:
        r, WI, WII, WIII = self.r, WallKind.WI, WallKind.WII, WallKind.WIII
        # every nonempty subset of k..r in the order of its sorted tuple:
        # {k}, then {k} joined to each subset of k+1..r, then the subsets of k+1..r
        sets: list[frozenset[int]] = []
        singles = [frozenset()] * r
        for k in range(r, 0, -1):
            singles[k - 1] = single = frozenset((k,))
            sets = [single, *[single | s for s in sets], *sets]
        wi = chain.from_iterable(
            ((WI, singles[i], _KODAIRA[self._thresholds[i]], False), (WI, singles[i], _ONE, True)) for i in self._wi
        )
        wii = zip(repeat(WII), sets, repeat(_ONE), repeat(False))
        if self._rational:
            # the full set (1, ..., r) is the r-th subset in that order, and
            # its wall at two sorts right after its wall at one
            full = sets[r - 1] if r else frozenset()
            wii = chain(islice(wii, r), [(WII, full, _TWO, False)], wii)
        wiii = zip(
            repeat(WIII), chain.from_iterable(map(repeat, sets, repeat(len(_WIII)))),
            cycle([_KODAIRA[c] for c in _WIII]), repeat(False),
        )
        # tuple.__new__ skips the keyword handling of Wall(...)
        return map(tuple.__new__, repeat(Wall), chain(wi, wii, wiii))

    def _wall_at(self, i: int) -> Wall:
        """Wall i, read from the definition; the walls built on one subset
        share its frozenset, kept by its place in `_sets`."""
        r, i, boundary = self.r, i - self._top, False
        if i >= self._wii:
            (p, j), kind = divmod(i - self._wii, len(_WIII)), WallKind.WIII
            constant = _KODAIRA[_WIII[j]]
        elif i >= 0:
            kind, p, constant = WallKind.WII, i, _ONE
            if self._rational and i >= r:  # row r holds the full set's wall at two
                p, constant = i - 1, _TWO if i == r else _ONE
        else:
            marker, boundary = self._wi[(i + self._top) >> 1], bool(i & 1)
            kind, p = WallKind.WI, _place(1 << (r - 1 - marker), r)
            constant = _KODAIRA[_DEN if boundary else self._thresholds[marker]]
        subset = self._sets.get(p)
        if subset is None:
            subset = self._sets[p] = _lex_subset(p, r)
        return tuple.__new__(Wall, (kind, subset, constant, boundary))

    def _walls(self, rows: Iterable[int]) -> Iterator[Wall]:
        """The walls at `rows`: the one place that builds the walls a query
        answers with."""
        return map(self._wall_at, rows)

    def __getitem__(self, i):
        """One wall, or the list of a slice's walls, built as iterating builds
        them, up to the slice's last row, and keeping no subset in `_sets`."""
        rows = range(len(self))[i]
        if not isinstance(rows, range):
            return self._wall_at(rows)
        up = rows if rows.step > 0 else rows[::-1]
        walls = list(islice(self, up.start, up.stop, up.step)) if up else []
        return walls if rows.step > 0 else walls[::-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Arrangement):
            return self._definition == other._definition
        if isinstance(other, list):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<Arrangement of {len(self)} walls on markers up to {self.r}>"

    def _find(self, value) -> int | None:
        """The row of the wall equal to `value` as a list compares them (a
        `Wall`, or a tuple of four equal to one), or None.  The walls are
        distinct, so only the row that bisection on `Wall.sort_key` finds
        can hold it; a value that is no tuple of four, or whose parts do not
        order against a wall's, equals none."""
        if not isinstance(value, tuple) or len(value) != 4:
            return None
        kind, subset, constant, boundary = value
        try:
            target = (kind, tuple(sorted(subset)), constant, boundary)
            i = bisect_left(range(len(self)), target, key=lambda i: self._wall_at(i).sort_key())
        except TypeError:
            return None
        return i if i < len(self) and self._wall_at(i) == value else None

    def __contains__(self, value) -> bool:
        return self._find(value) is not None

    def index(self, value, start: int = 0, stop: int | None = None) -> int:
        """The row of the wall equal to `value` when it lies in [start,
        stop), with the bounds read as a slice reads them, as `list.index`
        does."""
        i = self._find(value)
        if i is None or i not in range(len(self))[start:stop]:
            raise ValueError(f"{value!r} is not in the arrangement")
        return i

    def count(self, value) -> int:
        return int(self._find(value) is not None)

    def _row(self, p: int, j: int | None) -> int:
        """The row of the WII wall at one (j None) or of WIII wall j on the
        subset at place p."""
        if j is None:
            return self._top + p + (self._rational and p >= self.r)
        return self._top + self._wii + len(_WIII) * p + j

    def _need(self, n: int) -> None:
        """Raise `KeyError` when a vector of n weights has none for marker r."""
        if self.r > n:
            raise KeyError(f"marker index {self.r} outside 1..{n}")

    def _lift(self, D: int, *vectors: list[int]) -> tuple:
        """L, the lcm of `_DEN` and D, then the first r weights of each
        vector over D, over L.  Raises `KeyError` when a vector has no
        weight for marker r."""
        for v in vectors:
            self._need(len(v))
        L = lcm(_DEN, D)
        return (L, *[[x * (L // D) for x in v[: self.r]] for v in vectors])

    def _direct(self, L: int, *vectors: list[int]) -> list[tuple[int, int, list[int]]]:
        """(row, constant, value at each vector) over L of every WI wall and
        of the wall at two: the walls that the queries check one by one."""
        direct = []
        for k, i in enumerate(self._wi):
            values = [v[i] for v in vectors]
            direct += (2 * k, self._thresholds[i] * (L // _DEN), values), (2 * k + 1, L, values)
        if self._rational:
            direct.append((self._top + self.r, 2 * L, [sum(v) for v in vectors]))
        return direct

    @staticmethod
    def _subset_constants(L: int) -> tuple[list[int | None], list[int]]:
        """The walls on one subset, ascending: the j of each WIII wall, then
        None for the WII wall at one; and their constants over L."""
        return [*range(len(_WIII)), None], [c * (L // _DEN) for c in (*_WIII, _DEN)]

    def _sides(self, D: int, w: list[int]) -> Iterator[str]:
        """The side of the point w over D of every wall, in row order."""
        L, w = self._lift(D, w)
        sums: list[int] = []
        for x in reversed(w):
            sums = [x, *map(add, repeat(x), sums), *sums]
        direct = [_SIDE[(x > c) - (x < c)] for _, c, (x,) in self._direct(L, w)]
        wii = [_SIDE[(s > L) - (s < L)] for s in sums]
        if self._rational:
            wii.insert(self.r, direct.pop())
        constants = [c * (L // _DEN) for c in _WIII]
        chunks = {}
        for s in set(sums):
            lo, hi = bisect_left(constants, s), bisect_right(constants, s)
            chunks[s] = ("above",) * lo + ("on",) * (hi - lo) + ("below",) * (len(_WIII) - hi)
        return chain(direct, wii, chain.from_iterable(map(chunks.__getitem__, sums)))

    def _through(self, D: int, w: list[int]) -> tuple[list[int], list[tuple[int | None, int]], list[int], list[set[int]]]:
        """The rows of the direct walls through the point w over D; the (j,
        constant) of each subset wall whose constant is a subset sum of the
        point; and the point over the common denominator with its prefix
        sets.  Every constant is positive, so the empty subset meets none."""
        L, w = self._lift(D, w)
        sets = _prefix_sums(w)
        rows = [row for row, c, (x,) in self._direct(L, w) if x == c]
        return rows, [(j, c) for j, c in zip(*self._subset_constants(L)) if c in sets[-1]], w, sets

    def _on(self, D: int, w: list[int]) -> list[int]:
        rows, met, w, sets = self._through(D, w)
        # subsets as reversed masks, bit r - k for marker k (`_place`)
        bits = [1 << (self.r - 1 - k) for k in range(self.r)]
        for j, c in met:
            rows += [self._row(_place(s, self.r), j) for s in _sum_masks(sets, w, bits, c)]
        return sorted(rows)

    def _hits(self, D: int, a: list[int], b: list[int]) -> Iterator[tuple[int, int, int]]:
        L, a, b = self._lift(D, a, b)
        for row, c, (x, y) in self._direct(L, a, b):
            if x < c < y:
                yield c - x, y - x, row
        # subsets as reversed masks, bit r - k for marker k (`_place`)
        r, row = self.r, self._row
        fixed = [k for k in range(r) if a[k] == b[k]]
        values, bits = [a[k] for k in fixed], [1 << (r - 1 - k) for k in fixed]
        sets = _prefix_sums(values)
        sums = sorted(sets[-1])
        parts = [(0, 0, 0)]  # (reversed mask, a, b) of every moving part
        for k in range(r):
            if a[k] < b[k]:
                parts += [(m | 1 << (r - 1 - k), x + a[k], y + b[k]) for m, x, y in parts]
        js, constants = self._subset_constants(L)
        found: dict[int, list[int]] = {}  # the fixed subsets of each sum hit so far
        for m, x, y in parts[1:]:
            # only a constant in (x + least sum, y + greatest sum) can be hit
            first, last = bisect_right(constants, x + sums[0]), bisect_left(constants, y + sums[-1])
            for j, c in zip(js[first:last], constants[first:last]):
                for v in sums[bisect_right(sums, c - y) : bisect_left(sums, c - x)]:
                    if v not in found:
                        found[v] = _sum_masks(sets, values, bits, v)
                    for f in found[v]:
                        yield c - x - v, y - x, row(_place(m | f, r), j)

    def _same(self, D: int, p: list[int], q: list[int]) -> bool:
        L, p, q = self._lift(D, p, q)
        if any((x > c) - (x < c) != (y > c) - (y < c) for _, c, (x, y) in self._direct(L, p, q)):
            return False
        # the distinct (P-sum, Q-sum) of every subset of each half of the markers
        h = (self.r + 1) // 2
        halves = []
        for part in (range(h), range(h, self.r)):
            sums = {(0, 0)}
            for k in part:
                sums |= {(a + p[k], b + q[k]) for a, b in sums}
            halves.append(sums)
        left, right = halves
        # the left half sorted by P-sum with the prefix maxima of its Q-sum,
        # the other way round, and the greatest of one sum at each value of
        # the other
        by_p, by_q = sorted(left), sorted((b, a) for a, b in left)
        ps, max_q = [a for a, _ in by_p], list(accumulate((b for _, b in by_p), max))
        qs, max_p = [b for b, _ in by_q], list(accumulate((a for _, a in by_q), max))
        top_q, top_p = dict(by_p), dict(by_q)
        for c in self._subset_constants(L)[1]:
            for a, b in right:
                # a left part joined to (a, b) adds up to c at x and at y
                x, y = c - a, c - b
                i, j = bisect_left(ps, x), bisect_left(qs, y)
                if i and max_q[i - 1] >= y or j and max_p[j - 1] >= x:
                    return False  # P(S) < c <= Q(S) or Q(S) < c <= P(S)
                if top_p.get(y, x) > x or top_q.get(x, y) > y:
                    return False  # P(S) > c = Q(S) or P(S) = c < Q(S)
        return True

    def _read_only(self, *args, **kwargs):
        raise TypeError("an Arrangement cannot change in place; list() of it gives a copy that can")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only

    @property
    def _definition(self) -> tuple:
        return self.r, self._thresholds, self._rational

    def __reduce__(self):
        return Arrangement, self._definition


class Chamber(NamedTuple):
    """The chamber of `point` in the arrangement `walls`: the points on the
    same side of every wall as it.  It holds the point, so `locate` is O(r);
    `sign`, `on_walls` and `interior` each make one query, `signs` builds
    every wall, and `==` is `same_chamber` over one arrangement.  Sides have
    no compact canonical form, so the hash is the arrangement's alone."""

    point: WeightVector
    walls: Arrangement

    @property
    def signs(self) -> tuple[tuple[Wall, str], ...]:
        """The sign of every wall, as (wall, side) pairs in `Wall.sort_key` order."""
        return tuple(zip(self.walls, self.walls._sides(*_integers(self.point))))

    def sign(self, wall: Wall) -> str:
        """The side of `wall`, which must be a wall of the arrangement."""
        i = self.walls._find(wall)
        if i is None:
            raise KeyError(f"wall {wall} not part of this chamber's arrangement")
        return self.walls._wall_at(i).side(self.point)

    def on_walls(self) -> tuple[Wall, ...]:
        return tuple(walls_containing(self.point, self.walls))

    def interior(self) -> bool:
        rows, met, _, _ = self.walls._through(*_integers(self.point))
        return not rows and not met

    # a chamber equals no plain tuple, though it is one
    def __eq__(self, other) -> bool:
        if not isinstance(other, Chamber) or self.walls != other.walls:
            return False
        return same_chamber(self.point, other.point, self.walls)

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self.walls._definition)


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
    distinct, so the walls are distinct by construction.  Returns them in
    `Wall.sort_key` order as an `Arrangement` that holds only this
    definition, in O(r); no `Wall` is built here.
    """
    types = list(fiber_types)
    if len(types) != r:
        raise ValueError(f"expected {r} fiber types, got {len(types)}")
    thresholds = []
    for ftype in types:
        c = lct_threshold(ftype)  # may raise UnsupportedFiberType for N2
        thresholds.append(None if c is None else c.numerator * (_DEN // c.denominator))
    return Arrangement(r, tuple(thresholds), bool(rational_base))


def _arrangement(walls) -> Arrangement:
    """`walls`, which must be an `Arrangement`: the queries read its
    definition, which a list of walls does not carry."""
    if not isinstance(walls, Arrangement):
        raise TypeError(f"expected the Arrangement that enumerate_walls returns, got {type(walls).__name__}")
    return walls


def locate(weights: WeightVector, walls: Arrangement) -> Chamber:
    """The chamber of the weight vector, which must have a weight for every
    marker of the arrangement; O(r), since the chamber holds the point."""
    walls = _arrangement(walls)
    walls._need(weights.r)
    return Chamber(weights, walls)


def same_chamber(P: WeightVector, Q: WeightVector, walls: Arrangement) -> bool:
    """Whether no wall of the arrangement has P and Q on different sides."""
    walls = _arrangement(walls)
    return walls._same(*_integers(P, Q))


def walls_containing(weights: WeightVector, walls: Arrangement) -> list[Wall]:
    """The walls through the weight vector, in `Wall.sort_key` order."""
    walls = _arrangement(walls)
    return list(walls._walls(walls._on(*_integers(weights))))


def segment_walls(A: WeightVector, B: WeightVector, walls: Arrangement) -> list[SegmentCrossing]:
    """Interior crossing times of the segment A(t) = (1-t)A + tB, t from 1 to 0.

    Requires A <= B entrywise.  Walls containing the whole segment are not
    crossings and are omitted; endpoints on walls are reported separately by
    `walls_containing`.  Output is sorted by decreasing t, each crossing
    listing every wall hit at that time in `Wall.sort_key` order.
    """
    D, a, b = _integers(A, B)
    if len(a) != len(b) or any(map(gt, a, b)):
        raise ValueError("segment requires A <= B entrywise")
    walls = _arrangement(walls)
    return _crossings(walls, walls._hits(D, a, b))


def _crossings(walls: Arrangement, hits: Iterable[tuple[int, int, int]]) -> list[SegmentCrossing]:
    """The crossings of (num, den, row) hits: grouped by the time as a
    reduced integer pair, so each time is one `Fraction`, ordered by
    decreasing time on integer keys over the lcm of the denominators, each
    listing its walls in row order."""
    rows: dict[tuple[int, int], list[int]] = {}
    for num, den, row in hits:
        g = gcd(num, den)
        rows.setdefault((num // g, den // g), []).append(row)
    L = lcm(*(den for _, den in rows))
    times = sorted(rows, key=lambda t: t[0] * (L // t[1]), reverse=True)
    return [SegmentCrossing(Fraction(*t), tuple(walls._walls(sorted(rows[t])))) for t in times]


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
        from .surfaces import subtree_markers  # here, so the wall queries load no model layer

        row.append(FeltWall(Wall(WallKind.WIII, subtree_markers(node), a0), owner, host.fid, node, depth))
    row += _fiber_walls(node.pid, node.fibers, {link.via_fiber for link in node.children})
    for link in node.children:
        _tree_walls(node.pid, node.fiber(link.via_fiber), link.node, depth + 1, row)


def felt_rows(X: BrokenEllipticSurface) -> dict[str, list[FeltWall]]:
    """The rows of `felt_walls` keyed by component id, in id order
    (`felt_row`); a repeated id, which `validate` refuses, shares one row.

    Only the structure enters: weights and fiber states do not.  A
    component's row changes only with its section, fibers, attaching fibers
    or trees, so the reduction walk builds the rows it needs once and, after
    a section contraction or a tree collapse, builds again only the row of
    the component that the record rewrote.
    """
    rows: dict[str, list[FeltWall]] = {}
    for comp in X.components:
        row = felt_row(comp, len(X.glue_ends(comp.cid)), X.trees_on(comp.cid))
        rows.setdefault(comp.cid, []).extend(row)
    return rows


def felt_walls(X: BrokenEllipticSurface) -> list[FeltWall]:
    """Every wall the model feels, with its site: the rows of `felt_rows`
    one after another."""
    return [fw for row in felt_rows(X).values() for fw in row]
