"""Hyperplane walls in the weight cube and chamber bookkeeping.

Walls come in three kinds: fiber-model transitions on single coordinates
(WI), section contractions on subset sums equal to one (plus the total sum
equal to two over a rational base) (WII), and pseudoelliptic collapses on
subset sums equal to a threshold constant (WIII).  Boundary walls at a
coordinate equal to zero or one carry a flag.  Everything is exact; the full
arrangement on r markers is exponential in r.

`enumerate_walls` returns the walls on r markers as an `Arrangement` that
holds only its definition, built in O(r); iterating it builds the walls in
`Wall.sort_key` order.  The queries `locate`, `same_chamber`,
`walls_containing` and `segment_walls` never iterate it.  Each compares
integers only, in the one integer form the reduction walk reads too
(`curves._integers`, from the lift each weight vector keeps), and builds a
`Wall` and a `Fraction` only for an answer, from the subset mask it holds,
on subsets from one table per process (`_subset`) shared by every
arrangement on r markers.  A `Chamber` holds a point and its arrangement, so
`locate` is O(r), and two chambers compare by `same_chamber`, a meet in the
middle over the subset sums that lists 2^ceil(r/2) sums per half;
`walls_containing` and `Chamber.interior` meet in the middle the same way.
`Wall.value_at` and `Wall.side` answer for one wall.

The arrangement knows no model: it reads only `curves` and `kodaira`.  The
table of the walls a given model feels (`reduction.felt_walls`) lives with
the walk that fires them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, cycle, islice, repeat
from math import lcm
from operator import add, eq, gt
from typing import Iterable, Iterator, NamedTuple

from .curves import _DEN, WeightVector, _integers
from .kodaira import THRESHOLD_CONSTANTS, KodairaType, lct_threshold


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
_KODAIRA = {c.numerator * (_DEN // c.denominator): c for c in (*THRESHOLD_CONSTANTS, _ONE, _TWO)}

# a side by the sign of value - constant: 0 on, 1 above, -1 below
_SIDE = ("on", "above", "below")
# the WIII constants times _DEN, ascending, as the walls on one subset list them
_WIII = [c.numerator * (_DEN // c.denominator) for c in THRESHOLD_CONSTANTS]
# the kind and constant of the walls on one subset, ascending: each WIII wall, then the WII wall at one
_ON_SUBSET = [*((WallKind.WIII, c) for c in THRESHOLD_CONSTANTS), (WallKind.WII, _ONE)]


@lru_cache(maxsize=1 << 12)
def _subset(rev: int, r: int) -> frozenset[int]:
    """The subset of 1..r with the reversed mask rev (bit r - k for marker
    k), joined from its top marker down as `Arrangement.__iter__` joins it,
    so that the set iterates in the same order; one bounded table per process
    keeps it, for every arrangement on r markers."""
    subset: frozenset[int] = frozenset()
    while rev:
        low = rev & -rev
        subset = frozenset((r + 1 - low.bit_length(),)) | subset
        rev ^= low
    return subset


def _prefix_sums(values: list[int]) -> list[set[int]]:
    """sets[k]: every subset sum of the first k values."""
    sets = [{0}]
    for v in values:
        sets.append(sets[-1] | {s + v for s in sets[-1]})
    return sets


# the masks of the left-half and of the right-half subsets that join to one sum
_Pair = tuple[list[int], list[int]]


def _half_masks(values: list[int], bits: list[int]) -> dict[int, list[int]]:
    """Every subset sum of `values` mapped to the masks (bits[i] for
    values[i]) of the subsets that add up to it."""
    pairs = [(0, 0)]
    for v, b in zip(values, bits):
        pairs += [(s + v, m | b) for s, m in pairs]
    out: dict[int, list[int]] = {}
    for s, m in pairs:
        out.setdefault(s, []).append(m)
    return out


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


class Arrangement:
    """The walls of `enumerate_walls`, held as their definition: r,
    `_thresholds` (each marker's threshold times `_DEN`, None for a type
    without one) and `_rational` (the rational-base flag).

    Iterating builds every wall in one pass, in `Wall.sort_key` order: the WI
    walls, two per marker with a threshold, then the WII walls on every
    nonempty subset in the order of their sorted tuples (the full set's wall
    at two right after its wall at one, over a rational base), then the WIII
    walls of each subset, in constant order; the walls on one subset share
    its frozenset.  A wall's place in that order is its order key.  No query
    iterates: each checks the WI walls and the wall at two (`_checks`) one
    by one, and builds each answer from its mask through `_wall`:

    - `_hits` splits the markers into moving (a < b) and fixed ones.  The
      fixed part of a subset adds the same v at both ends, so for a nonempty
      moving part S_M and a constant c the crossed subsets are those whose
      fixed sum v lies in (c - b(S_M), c - a(S_M)).  The distinct fixed sums
      are kept per prefix of the fixed markers: a bisection of the last set
      finds the values hit, and backtracking through the prefix sets lists
      only the subsets that reach them (Horowitz and Sahni's split of a
      subset sum).
    - `_on` answers at one point by a meet in the middle.  Its first step,
      `_through`, finds the direct walls through the point and splits the
      markers as `_same` does; each half's subset sums map to their masks,
      and a constant c is met when c - s is a left sum for some right sum
      s.  `_on` joins the masks of every such pair, and `Chamber.interior`
      stops at the first constant met.
    - `_same` splits the markers into two halves and lists each half's
      distinct (P-sum, Q-sum) pairs.  Two points differ on the wall of a
      subset S at c when P(S) < c <= Q(S), Q(S) < c <= P(S), P(S) > c = Q(S)
      or P(S) = c < Q(S); the left half, sorted by each sum with the prefix
      maxima of the other and with the greatest of one sum at each value of
      the other, answers each of the four for a right pair in one lookup.
      The empty set never differs, since every constant is positive.
    - `_sides` adds up every subset sum once, in iteration order, and takes
      each distinct sum's WIII sides from two bisections into the sorted
      constants: it builds every side, for `Chamber.signs`.

    It equals a list of the same walls and an Arrangement of the same
    definition, and pickles as its definition.  `in` (`_has`) compares a
    value with the at most ten walls the definition puts on its subset.
    """

    __slots__ = ("r", "_thresholds", "_rational", "_top", "_wii", "_checks")

    def __init__(self, r: int, thresholds: tuple, rational: bool) -> None:
        self.r, self._thresholds, self._rational = r, thresholds, rational
        # the walls the queries check one by one: each WI wall, then the full
        # set's wall at two, as (order key, marker or None for the full set,
        # constant times _DEN, the arguments of `_wall`)
        WI, checks = WallKind.WI, []
        for i, c in enumerate(thresholds):
            if c is not None:
                rev, n = 1 << (r - 1 - i), len(checks)
                checks += (n, i, c, (WI, rev, _KODAIRA[c], False)), (n + 1, i, _DEN, (WI, rev, _ONE, True))
        # the WI walls, then the WII walls, then the WIII walls
        self._top, self._wii = len(checks), (1 << r) - 1 + rational
        if rational:
            checks.append((self._top + r, None, 2 * _DEN, (WallKind.WII, (1 << r) - 1, _TWO, False)))
        self._checks = checks

    def __len__(self) -> int:
        return self._top + (1 + len(_WIII)) * ((1 << self.r) - 1) + self._rational

    def __iter__(self) -> Iterator[Wall]:
        r, WII, WIII = self.r, WallKind.WII, WallKind.WIII
        # every nonempty subset of k..r in the order of its sorted tuple:
        # {k}, then {k} joined to each subset of k+1..r, then the subsets of k+1..r
        sets: list[frozenset[int]] = []
        singles = [frozenset()] * r
        for k in range(r, 0, -1):
            singles[k - 1] = single = frozenset((k,))
            sets = [single, *[single | s for s in sets], *sets]
        wi = [(kind, singles[i], c, boundary) for _, i, _, (kind, _, c, boundary) in self._checks[: self._top]]
        wii = zip(repeat(WII), sets, repeat(_ONE), repeat(False))
        if self._rational:
            # the full set (1, ..., r) is the r-th subset in that order, and
            # its wall at two sorts right after its wall at one
            full = sets[r - 1] if r else frozenset()
            wii = chain(islice(wii, r), [(WII, full, _TWO, False)], wii)
        wiii = zip(
            repeat(WIII), chain.from_iterable(map(repeat, sets, repeat(len(_WIII)))),
            cycle(THRESHOLD_CONSTANTS), repeat(False),
        )
        # tuple.__new__ skips the keyword handling of Wall(...)
        return map(tuple.__new__, repeat(Wall), chain(wi, wii, wiii))

    def _wall(self, kind: WallKind, rev: int, constant: Fraction, boundary: bool = False) -> Wall:
        """The wall of `kind` at `constant` on the subset with the reversed
        mask rev: the one builder of the walls that the queries answer with."""
        return tuple.__new__(Wall, (kind, _subset(rev, self.r), constant, boundary))

    def _subset_wall(self, rev: int, j: int) -> tuple[int, Wall]:
        """(order key, wall) of wall j of `_ON_SUBSET` on the nonempty subset
        with the reversed mask rev.  The key follows from p, the subset's
        place in the order of the sorted tuples: the subsets before it number
        2^(r - k) for each marker k below its highest that it lacks, plus one
        for each marker it has besides its highest, so 2^r less the lowest bit
        of rev less rev, plus its size less one."""
        r, (kind, constant) = self.r, _ON_SUBSET[j]
        p = (1 << r) - (rev & -rev) - rev + rev.bit_count() - 1
        key = p + (self._rational and p >= r) if j == len(_WIII) else self._wii + len(_WIII) * p + j
        return self._top + key, self._wall(kind, rev, constant)

    def __eq__(self, other) -> bool:
        if isinstance(other, Arrangement):
            return self._definition == other._definition
        if isinstance(other, list):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<Arrangement of {len(self)} walls on markers up to {self.r}>"

    def _has(self, value) -> bool:
        """Whether `value` equals a wall, as a list compares them: a tuple of
        four whose subset is a set of markers 1..r and whose other parts equal
        those of one of the at most ten walls the definition puts on that
        subset.  O(r), and it builds no wall."""
        if not isinstance(value, tuple) or len(value) != 4 or not isinstance(value[1], (set, frozenset)):
            return False
        kind, subset, constant, boundary = value
        r = self.r
        rev = sum(1 << (r - k) for k in range(1, r + 1) if k in subset)
        if rev.bit_count() != len(subset):
            return False
        on = [args for *_, args in self._checks if args[1] == rev]
        if rev:
            on += [(k, rev, c, False) for k, c in _ON_SUBSET]
        return (kind, rev, constant, boundary) in on

    __contains__ = _has

    def _need(self, n: int) -> None:
        """Raise `KeyError` when a vector of n weights has none for marker r."""
        if self.r > n:
            raise KeyError(f"marker index {self.r} outside 1..{n}")

    def _lift(self, D: int, *vectors: list[int]) -> tuple:
        """D, a multiple of `_DEN` as `_integers` gives it, then the first r
        weights of each vector over D.  Raises `KeyError` when a vector has
        no weight for marker r."""
        for v in vectors:
            self._need(len(v))
        return (D, *[v[: self.r] for v in vectors])

    def _direct(self, L: int, *vectors: list[int]) -> list[tuple[int, tuple, int, tuple[int, ...]]]:
        """(order key, the arguments of `_wall`, constant, value at each
        vector) over L of every wall in `_checks`."""
        checks, scale = self._checks, L // _DEN
        values = zip(*[[sum(v) if i is None else v[i] for _, i, _, _ in checks] for v in vectors])
        return [(key, args, c * scale, x) for (key, _, c, args), x in zip(checks, values)]

    @staticmethod
    def _subset_constants(L: int) -> list[int]:
        """The constants over L of the walls on one subset (`_ON_SUBSET`), ascending."""
        return [c * (L // _DEN) for c in (*_WIII, _DEN)]

    def _sides(self, D: int, w: list[int]) -> Iterator[str]:
        """The side of the point w over D of every wall, in iteration order."""
        L, w = self._lift(D, w)
        sums: list[int] = []
        for x in reversed(w):
            sums = [x, *map(add, repeat(x), sums), *sums]
        direct = [_SIDE[(x > c) - (x < c)] for _, _, c, (x,) in self._direct(L, w)]
        wii = [_SIDE[(s > L) - (s < L)] for s in sums]
        if self._rational:
            wii.insert(self.r, direct.pop())
        constants = [c * (L // _DEN) for c in _WIII]
        chunks = {}
        for s in set(sums):
            lo, hi = bisect_left(constants, s), bisect_right(constants, s)
            chunks[s] = ("above",) * lo + ("on",) * (hi - lo) + ("below",) * (len(_WIII) - hi)
        return chain(direct, wii, chain.from_iterable(map(chunks.__getitem__, sums)))

    def _through(self, D: int, w: list[int]) -> tuple[list, Iterator[tuple[int, list[_Pair]]]]:
        """(order key, the arguments of `_wall`) of the checked walls through
        the point w over D, and, lazily in ascending order, the place j in
        `_ON_SUBSET` of each subset wall with the (left masks, right masks)
        whose subsets join to add up to its constant.  Each half of the
        markers, split as `_same` splits them, maps its subset sums to their
        reversed masks; a constant c is met when c - s is a left sum for some
        right sum s.  Every constant is positive, so the empty subset meets
        none."""
        L, w = self._lift(D, w)
        direct = [(key, args) for key, args, c, (x,) in self._direct(L, w) if x == c]
        # subsets as reversed masks, bit r - k for marker k (`_subset`)
        r, h = self.r, (self.r + 1) // 2
        left, right = (
            _half_masks([w[k] for k in part], [1 << (r - 1 - k) for k in part]) for part in (range(h), range(h, r))
        )

        def met() -> Iterator[tuple[int, list[_Pair]]]:
            for j, c in enumerate(self._subset_constants(L)):
                pairs = [(left[c - s], masks) for s, masks in right.items() if c - s in left]
                if pairs:
                    yield j, pairs

        return direct, met()

    def _on(self, D: int, w: list[int]) -> dict[int, Wall]:
        """The walls through the point w over D, by order key."""
        direct, met = self._through(D, w)
        on = {key: self._wall(*args) for key, args in direct}
        for j, pairs in met:
            on.update(self._subset_wall(a | b, j) for lefts, rights in pairs for a in lefts for b in rights)
        return on

    def _hits(self, D: int, a: list[int], b: list[int]) -> Iterator[tuple[int, int, int, Wall]]:
        """(num, den, order key, wall) of every wall that the segment
        a + t (b - a) over D crosses, at t = num / den."""
        L, a, b = self._lift(D, a, b)
        for key, args, c, (x, y) in self._direct(L, a, b):
            if x < c < y:
                yield c - x, y - x, key, self._wall(*args)
        # subsets as reversed masks, bit r - k for marker k (`_subset`)
        r = self.r
        fixed = [k for k in range(r) if a[k] == b[k]]
        values, bits = [a[k] for k in fixed], [1 << (r - 1 - k) for k in fixed]
        sets = _prefix_sums(values)
        sums = sorted(sets[-1])
        parts = [(0, 0, 0)]  # (reversed mask, a, b) of every moving part
        for k in range(r):
            if a[k] < b[k]:
                parts += [(m | 1 << (r - 1 - k), x + a[k], y + b[k]) for m, x, y in parts]
        constants = self._subset_constants(L)
        found: dict[int, list[int]] = {}  # the fixed subsets of each sum hit so far
        for m, x, y in parts[1:]:
            # only a constant in (x + least sum, y + greatest sum) can be hit
            first, last = bisect_right(constants, x + sums[0]), bisect_left(constants, y + sums[-1])
            for j, c in zip(range(first, last), constants[first:last]):
                for v in sums[bisect_right(sums, c - y) : bisect_left(sums, c - x)]:
                    if v not in found:
                        found[v] = _sum_masks(sets, values, bits, v)
                    for f in found[v]:
                        yield c - x - v, y - x, *self._subset_wall(m | f, j)

    def _same(self, D: int, p: list[int], q: list[int]) -> bool:
        L, p, q = self._lift(D, p, q)
        if any((x > c) - (x < c) != (y > c) - (y < c) for _, _, c, (x, y) in self._direct(L, p, q)):
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
        for c in self._subset_constants(L):
            for a, b in right:
                # a left part joined to (a, b) adds up to c at x and at y
                x, y = c - a, c - b
                i, j = bisect_left(ps, x), bisect_left(qs, y)
                if i and max_q[i - 1] >= y or j and max_p[j - 1] >= x:
                    return False  # P(S) < c <= Q(S) or Q(S) < c <= P(S)
                if top_p.get(y, x) > x or top_q.get(x, y) > y:
                    return False  # P(S) > c = Q(S) or P(S) = c < Q(S)
        return True

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
        """The side of `wall`, which must be a wall of the arrangement (`in`)."""
        if wall not in self.walls:
            raise KeyError(f"wall {wall} not part of this chamber's arrangement")
        v, c = self.point.sum(k for k in range(1, self.walls.r + 1) if k in wall[1]), wall[2]
        return _SIDE[(v > c) - (v < c)]

    def on_walls(self) -> tuple[Wall, ...]:
        return tuple(walls_containing(self.point, self.walls))

    def interior(self) -> bool:
        direct, met = self.walls._through(*_integers(self.point))
        return not direct and next(met, None) is None

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
    on = _arrangement(walls)._on(*_integers(weights))
    return [on[key] for key in sorted(on)]


def segment_walls(A: WeightVector, B: WeightVector, walls: Arrangement) -> list[SegmentCrossing]:
    """Interior crossing times of the segment A(t) = (1-t)A + tB, t from 1 to 0.

    Requires A <= B entrywise.  Walls containing the whole segment are not
    crossings and are omitted; endpoints on walls are reported separately by
    `walls_containing`.  Output is sorted by t, largest first, each crossing
    listing every wall hit at that time in `Wall.sort_key` order.
    """
    D, a, b = _integers(A, B)
    if len(a) != len(b) or any(map(gt, a, b)):
        raise ValueError("segment requires A <= B entrywise")
    walls = _arrangement(walls)
    return _crossings(walls._hits(D, a, b))


def _crossings(hits: Iterable[tuple[int, int, int, Wall]]) -> list[SegmentCrossing]:
    """The crossings of (num, den, order key, wall) hits, grouped by the
    time's integer numerator over L, the lcm of the denominators, so each
    time is one `Fraction`; largest time first, each listing its walls by
    order key."""
    hits = list(hits)
    L = lcm(*{den for _, den, _, _ in hits})
    at: dict[int, dict[int, Wall]] = {}
    for num, den, key, wall in hits:
        at.setdefault(num * (L // den), {})[key] = wall
    return [SegmentCrossing(Fraction(t, L), tuple(map(at[t].get, sorted(at[t])))) for t in sorted(at, reverse=True)]
