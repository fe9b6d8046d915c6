import pickle
import random
import time
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from mmp_elliptic import curves
from mmp_elliptic.curves import _DEN, WeightVector, _integers, interpolate
from mmp_elliptic.kodaira import UnsupportedFiberType, lct_threshold, parse_fiber_type
from mmp_elliptic.modeljson import serialize_model
from mmp_elliptic.reduction import at_weights, felt_walls, reduce
from mmp_elliptic.surfaces import BrokenEllipticSurface, Component
from mmp_elliptic.walls import (
    Arrangement,
    Chamber,
    Wall,
    WallKind,
    _subset,
    enumerate_walls,
    locate,
    same_chamber,
    segment_walls,
    walls_containing,
)

from modelkit import MARKABLE, admissible_target, flipped_degeneration, mk_fiber, random_model, rational_degeneration
from oracles import (
    WALL_CONSTANTS, brute_force_walls, eager_signs, eager_walls, serialize_oracle, wall_from_obj, wall_keys, wall_to_obj,
)

F = Fraction


def test_single_type_ii_marker():
    walls = enumerate_walls(1, [parse_fiber_type("II")])
    keys = wall_keys(walls)
    assert ("WI", frozenset({1}), F(5, 6), False) in keys
    assert ("WI", frozenset({1}), F(1), True) in keys
    assert ("WII", frozenset({1}), F(1), False) in keys
    for c in WALL_CONSTANTS:
        assert ("WIII", frozenset({1}), c, False) in keys
    assert len(walls) == 2 + 1 + 7


def test_two_nodal_markers_rational_base():
    types = [parse_fiber_type("I1")] * 2
    walls = enumerate_walls(2, types, rational_base=True)
    keys = wall_keys(walls)
    assert not any(k for k in keys if k[0] == "WI")  # I_n markers carry no WI walls
    wii = {k for k in keys if k[0] == "WII"}
    assert wii == {
        ("WII", frozenset({1}), F(1), False),
        ("WII", frozenset({2}), F(1), False),
        ("WII", frozenset({1, 2}), F(1), False),
        ("WII", frozenset({1, 2}), F(2), False),
    }
    assert len([k for k in keys if k[0] == "WIII"]) == 3 * 7


def test_enumeration_matches_brute_force_oracle():
    rng = random.Random(19)
    pool = ["I1", "I3", "I0", "II", "III", "IV", "I*0", "II*", "III*", "IV*", "N0", "N1"]
    for _ in range(8):
        r = rng.randint(1, 7)
        types = [parse_fiber_type(rng.choice(pool)) for _ in range(r)]
        rational = rng.random() < 0.5
        walls = enumerate_walls(r, types, rational)
        assert wall_keys(walls) == brute_force_walls(r, types, rational)
        assert len(walls) == len(wall_keys(walls))
        assert walls == sorted(walls, key=Wall.sort_key)


def test_closed_form_count():
    types = [parse_fiber_type(t) for t in ("II", "I1", "I*0")]
    walls = enumerate_walls(3, types, rational_base=True)
    with_threshold = 2  # II and I*0
    expected = 2 * with_threshold + (2**3 - 1) + 1 + 7 * (2**3 - 1)
    assert len(walls) == expected


def test_n2_marker_is_rejected():
    with pytest.raises(UnsupportedFiberType):
        enumerate_walls(1, [parse_fiber_type("N2")])


def test_locate_interior_and_on_wall():
    types = [parse_fiber_type("I1")] * 12
    walls = enumerate_walls(12, types)
    interior = WeightVector(tuple([F(1)] * 10 + [F(9, 20), F(9, 20)]))
    ch = locate(interior, walls)
    assert ch.sign(Wall(WallKind.WII, frozenset({11, 12}), F(1))) == "below"
    on = WeightVector(tuple([F(1)] * 10 + [F(1, 2), F(1, 2)]))
    ch_on = locate(on, walls)
    hit = [w for w in ch_on.on_walls() if not (w.kind == WallKind.WI and w.boundary)]
    assert Wall(WallKind.WII, frozenset({11, 12}), F(1)) in hit
    # determinism: equal weights, equal chamber
    assert locate(interior, walls) == locate(interior, walls)


def test_segment_crossings_of_the_example_path():
    types = [parse_fiber_type("I1")] * 12
    walls = enumerate_walls(12, types)
    B = WeightVector(tuple([F(1)] * 12))
    A = WeightVector(tuple([F(1)] * 10 + [F(1, 3), F(1, 3)]))
    crossings = segment_walls(A, B, walls)
    ts = [c.t for c in crossings]
    assert ts == sorted(ts, reverse=True)
    # alpha runs along 1/3 + (2/3) t; the subset {11,12} sum hits 1 and 5/6
    by_wall = {}
    for c in crossings:
        for w in c.walls_hit:
            if w.subset == frozenset({11, 12}):
                by_wall[(w.kind.value, w.constant)] = c.t
    assert by_wall[("WII", F(1))] == F(1, 4)  # alpha = 1/2
    assert by_wall[("WIII", F(5, 6))] == F(1, 8)  # alpha = 5/12
    # every reported time satisfies its wall equation exactly
    for c in crossings:
        at = interpolate(A, B, c.t)
        for w in c.walls_hit:
            assert w.value_at(at) == w.constant


def per_wall_crossings(A, B, walls):
    """The per-wall Fraction answer: solve each wall's linear equation for t."""
    expected: dict[Fraction, list] = {}
    for w in walls:
        va, vb = w.value_at(A), w.value_at(B)
        if va == vb:
            continue
        t = (w.constant - va) / (vb - va)
        if 0 < t < 1:
            expected.setdefault(t, []).append(w)
    return [(t, sorted(expected[t], key=Wall.sort_key)) for t in sorted(expected, reverse=True)]


def assert_per_wall_answers(A, B, walls, listed):
    """`segment_walls`, `walls_containing` and `locate` on the arrangement
    `walls` agree with each wall of `listed`, the same walls built one by
    one (`oracles.eager_walls`), which the caller has found equal to the
    walls of `walls`.  Each wall's equation is solved on integers: over D,
    the lcm of 12 and every weight denominator of A, B and the midpoint,
    each subset's sum at each point is added up once and each constant is
    scaled by D, so a `Fraction` is built only for the time of a hit."""
    points = (A, B, interpolate(A, B, F(1, 2)))
    D = lcm(12, *(x.denominator for W in points for x in W.entries))
    nums = [[0] + [x.numerator * (D // x.denominator) for x in W.entries] for W in points]
    sums: dict = {}
    expected: dict[Fraction, list] = {}
    sides: tuple[list, ...] = ([], [], [])
    for w in listed:
        at = sums.get(w.subset)
        if at is None:
            at = sums[w.subset] = [sum(map(n.__getitem__, w.subset)) for n in nums]
        c, rest = divmod(w.constant.numerator * D, w.constant.denominator)
        assert rest == 0
        for side, v in zip(sides, at):
            side.append("below" if v < c else "above" if v > c else "on")
        num, den = c - at[0], at[1] - at[0]
        if den < 0:
            num, den = -num, -den
        if 0 < num < den:
            expected.setdefault(Fraction(num, den), []).append(w)
    crossings = segment_walls(A, B, walls)
    assert [(c.t, list(c.walls_hit)) for c in crossings] == [
        (t, sorted(expected[t], key=Wall.sort_key)) for t in sorted(expected, reverse=True)
    ]
    for W, side in zip(points, sides):
        chamber = locate(W, walls)
        assert [s for _, s in chamber.signs] == side
        on = [w for w, s in zip(listed, side) if s == "on"]
        assert walls_containing(W, walls) == list(chamber.on_walls()) == on
        assert chamber.interior() == (not on)


def loose_forms(w):
    """The wall w as a plain tuple, and with a str, a set, an int and a 0 or
    1 for its parts: values a list of the walls finds equal to w."""
    constant = int(w.constant) if w.constant.denominator == 1 else w.constant
    return tuple(w), (str(w.kind), set(w.subset), constant, int(w.boundary))


def test_chamber_sign_is_the_side_of_every_wall():
    # `in` and `Chamber.sign` compare a value with the walls on its subset;
    # every wall, in each of its loose forms, is in the arrangement with its
    # own side, and absent walls and values that are no wall are in no list
    # of the walls and have no sign
    rng = random.Random(8)
    for r in range(9):
        mixed = [parse_fiber_type(MARKABLE[(i + r) % len(MARKABLE)]) for i in range(r)]
        absent = [
            Wall(WallKind.WI, frozenset({1}), F(0)),
            Wall(WallKind.WI, frozenset({1}), F(1, 2), True),
            Wall(WallKind.WII, frozenset({1, 2}), F(3, 7)),
            Wall(WallKind.WII, frozenset({r + 1}), F(1)),
            Wall(WallKind.WII, frozenset(range(1, r + 1)), F(3)),
            Wall(WallKind.WIII, frozenset({r}), F(99)),
            Wall(WallKind.WIII, frozenset(range(1, r + 1)), F(3, 7)),
        ]
        odd = [None, "WII", 1, (), (1, 2), ("WII", 5, F(1), False), ("WII", frozenset({"a"}), F(1), False)]
        odd += [[WallKind.WII, frozenset({1}), F(1), False], ("WII", [1], F(1), False)]
        odd.append(("WII", frozenset({0}), F(1), False))
        for walls in (enumerate_walls(r, [parse_fiber_type("I1")] * r), enumerate_walls(r, mixed, True)):
            listed = list(walls)
            W = WeightVector(tuple(F(rng.randint(1, 12), 12) for _ in range(r)))
            ch = locate(W, walls)
            for w in listed:
                for value in (w, *loose_forms(w)):
                    assert value == w and value in walls and ch.sign(value) == w.side(W), value
            for value in absent + odd:
                assert value not in listed and value not in walls, value
                with pytest.raises(KeyError):
                    ch.sign(value)


def test_same_chamber_agrees_with_the_eager_signs():
    # r = 0..10, both bases, the markable types laid out from a shifted
    # offset, weights on the 1/12, 1/24 or 1/60 grid; a base point is
    # compared with itself, with points a grid step or two away, with a far
    # point, and with points put on a wall (a coordinate at a constant, or
    # two that add up to one), and each of those with itself and the
    # nearest point
    rng = random.Random(28)
    answers = []
    for r in range(11):
        for rational in (False, True):
            types = [parse_fiber_type(MARKABLE[(i + r + 3 * rational) % len(MARKABLE)]) for i in range(r)]
            walls = enumerate_walls(r, types, rational)
            g = (12, 24, 60)[(2 * r + rational) % 3]
            P = [F(rng.randint(0, g), g) for _ in range(r)]
            points = [P, [F(rng.randint(0, g), g) for _ in range(r)]]
            for steps in (1, 1, 2):
                near = list(P)
                for i in rng.sample(range(r), min(r, steps)):
                    near[i] = min(F(1), max(F(0), near[i] + F(rng.choice((-1, 1)), g * rng.choice((1, 2)))))
                points.append(near)
            on_walls = []
            if r:
                on_walls.append(list(P))
                on_walls[-1][rng.randrange(r)] = rng.choice((F(1), *WALL_CONSTANTS))
            if r > 1:
                i, j = rng.sample(range(r), 2)
                on_walls.append(list(P))
                on_walls[-1][j] = 1 - P[i]
            vectors = {tuple(v): WeightVector(tuple(v)) for v in points + on_walls}
            sides = {v: [s for _, s in eager_signs(r, types, rational, W)] for v, W in vectors.items()}
            pairs = [(P, Q) for Q in points + on_walls] + [(on, Q) for on in on_walls for Q in (on, points[2])]
            for a, b in pairs:
                want = sides[tuple(a)] == sides[tuple(b)]
                answers.append(want)
                A, B = vectors[tuple(a)], vectors[tuple(b)]
                assert same_chamber(A, B, walls) == same_chamber(B, A, walls) == want, (r, rational, A, B)
                assert (locate(A, walls) == locate(B, walls)) == want
    assert 40 < answers.count(True) and 40 < answers.count(False)


def test_interior_is_no_wall_through_the_point():
    # interior() lists no subset through the point; it must agree
    # with the full list on_walls() gives.  r = 0..10, both bases, points on
    # the 1/12, 1/24 or 1/60 grid (often on a wall), on a 1/1009 grid (seldom)
    # and points put on a wall as in the test above
    rng = random.Random(29)
    # the empty subset adds up to 0, which must meet no subset constant
    L = enumerate_walls(0, [])._lift(*_integers(WeightVector(())))[0]
    assert L % _DEN == 0 and all(c > 0 for c in Arrangement._subset_constants(L))
    answers = []
    for r in range(11):
        for rational in (False, True):
            types = [parse_fiber_type(MARKABLE[(i + 2 * r + rational) % len(MARKABLE)]) for i in range(r)]
            walls = enumerate_walls(r, types, rational)
            for g in (12, 24, 60, 1009):
                for _ in range(4):
                    P = [F(rng.randint(0, g), g) for _ in range(r)]
                    points = [P]
                    if r:
                        points.append(list(P))
                        points[-1][rng.randrange(r)] = rng.choice((F(1), *WALL_CONSTANTS))
                    if r > 1:
                        i, j = rng.sample(range(r), 2)
                        points.append(list(P))
                        points[-1][j] = 1 - P[i]
                    for v in points:
                        chamber = locate(WeightVector(tuple(v)), walls)
                        answers.append(chamber.interior())
                        assert answers[-1] == (not chamber.on_walls()), (r, rational, v)
    assert 40 < answers.count(True) and 40 < answers.count(False)


def test_segment_oracle_random():
    rng = random.Random(23)
    pool = ["I1", "II", "III", "I*0", "IV*"]
    for _ in range(10):
        r = rng.randint(1, 5)
        types = [parse_fiber_type(rng.choice(pool)) for _ in range(r)]
        walls, eager = enumerate_walls(r, types, rational_base=True), eager_walls(r, types, True)
        B = WeightVector(tuple(F(rng.randint(6, 12), 12) for _ in range(r)))
        A = WeightVector(tuple(F(rng.randint(0, 6), 12) for _ in range(r)))
        assert walls == eager
        assert_per_wall_answers(A, B, walls, eager)
    # r = 0..10, both bases, 0..r moving markers, weights drawn from zero,
    # one, the thresholds and a 1/60 grid, and ends longer than r
    for r in range(11):
        for rational in (False, True):
            types = [parse_fiber_type(MARKABLE[(i + 2 * r + rational) % len(MARKABLE)]) for i in range(r)]
            walls, eager = enumerate_walls(r, types, rational), eager_walls(r, types, rational)
            assert walls == eager
            for moving in range(r + 1):
                extra = rng.choice([0, 0, 2])
                B = [rng.choice([F(0), F(1), *WALL_CONSTANTS, F(rng.randint(0, 60), 60)]) for _ in range(r + extra)]
                A = list(B)
                for i in rng.sample(range(r + extra), moving):
                    A[i] = F(rng.randint(0, 60 * B[i].numerator // B[i].denominator), 60)
                assert_per_wall_answers(WeightVector(tuple(A)), WeightVector(tuple(B)), walls, eager)
    # zero weights, so a fixed sum is reached both with and without a
    # marker; a full set that adds up to two over a rational base; ends on a
    # threshold and at one
    for r, A, B in (
        (5, (F(0), F(1, 2), F(0), F(1, 4), F(0)), (F(0), F(1, 2), F(0), F(3, 4), F(1, 2))),
        (4, (F(1, 4),) + (F(1, 2),) * 3, (F(1, 2),) * 4),
        (3, (F(5, 6), F(0), F(1, 2)), (F(1), F(1, 2), F(1, 2))),
    ):
        types = [parse_fiber_type(t) for t in ("II", "I1", "IV*", "III", "I*0")[:r]]
        walls, eager = enumerate_walls(r, types, True), eager_walls(r, types, True)
        assert walls == eager
        assert_per_wall_answers(WeightVector(A), WeightVector(B), walls, eager)
        if r == 4:
            assert Wall(WallKind.WII, frozenset({1, 2, 3, 4}), F(2)) in walls_containing(WeightVector(B), walls)


def test_wall_functions_reject_a_marker_outside_the_vector():
    # three markers, two weights
    A = WeightVector((F(1, 4), F(1, 2)))
    B = WeightVector((F(1, 2), F(1, 2)))
    for rational in (False, True):
        walls = enumerate_walls(3, [parse_fiber_type(t) for t in ("II", "I1", "IV*")], rational)
        with pytest.raises(KeyError, match="marker index 3 outside 1..2"):
            locate(A, walls)
        with pytest.raises(KeyError, match="marker index 3 outside 1..2"):
            same_chamber(A, B, walls)
        with pytest.raises(KeyError, match="marker index 3 outside 1..2"):
            walls_containing(A, walls)
        with pytest.raises(KeyError, match="marker index 3 outside 1..2"):
            segment_walls(A, B, walls)
        # a chamber built without `locate` checks its point as well
        with pytest.raises(KeyError, match="marker index 3 outside 1..2"):
            Chamber(A, walls).signs
        # the order of the ends is checked first
        with pytest.raises(ValueError, match="A <= B"):
            segment_walls(B, A, walls)


def test_wall_functions_take_only_an_arrangement():
    # the queries read the arrangement's definition, which a plain list of
    # the same walls does not carry
    walls, A, B, mid = worked_segment(4)
    for given in (list(walls), tuple(walls), iter(walls)):
        for call in (
            lambda: locate(mid, given),
            lambda: same_chamber(A, mid, given),
            lambda: walls_containing(mid, given),
            lambda: segment_walls(A, B, given),
        ):
            with pytest.raises(TypeError, match="enumerate_walls"):
                call()


def test_segment_requires_entrywise_order():
    walls = enumerate_walls(2, [parse_fiber_type("I1")] * 2)
    A = WeightVector((F(1, 2), F(3, 4)))
    B = WeightVector((F(3, 4), F(1, 2)))
    with pytest.raises(ValueError):
        segment_walls(A, B, walls)


def test_empty_segment_has_no_crossings():
    walls = enumerate_walls(2, [parse_fiber_type("I1")] * 2)
    A = WeightVector((F(1, 2), F(1, 2)))
    assert segment_walls(A, A, walls) == []
    assert Wall(WallKind.WII, frozenset({1, 2}), F(1)) in walls_containing(A, walls)


def felt_in(X, walls):
    """The walls of an arrangement that the model feels."""
    felt = {fw.wall for fw in felt_walls(X)}
    return [w for w in walls if w in felt]


def test_felt_walls_of_fixture_models():
    types = [parse_fiber_type("I1")] * 12
    walls = enumerate_walls(12, types)
    X = rational_degeneration(F(3, 5))
    active = felt_in(X, walls)
    assert Wall(WallKind.WII, frozenset({11, 12}), F(1)) in active
    # no pseudoelliptic trees yet: no WIII walls are felt
    assert not any(w.kind == WallKind.WIII for w in active)
    # markers are nodal fibers: no WI walls anywhere
    assert not any(w.kind == WallKind.WI for w in active)

    Y = flipped_degeneration(F(9, 20))
    active_y = felt_in(Y, walls)
    assert Wall(WallKind.WIII, frozenset({11, 12}), F(5, 6)) in active_y
    assert not any(w.kind == WallKind.WII and w.subset == frozenset({11, 12}) for w in active_y)


def test_felt_walls_high_genus_base():
    w = WeightVector((F(1, 2),))
    comp = Component("c1", 1, 2, F(1), (mk_fiber("f1", "I1", 1, w),))
    X = BrokenEllipticSurface(w, (comp,))
    walls = enumerate_walls(1, [parse_fiber_type("I1")], rational_base=True)
    # the genus-2 section feels its markers at -2, on no wall of the arrangement
    assert not any(w2.kind == WallKind.WII for w2 in felt_in(X, walls))


def test_felt_walls_depend_only_on_structure():
    # the subtree object carries its fibers' coefficients, so sites are
    # compared by the id of the subtree root
    def sites(X):
        return [fw._replace(node=fw.node and fw.node.pid) for fw in felt_walls(X)]

    rng = random.Random(7)
    checked = 0
    while checked < 40:
        X = random_model(rng, max_components=4, max_markers=8, allow_isotrivial=True)
        W = admissible_target(rng, X, tries=10)
        if W is None:
            continue
        assert sites(X) == sites(at_weights(X, W))
        checked += 1


def test_felt_walls_skip_boundary_wall_of_a_nodal_fiber():
    w = WeightVector((F(1, 2),))
    boundary = Wall(WallKind.WI, frozenset({1}), F(1), boundary=True)
    threshold = Wall(WallKind.WI, frozenset({1}), F(5, 6))
    nodal = BrokenEllipticSurface(w, (Component("c1", 1, 2, F(1), (mk_fiber("f1", "I1", 1, w),)),))
    assert felt_in(nodal, [boundary, threshold]) == []
    cusp = BrokenEllipticSurface(w, (Component("c1", 1, 2, F(1), (mk_fiber("f1", "II", 1, w),)),))
    assert [fw.wall for fw in felt_walls(cusp) if fw.wall.kind == WallKind.WI] == [threshold, boundary]
    assert [fw.fid for fw in felt_walls(cusp)] == ["f1", "f1", ""]


def test_felt_walls_keep_both_components_of_a_repeated_id():
    # `validate` refuses a repeated component id, but `cross_wall` reads the
    # felt walls of an unchecked model: both components' walls stay, one
    # after the other
    w = WeightVector((F(1, 2), F(1, 2)))
    comps = tuple(Component("c1", v, 0, F(1), (mk_fiber(f"f{v}", "II", v, w),)) for v in (1, 2))
    X = BrokenEllipticSurface(w, comps)
    assert [fw.fid for fw in felt_walls(X)] == ["f1", "f1", "", "f2", "f2", ""]


def test_wall_obj_round_trip():
    w = Wall(WallKind.WIII, frozenset({2, 5}), F(5, 6))
    assert wall_from_obj(wall_to_obj(w)) == w


@pytest.mark.parametrize(
    "field, value",
    [
        ("boundary", "false"),
        ("boundary", 0),
        ("subset", [2, 5.0]),
        ("subset", [True]),
        ("subset", ["2"]),
    ],
)
def test_wall_obj_takes_json_booleans_and_integers(field, value):
    obj = wall_to_obj(Wall(WallKind.WI, frozenset({2, 5}), F(5, 6), True))
    obj[field] = value
    with pytest.raises(ValueError, match="bad (boolean|integer)"):
        wall_from_obj(obj)


def test_a_pickled_arrangement_answers_as_the_original():
    types = [parse_fiber_type(t) for t in ("II", "I1", "IV*")]
    walls = enumerate_walls(3, types, rational_base=True)
    copied = pickle.loads(pickle.dumps(walls))
    assert isinstance(copied, Arrangement) and copied == walls == list(walls)
    A = WeightVector((F(1, 6), F(1, 4), F(1, 3)))
    B = WeightVector((F(5, 6), F(3, 4), F(2, 3)))
    for W in (A, B, interpolate(A, B, F(1, 2))):
        assert locate(W, copied) == locate(W, walls)
        assert walls_containing(W, copied) == walls_containing(W, walls)
    assert segment_walls(A, B, copied) == segment_walls(A, B, walls)
    assert_per_wall_answers(A, B, walls, eager_walls(3, types, True))


def assert_reads_like(arr, walls, types, rational):
    """The Arrangement `arr` of `enumerate_walls(len(types), types,
    rational)` is no sequence, iterates, counts and compares as the list
    `walls` of its walls does, and pickles."""
    assert not isinstance(arr, Sequence) and not hasattr(arr, "__getitem__")
    assert not any(hasattr(arr, name) for name in ("index", "count", "append", "__setitem__"))
    assert len(arr) == len(walls) and bool(arr) == bool(walls) and list(arr) == walls
    # equal to the list and to an Arrangement of the same definition, both
    # ways; unequal to a list that differs in one wall or is shorter, to an
    # Arrangement with one marker fewer, another type or the other base, and
    # to any tuple
    r = len(types)
    for other in (walls, enumerate_walls(r, types, rational)):
        assert arr == other and other == arr and not arr != other
    missing = Wall(WallKind.WII, frozenset({1}), F(3, 7))
    flipped = walls[:-1] + [walls[-1]._replace(boundary=not walls[-1].boundary)]
    unequal = [walls[:-1] + [missing], walls[:-1], flipped, enumerate_walls(r, types, not rational)]
    unequal.append(enumerate_walls(r - 1, types[:-1], rational))
    other_type = next(t for t in map(parse_fiber_type, ("I1", "II")) if lct_threshold(t) != lct_threshold(types[0]))
    unequal.append(enumerate_walls(r, [other_type, *types[1:]], rational))
    for other in unequal:
        assert arr != other and other != arr and not arr == other
    assert arr != tuple(walls)
    copied = pickle.loads(pickle.dumps(arr))
    assert isinstance(copied, Arrangement) and copied == walls


def test_arrangement_equals_the_eager_oracle():
    # r = 1..8 over both bases, with the markable types laid out from every
    # offset, so each type sits at each position; the list comparisons run
    # on one layout per r over a rational base
    rng = random.Random(41)
    for r in range(1, 9):
        for shift in range(len(MARKABLE)):
            types = [parse_fiber_type(MARKABLE[(i + shift) % len(MARKABLE)]) for i in range(r)]
            for rational in (False, True):
                walls = enumerate_walls(r, types, rational)
                eager = eager_walls(r, types, rational)
                # the closed-form length and the walls iterating builds; the
                # queries against each wall of the list up to r = 6, and on
                # one layout per r above it
                assert isinstance(walls, Arrangement) and walls.r == r
                assert len(walls) == len(eager) and list(walls) == eager
                if r <= 6 or shift == r:
                    a = [rng.randint(0, 12) for _ in range(r)]
                    b = [x + rng.randint(0, 12 - x) for x in a]
                    ends = (WeightVector(tuple(F(x, 12) for x in v)) for v in (a, b))
                    assert_per_wall_answers(*ends, walls, eager)
                assert walls == eager
                again = enumerate_walls(r, types, rational)
                assert walls == again and all(a.constant is b.constant for a, b in zip(walls, again))
                shared: dict = {}
                for w in walls:
                    assert shared.setdefault(w.subset, w.subset) is w.subset
                if shift == r and rational:
                    assert_reads_like(walls, eager, types, rational)
    # no walls: the enumeration and the empty list
    assert enumerate_walls(0, []) == [] and list(enumerate_walls(0, [])) == []
    assert enumerate_walls(0, [], True) == eager_walls(0, [], True) == [Wall(WallKind.WII, frozenset(), F(2))]


def worked_segment(r):
    """The worked path on r nodal markers: the last two weights run from 1
    down to 1/3, with the midpoint at 2/3."""
    ends = [WeightVector((F(1),) * (r - 2) + (a,) * 2) for a in (F(1, 3), F(1), F(2, 3))]
    return enumerate_walls(r, [parse_fiber_type("I1")] * r), *ends


def test_arrangement_repr_counts_its_walls_and_a_chamber_shows_its_point():
    # on the worked path at r = 4 the midpoint lies below 6 walls and on 4
    walls, _, _, mid = worked_segment(4)
    assert repr(walls) == "<Arrangement of 120 walls on markers up to 4>"
    chamber = locate(mid, walls)
    sides = [s for _, s in chamber.signs]
    assert (sides.count("below"), sides.count("on")) == (6, len(chamber.on_walls())) == (6, 4)
    assert repr(chamber) == f"Chamber(point={mid!r}, walls={walls!r})"


def test_worked_segment_answers_at_r_20_and_32_without_enumerating():
    # aim 3: the arrangement stays usable up to r = 20 and beyond.  Along
    # the worked path a subset of n of the two moving markers adds up to
    # n / 3 + (2 n / 3) t; a subset with a fixed marker adds up to more than
    # one, above every constant; so only those three subsets are crossed
    start = time.perf_counter()
    for r in (20, 32):
        walls, A, B, mid = worked_segment(r)
        assert len(walls) == 8 * (2**r - 1)
        expected: dict = {}
        for moving in ({r - 1}, {r}, {r - 1, r}):
            n = len(moving)
            for c in (*WALL_CONSTANTS, F(1)):
                t = (c - F(n, 3)) / F(2 * n, 3)
                if 0 < t < 1:
                    kind = WallKind.WII if c == 1 else WallKind.WIII
                    expected.setdefault(t, []).append(Wall(kind, frozenset(moving), c))
        crossings = segment_walls(A, B, walls)
        assert [(c.t, list(c.walls_hit)) for c in crossings] == [
            (t, sorted(expected[t], key=Wall.sort_key)) for t in sorted(expected, reverse=True)
        ]
        assert sum(len(c.walls_hit) for c in crossings) == 11
        ones = [Wall(WallKind.WII, frozenset({k}), F(1)) for k in range(1, r + 1)]
        assert walls_containing(B, walls) == ones
        assert walls_containing(A, walls) == ones[:-2] + [
            Wall(WallKind.WIII, frozenset(s), c) for s, c in (({r - 1}, F(1, 3)), ({r - 1, r}, F(2, 3)), ({r}, F(1, 3)))
        ]
        assert same_chamber(mid, mid, walls) and not same_chamber(A, B, walls)
    assert time.perf_counter() - start < 1
    # the closed form: two WI walls per marker with a threshold, eight walls
    # per nonempty subset, and the wall at two over a rational base
    assert len(enumerate_walls(32, [parse_fiber_type("II")] * 32, True)) == 2 * 32 + 8 * (2**32 - 1) + 1


def test_queries_build_only_the_walls_they_return(monkeypatch):
    # every answer wall comes from the one builder, which builds no other
    built = []
    build = Arrangement._wall

    def counted(self, *args):
        wall = build(self, *args)
        built.append(wall)
        return wall

    def from_builder(answer) -> bool:
        return sorted(map(id, built)) == sorted(map(id, answer))

    # the subset table grows by exactly the subsets of each answer that it
    # lacks, and holds no other
    seen: set = set()

    def new_subsets(answer) -> int:
        new = {w.subset for w in answer} - seen
        seen.update(new)
        assert _subset.cache_info().currsize == len(seen)
        return len(new)

    monkeypatch.setattr(Arrangement, "_wall", counted)
    _subset.cache_clear()
    walls, A, B, mid = worked_segment(16)
    assert len(walls) == 524_280 and built == [] and _subset.cache_info().currsize == 0
    crossings = segment_walls(A, B, walls)
    hit = [w for c in crossings for w in c.walls_hit]
    assert len(hit) == 11 and from_builder(hit)
    # the crossings are on {15}, {16} and {15, 16}; A adds the other
    # singletons, and B, on the sixteen singletons, adds none
    assert new_subsets(hit) == 3
    for W, new in ((A, 14), (B, 0)):
        built.clear()
        on = walls_containing(W, walls)
        assert len(on) > 0 and from_builder(on) and new_subsets(on) == new
    built.clear()
    chamber = locate(mid, walls)
    assert built == [] and not chamber.interior() and new_subsets([]) == 0
    wall = Wall(WallKind.WII, frozenset({15, 16}), F(1))
    assert chamber.sign(wall) == "above" and wall in walls and built == []
    chamber = locate(A, walls)
    assert built == []
    # every subset through A is in the table already, so it stays as it is
    before = _subset.cache_info().currsize
    on = chamber.on_walls()
    assert from_builder(on) and list(on) == walls_containing(A, walls)
    assert _subset.cache_info().currsize == before
    assert all(chamber.sign(w) == "on" for w in on)


def test_arrangements_on_the_same_r_share_one_subset_table():
    # answers of two arrangements of other types and base flags hold the
    # same frozenset for the same subset: both have the nine walls at one on
    # {k} (k <= 6) and {7, 8}, at 1/3 on {7} and at 2/3 on {8}
    point = WeightVector((F(1),) * 6 + (F(1, 3), F(2, 3)))
    walls = [enumerate_walls(8, [parse_fiber_type(t)] * 8, rational) for t, rational in (("I1", False), ("II", True))]
    first, second = (walls_containing(point, w) for w in walls)
    shared = [(a, b) for a in first for b in second if a == b]
    assert len(shared) == 9 and all(a.subset is b.subset for a, b in shared)
    # one answer larger than the table's bound: at r = 14 with every weight
    # 1/12 the walls through the point are every k-subset at constant k/12
    r, info = 14, _subset.cache_info()
    point = WeightVector((F(1, 12),) * r)
    expected = [
        Wall(WallKind.WII if c == 1 else WallKind.WIII, frozenset(s), c)
        for c in (*WALL_CONSTANTS, F(1))
        if (c * 12).denominator == 1
        for s in combinations(range(1, r + 1), int(c * 12))
    ]
    on = walls_containing(point, enumerate_walls(r, [parse_fiber_type("I1")] * r))
    assert len(on) == 10_556 > info.maxsize and on == sorted(expected, key=Wall.sort_key)
    assert _subset.cache_info().currsize == info.maxsize


def test_membership_at_r_20_builds_no_column(monkeypatch):
    walls = enumerate_walls(20, [parse_fiber_type("I1")] * 20)

    def no_pass(self, *args):
        raise AssertionError("a wall built")

    monkeypatch.setattr(Arrangement, "__iter__", no_pass)
    monkeypatch.setattr(Arrangement, "_wall", no_pass)
    start = time.perf_counter()
    chamber = locate(WeightVector((F(1),) * 18 + (F(2, 3),) * 2), walls)
    for subset, side in (({19, 20}, "above"), ({1}, "on")):
        wall = Wall(WallKind.WII, frozenset(subset), F(1))
        for value in (wall, *loose_forms(wall)):
            assert value in walls and chamber.sign(value) == side
    absent = [
        Wall(WallKind.WIII, frozenset({19, 20}), F(3, 7)),
        Wall(WallKind.WII, frozenset({21}), F(1)),
        Wall(WallKind.WI, frozenset({1}), F(1), True),
        Wall(WallKind.WII, frozenset(range(1, 21)), F(2)),
    ]
    for value in absent + [None, "WII", (), [WallKind.WII, frozenset({19, 20}), F(1), False]]:
        assert value not in walls
        with pytest.raises(KeyError):
            chamber.sign(value)
    assert time.perf_counter() - start < 1


def test_chambers_hold_their_point_and_arrangement():
    walls, A, B, mid = worked_segment(8)
    types = [parse_fiber_type("I1")] * 8
    chamber = locate(mid, walls)
    assert isinstance(chamber, Chamber) and chamber.walls is walls and chamber.point is mid
    assert chamber.signs == eager_signs(8, types, False, mid)
    assert chamber.on_walls() and not chamber.interior()
    assert chamber.on_walls() == tuple(w for w, s in chamber.signs if s == "on")
    # equal chambers of two enumerations, and of a pickled copy; the hash
    # is the arrangement's alone
    for other in (enumerate_walls(8, types), pickle.loads(pickle.dumps(walls))):
        twin = locate(mid, other)
        assert twin == chamber and not twin != chamber and twin.signs == chamber.signs
        assert hash(twin) == hash(chamber) and len({twin, chamber}) == 1
    # two points of one chamber: the moving markers above every threshold
    # and below one, the fixed ones at one
    inner = [WeightVector((F(1),) * 6 + (a, b)) for a, b in ((F(9, 10), F(9, 10)), (F(7, 8), F(11, 12)))]
    assert locate(inner[0], walls) == locate(inner[1], walls) and locate(inner[0], walls).interior() is False
    assert locate(A, walls) != chamber and locate(B, walls) != chamber and not locate(A, walls) == chamber
    # the same point against another arrangement is another chamber
    assert locate(mid, enumerate_walls(8, types, True)) != chamber
    # nor is it equal to a plain tuple of its fields, either way round
    assert chamber != (mid, walls) and (mid, walls) != chamber and not chamber == (mid, walls)
    assert pickle.loads(pickle.dumps(chamber)) == chamber


def test_enumerate_walls_needs_one_type_per_marker():
    for types in (["I1"] * 2, ["I1"] * 4):
        with pytest.raises(ValueError, match=rf"^expected 3 fiber types, got {len(types)}$"):
            enumerate_walls(3, map(parse_fiber_type, types))


def test_segment_checks_the_order_of_its_ends_on_integers():
    walls, A, B, _ = worked_segment(4)
    crossings = segment_walls(A, B, walls)
    assert [(c.t, list(c.walls_hit)) for c in crossings] == per_wall_crossings(A, B, walls)
    short = WeightVector((F(1),) * 3)
    for lo, hi in ((B, A), (A, short), (short, B)):
        with pytest.raises(ValueError, match=r"^segment requires A <= B entrywise$"):
            segment_walls(lo, hi, walls)


def test_a_vector_is_lifted_once_however_many_queries_read_it(monkeypatch):
    # every query on one vector reads the lift it kept from its first query,
    # on arrangements of any r up to its length; a fresh copy of the same
    # entries answers alike
    lifted = []
    lift = curves._vector_lift

    def counted(v):
        lifted.append(v)
        return lift(v)

    def answers(A, B, mid, walls):
        return (
            segment_walls(A, B, walls), walls_containing(A, walls), walls_containing(B, walls),
            same_chamber(A, B, walls), same_chamber(mid, A, walls), locate(mid, walls).interior(),
            locate(mid, walls).signs,
        )

    monkeypatch.setattr(curves, "_vector_lift", counted)
    rng = random.Random(32)
    for r, rational in ((6, False), (8, True), (9, False)):
        types = [parse_fiber_type(MARKABLE[(i + r) % len(MARKABLE)]) for i in range(r)]
        arrangements = [enumerate_walls(k, types[:k], rational) for k in (r, r - 2)]
        A = WeightVector(tuple(F(rng.randint(0, 6), rng.choice((6, 8, 15))) for _ in range(r)))
        B = WeightVector(tuple(min(F(1), a + F(rng.randint(0, 2), 5)) for a in A.entries))
        mid = interpolate(A, B, F(1, 2))
        lifted.clear()
        got = [answers(A, B, mid, walls) for walls in arrangements]
        assert lifted == [A, B, mid]
        assert all("_lift" in W.__dict__ for W in (A, B, mid))
        fresh = [WeightVector(W.entries) for W in (A, B, mid)]
        assert got == [answers(*fresh, walls) for walls in arrangements]
        # a vector from the records' unchecked rebuild answers alike
        made = [WeightVector._make((W.entries,)) for W in (A, B, mid)]
        assert got == [answers(*made, walls) for walls in arrangements]
    # a walk's snapshot weights carry the lift and texts the walk made; a
    # query reads that lift and adds nothing, and the snapshot still writes
    # as the oracle does
    X = rational_degeneration(F(1))
    trace = reduce(X, WeightVector((F(1),) * 10 + (F(1, 3),) * 2))
    walls = enumerate_walls(12, [parse_fiber_type("I1")] * 12, True)
    for Y in [rec.snapshot_after for rec in trace.records] + [trace.final]:
        W = Y.weights
        kept = W.__dict__["_lift"]
        lifted.clear()
        got = [walls_containing(W, walls), locate(W, walls).interior(), same_chamber(W, X.weights, walls)]
        assert W.__dict__.keys() == {"_lift", "_texts"} and W.__dict__["_lift"] is kept and lifted == []
        fresh = WeightVector(W.entries)
        assert got == [walls_containing(fresh, walls), locate(fresh, walls).interior(), same_chamber(fresh, X.weights, walls)]
        assert serialize_model(Y) == serialize_oracle(Y)


def test_walls_hit_at_one_time_by_parts_of_different_rises_share_one_crossing():
    # marker 1 rises 3/12 and meets 1/6 at t = 2/3 (hit 2/3); marker 2 rises
    # 6/12 from 5/12 and meets 3/4 at t = 2/3 too (hit 4/6); their sum meets
    # no constant there
    walls = enumerate_walls(2, [parse_fiber_type("I1")] * 2)
    A, B = WeightVector((F(0), F(5, 12))), WeightVector((F(1, 4), F(11, 12)))
    crossings = segment_walls(A, B, walls)
    assert [(c.t, list(c.walls_hit)) for c in crossings] == per_wall_crossings(A, B, walls)
    (hit,) = [c for c in crossings if c.t == F(2, 3)]
    assert hit.walls_hit == (
        Wall(WallKind.WIII, frozenset({1}), F(1, 6)), Wall(WallKind.WIII, frozenset({2}), F(3, 4))
    )
    listed = list(walls)
    assert [listed.index(w) for w in hit.walls_hit] == sorted(listed.index(w) for w in hit.walls_hit)
