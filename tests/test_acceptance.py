"""Acceptance suite: every criterion is exact rational arithmetic, no
tolerances anywhere; runtime bounds are asserted where stated.  Run with
`pytest tests/test_acceptance.py -s` to see one pass line per criterion.
"""

import random
import time
from fractions import Fraction

from mmp_elliptic.curves import WeightVector, hassett_reduce, interpolate
from mmp_elliptic.kodaira import (
    FiberState,
    lct_threshold,
    parse_fiber_type,
    verify_threshold,
)
from mmp_elliptic.reduction import RecordKind, at_weights, reduce
from mmp_elliptic.surfaces import (
    BrokenEllipticSurface,
    Component,
    MarkedFiber,
    base_curve,
    base_weights,
    validate,
    volume,
)
from mmp_elliptic.walls import enumerate_walls, locate, same_chamber

from modelkit import admissible, admissible_target, random_model, random_target, rational_degeneration
from oracles import brute_force_walls, gram_volume, wall_keys

F = Fraction


def report(number: int, label: str, started: float) -> float:
    elapsed = time.perf_counter() - started
    print(f"[criterion {number}] {label}: PASS ({elapsed:.3f} s)")
    return elapsed


def test_criterion_1_threshold_rederivation():
    started = time.perf_counter()
    table_types = [parse_fiber_type(t) for t in ("I*0", "II", "III", "IV", "II*", "III*", "IV*")]
    for ftype in table_types:
        assert verify_threshold(ftype) == lct_threshold(ftype)
    for n in (1, 2, 5, 9):
        assert verify_threshold(parse_fiber_type(f"I*{n}")) == F(1, 2)
    elapsed = report(1, "threshold re-derivation equals the tabulated values", started)
    assert elapsed < 1.0


def test_criterion_2_worked_example_end_to_end():
    started = time.perf_counter()
    X = rational_degeneration(F(1))
    target = WeightVector(tuple([F(1)] * 10 + [F(1, 3), F(1, 3)]))
    trace = reduce(X, target)

    assert [r.kind for r in trace.records] == [
        RecordKind.LA_NAVE_FLIP,
        RecordKind.TREE_COLLAPSE_TO_POINT,
    ]
    flip, collapse = trace.records
    assert interpolate(target, X.weights, flip.t).weight(11) == F(1, 2)
    assert interpolate(target, X.weights, collapse.t).weight(11) == F(5, 12)
    cusp = collapse.snapshot_after.component("c1").fiber("a1")
    assert str(cusp.ftype) == "II"
    assert cusp.state == FiberState.WEIERSTRASS
    assert cusp.coeff == F(5, 6)

    # the base-curve projections of every stage match the weighted-curve
    # reduction of the original two-vertex base
    original = base_curve(X)
    assert len(original.vertices) == 2
    for rec in trace.records:
        stage = base_curve(rec.snapshot_after)
        assert stage == hassett_reduce(original, rec.snapshot_after.weights)
        assert len(stage.vertices) == 1
    final = trace.final
    assert base_curve(final) == hassett_reduce(original, target)
    assert final.component("c1").fiber("a1").coeff == F(2, 3)
    assert validate(final) == []
    elapsed = report(2, "worked example: flip at 1/2, collapse at 5/12, residual 2/3", started)
    assert elapsed < 1.0


def test_criterion_3_wall_enumeration_oracle():
    started = time.perf_counter()
    rng = random.Random(31)
    pool = ["I1", "I4", "I0", "II", "III", "IV", "I*0", "I*2", "II*", "III*", "IV*", "N0", "N1"]
    sizes = [1, 3, 5, 7, 9, 10, 10, 10]
    for r in sizes:
        types = [parse_fiber_type(rng.choice(pool)) for _ in range(r)]
        rational = rng.random() < 0.5
        walls = enumerate_walls(r, types, rational)
        assert wall_keys(walls) == brute_force_walls(r, types, rational)
    elapsed = report(3, f"wall enumeration matches brute force up to r=10 ({len(sizes)} draws)", started)
    assert elapsed < 10.0


def test_criterion_4_hassett_commutativity():
    started = time.perf_counter()
    rng = random.Random(101)
    checked = 0
    while checked < 100:
        X = random_model(rng, max_components=5, max_markers=8)
        assert len(X.elliptic) + len(X.pseudo2) <= 5
        assert X.weights.r <= 8
        target = admissible_target(rng, X)
        if target is None:
            continue
        trace = reduce(X, target)
        if trace.halted is not None:
            continue
        assert base_curve(trace.final) == hassett_reduce(base_curve(X), base_weights(trace.final))
        assert base_weights(trace.final) == target
        checked += 1
    elapsed = report(4, f"base-curve commutativity on {checked} random reductions", started)
    assert elapsed < 30.0


def _random_weierstrass_model(rng: random.Random) -> BrokenEllipticSurface:
    genus = rng.randint(0, 2)
    degL = rng.randint(0, 3)
    n = rng.randint(0, 12)
    weights = []
    fibers = []
    for i in range(1, n + 1):
        if degL == 0:
            ftype = parse_fiber_type("I0")
        else:
            ftype = parse_fiber_type(
                rng.choice(["I1", "I2", "I5", "I0", "N0", "II", "III", "IV", "I*0", "II*", "III*", "IV*", "N1"])
            )
        a0 = lct_threshold(ftype)
        cap = a0 if a0 is not None else F(1)
        num = rng.randint(0, int(cap * 12))
        w = F(num, 12)
        weights.append(w)
        fibers.append(MarkedFiber(f"f{i}", ftype, w, FiberState.WEIERSTRASS, frozenset({i})))
    comp = Component("c1", 1, genus, F(degL), tuple(fibers))
    return BrokenEllipticSurface(WeightVector(tuple(weights)), (comp,))


def test_criterion_5_volume_oracle():
    started = time.perf_counter()
    rng = random.Random(55)
    for _ in range(25):
        X = _random_weierstrass_model(rng)
        assert validate(X) == []
        assert volume(X) == gram_volume(X)
    report(5, "volume equals the symbolic intersection expansion on 25 models", started)


def marker_types(X: BrokenEllipticSurface) -> list | None:
    """The type of each marker's fiber, in marker order, when every marker
    has a fiber of its own; else None."""
    types = []
    for i in range(1, X.weights.r + 1):
        for owner, fibers in X.fiber_owners():
            for f in fibers:
                if f.markers == frozenset({i}):
                    types.append(f.ftype)
    return types if len(types) == X.weights.r else None


def test_criterion_6_chamber_invariance():
    started = time.perf_counter()
    rng = random.Random(87)
    checked = 0
    while checked < 20:
        X = random_model(rng, max_components=3, max_markers=6)
        types = marker_types(X)
        if types is None:
            continue
        walls = enumerate_walls(X.weights.r, types, rational_base=True)
        A = admissible_target(rng, X)
        if A is None or not locate(A, walls).interior():
            continue
        B = None
        for _ in range(40):
            entries = []
            for a, b in zip(A.entries, X.weights.entries):
                nudged = a + F(rng.randint(-1, 1), 144)
                entries.append(nudged if 0 < nudged <= b else a)
            cand = WeightVector(tuple(entries))
            if cand.entries != A.entries and locate(cand, walls) == locate(A, walls):
                B = cand
                break
        if B is None:
            continue
        # each final, re-evaluated at the other's own weights (a halted walk
        # stops short of its target), equals the other; both ways, so each
        # one's fiber states are checked too
        final_a, final_b = reduce(X, A).final, reduce(X, B).final
        assert at_weights(final_a, final_b.weights) == final_b
        assert at_weights(final_b, final_a.weights) == final_a
        checked += 1
    report(6, f"same-chamber targets give isomorphic stable models ({checked} pairs)", started)


def test_one_stable_model_per_chamber_on_wide_targets():
    # the chamber theorem on many targets per model, not one nudge: targets
    # on the 1/61 grid (on the 1/12 grid most lie on walls, as every wall
    # constant's denominator divides 12), screened for the domain and kept
    # when interior, are grouped by chamber, and each group's finals agree
    # under `at_weights` both ways, as in criterion 6
    rng = random.Random(87)
    models = pairs = 0
    while models < 80:
        X = random_model(rng, max_components=3, max_markers=6)
        types = marker_types(X)
        if types is None:
            continue
        models += 1
        walls = enumerate_walls(X.weights.r, types, rational_base=True)
        groups: list[list] = []
        for _ in range(30):
            A = random_target(rng, X.weights, den=61)
            if not admissible(X, A) or not locate(A, walls).interior():
                continue
            final = reduce(X, A).final
            group = next((g for g in groups if same_chamber(g[0][0], A, walls)), None)
            if group is None:
                groups.append([(A, final)])
                continue
            first = group[0][1]
            assert at_weights(first, final.weights) == final
            assert at_weights(final, first.weights) == first
            group.append((A, final))
            pairs += 1
    assert pairs > 150


def test_criterion_7_rule_set_closure_and_validity():
    started = time.perf_counter()
    rng = random.Random(77)
    allowed = set(RecordKind)
    runs = 0
    records_total = 0
    while runs < 1000:
        # isotrivial collapse-to-curve flags force a terminal manual-review
        # halt by design and are exercised by their own test; the closure fuzz
        # runs over the fully modeled domain
        X = random_model(rng, max_components=3, max_markers=6)
        target = admissible_target(rng, X, tries=10)
        if target is None:
            continue
        trace = reduce(X, target)
        for rec in trace.records:
            assert rec.kind in allowed
            assert validate(rec.snapshot_after) == []
        assert validate(trace.final) == []
        records_total += len(trace.records)
        runs += 1
    report(
        7,
        f"rule-set closure and validity over {runs} runs / {records_total} records",
        started,
    )


def test_criterion_8_factorization():
    started = time.perf_counter()
    rng = random.Random(121)
    checked = 0
    while checked < 50:
        X = random_model(rng, max_components=3, max_markers=6)
        A = admissible_target(rng, X)
        if A is None:
            continue
        M = WeightVector(tuple((a + b) / 2 for a, b in zip(A.entries, X.weights.entries)))
        via = reduce(X, M)
        if via.halted is not None:
            continue
        two_step = reduce(via.final, A)
        direct = reduce(X, A)
        assert two_step.final == direct.final
        checked += 1
    report(8, f"reduction factors through intermediate weights ({checked} instances)", started)
