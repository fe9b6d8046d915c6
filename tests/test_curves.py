import json
import random
from fractions import Fraction

import pytest

from mmp_elliptic.curves import (
    CurveError,
    MarkedNodalCurve,
    Marker,
    Vertex,
    WeightVector,
    _contract,
    component_degree,
    curve_from_json,
    curve_to_dot,
    curve_to_obj,
    hassett_reduce,
    interpolate,
    is_hassett_stable,
)

from mmp_elliptic.kodaira import parse_fiber_type
from mmp_elliptic.surfaces import AttachEnd, BrokenEllipticSurface, Component, Glue, base_curve, validate

from modelkit import mk_fiber, rational_degeneration
from oracles import contract_by_step, hassett_by_vertex, vertex_degree, weight_sum_fold

F = Fraction


def chain(genera, marker_plan):
    """Path graph with vertices 1..n; marker_plan maps vertex -> marker indices."""
    vertices = tuple(Vertex(i + 1, g) for i, g in enumerate(genera))
    edges = tuple((i, i + 1) for i in range(1, len(genera)))
    markers = tuple(
        Marker(idx, vid) for vid, idxs in sorted(marker_plan.items()) for idx in idxs
    )
    return MarkedNodalCurve(vertices, edges, markers)


def test_component_degree_plain_genus_two():
    curve = MarkedNodalCurve((Vertex(1, 2),), (), ())
    assert component_degree(curve, 1, WeightVector(())) == 2


def test_component_degree_leaf_with_two_markers():
    curve = chain([0, 0], {2: [1, 2]})
    alpha = F(5, 12)
    w = WeightVector((alpha, alpha))
    assert component_degree(curve, 2, w) == 2 * alpha - 1
    # the degree vanishes exactly at alpha = 1/2
    w_half = WeightVector((F(1, 2), F(1, 2)))
    assert component_degree(curve, 2, w_half) == 0


def test_component_degree_ten_plus_two():
    curve = MarkedNodalCurve(
        (Vertex(1, 0),), (), tuple(Marker(i, 1) for i in range(1, 13))
    )
    alpha = F(1, 3)
    w = WeightVector(tuple([F(1)] * 10 + [alpha, alpha]))
    assert component_degree(curve, 1, w) == 10 + 2 * alpha - 2


def test_self_loop_counts_twice():
    curve = MarkedNodalCurve((Vertex(1, 0),), ((1, 1),), ())
    assert curve.valence(1) == 2
    assert component_degree(curve, 1, WeightVector(())) == 0


def test_stability_examples():
    p1 = MarkedNodalCurve((Vertex(1, 0),), (), (Marker(1, 1), Marker(2, 1), Marker(3, 1)))
    assert is_hassett_stable(p1, WeightVector((F(1), F(1), F(1))))
    two_chain = chain([0, 0], {1: list(range(1, 11)), 2: [11, 12]})
    w_half = WeightVector(tuple([F(1)] * 10 + [F(1, 2), F(1, 2)]))
    assert not is_hassett_stable(two_chain, w_half)
    genus_one = MarkedNodalCurve((Vertex(1, 1),), (), ())
    assert not is_hassett_stable(genus_one, WeightVector(()))


def test_zero_weight_marker_blocks_stability():
    p1 = MarkedNodalCurve((Vertex(1, 0),), (), (Marker(1, 1), Marker(2, 1), Marker(3, 1)))
    assert not is_hassett_stable(p1, WeightVector((F(1), F(1), F(0))))


def test_reduce_fixed_point_on_stable_input():
    curve = chain([0, 0], {1: [1, 2], 2: [3, 4]})
    w = WeightVector((F(1), F(1), F(1), F(1)))
    assert hassett_reduce(curve, w) == curve


def test_reduce_leaf_collapse_moves_markers():
    curve = chain([0, 0], {1: list(range(1, 11)), 2: [11, 12]})
    alpha = F(5, 12)
    w = WeightVector(tuple([F(1)] * 10 + [alpha, alpha]))
    reduced = hassett_reduce(curve, w)
    assert len(reduced.vertices) == 1
    assert reduced.vertices[0].vid == 1
    assert {m.index for m in reduced.markers} == set(range(1, 13))
    assert all(m.vertex == 1 for m in reduced.markers)


def test_reduce_middle_vertex_of_three_chain():
    curve = chain([0, 0, 0], {1: [1, 2], 3: [3, 4]})
    w = WeightVector((F(1), F(1), F(1), F(1)))
    reduced = hassett_reduce(curve, w)
    assert len(reduced.vertices) == 2
    assert reduced.edges == ((1, 3),)
    for v in reduced.vertices:
        assert component_degree(reduced, v.vid, w) > 0


def test_reduce_errors_on_disconnected():
    curve = MarkedNodalCurve((Vertex(1, 0), Vertex(2, 0)), (), ())
    with pytest.raises(CurveError):
        hassett_reduce(curve, WeightVector(()))


def test_interpolate_and_vertex_lookup_name_what_is_wrong():
    with pytest.raises(ValueError) as exc:
        interpolate(WeightVector((F(1),)), WeightVector((F(1), F(1))), F(1, 2))
    assert exc.value.args == ("weight vectors have different lengths",)
    curve = MarkedNodalCurve((Vertex(1, 0),), (), (Marker(1, 1),))
    with pytest.raises(CurveError) as exc:
        curve.vertex(9)
    assert exc.value.args == ("unknown vertex 9",)


def test_reduce_idempotent_and_weight_preserving():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        genera = [rng.choice([0, 0, 0, 1]) for _ in range(n)]
        plan = {}
        idx = 1
        for vid in range(1, n + 1):
            for _ in range(rng.randint(0, 3)):
                plan.setdefault(vid, []).append(idx)
                idx += 1
        curve = chain(genera, plan)
        w = WeightVector(tuple(F(rng.randint(0, 12), 12) for _ in range(idx - 1)))
        reduced = hassett_reduce(curve, w)
        assert hassett_reduce(reduced, w) == reduced
        assert len(reduced.markers) == len(curve.markers)
        assert sorted(m.index for m in reduced.markers) == sorted(
            m.index for m in curve.markers
        )


def test_reduce_factors_through_intermediate_weights():
    # Factorization through intermediate weights holds whenever the target
    # weights still admit a stable model; a total collapse to a point leaves
    # only an arbitrary label behind and is excluded.
    rng = random.Random(11)
    checked = 0
    for _ in range(120):
        n = rng.randint(2, 5)
        genera = [rng.choice([0, 0, 1]) for _ in range(n)]
        plan = {}
        idx = 1
        for vid in range(1, n + 1):
            for _ in range(rng.randint(0, 2)):
                plan.setdefault(vid, []).append(idx)
                idx += 1
        curve = chain(genera, plan)
        r = idx - 1
        B = WeightVector(tuple(F(rng.randint(6, 12), 12) for _ in range(r)))
        A = WeightVector(tuple(F(rng.randint(0, b.numerator * 12 // b.denominator), 12) for b in B.entries))
        direct = hassett_reduce(curve, A)
        degenerate = len(direct.vertices) == 1 and component_degree(
            direct, direct.vertices[0].vid, A
        ) <= 0
        if degenerate:
            continue
        via = hassett_reduce(hassett_reduce(curve, B), A)
        assert via == direct
        checked += 1
    assert checked >= 40


def test_reduce_order_independent_under_relabeling():
    # same curve, vertex ids permuted: reduced curves agree up to the relabeling
    base = chain([0, 0, 0], {1: [1], 3: [2]})
    w = WeightVector((F(1, 4), F(1, 4)))
    perm = {1: 3, 2: 1, 3: 2}
    relabeled = MarkedNodalCurve(
        tuple(Vertex(perm[v.vid], v.genus) for v in base.vertices),
        tuple((perm[a], perm[b]) for a, b in base.edges),
        tuple(Marker(m.index, perm[m.vertex]) for m in base.markers),
    )
    red_a = hassett_reduce(base, w)
    red_b = hassett_reduce(relabeled, w)
    assert len(red_a.vertices) == len(red_b.vertices) == 1
    assert sorted(m.index for m in red_a.markers) == sorted(m.index for m in red_b.markers)


def test_parallel_edges_become_self_loop():
    curve = MarkedNodalCurve(
        (Vertex(1, 0), Vertex(2, 0)),
        ((1, 2), (1, 2)),
        (Marker(1, 1), Marker(2, 1), Marker(3, 1)),
    )
    w = WeightVector((F(1), F(1), F(1)))
    # vertex 2 has degree -2 + 2 + 0 = 0: it collapses and the second edge closes up
    reduced = hassett_reduce(curve, w)
    assert len(reduced.vertices) == 1
    assert reduced.edges == ((1, 1),)


def test_degrees_match_the_per_vertex_oracle():
    # connected multigraphs with self-loops and parallel edges: every degree,
    # the stability test and the reduction agree with edge-by-edge counting
    rng = random.Random(29)
    loops = parallels = 0
    for _ in range(150):
        n = rng.randint(1, 7)
        vertices = tuple(Vertex(v, rng.choice([0, 0, 0, 1, 2])) for v in range(1, n + 1))
        edges = [(v, rng.randint(1, v - 1)) for v in range(2, n + 1)]
        for _ in range(rng.randint(0, 4)):
            a = rng.randint(1, n)
            edges.append((a, a) if rng.random() < 0.4 else (a, rng.randint(1, n)))
        loops += any(a == b for a, b in edges)
        parallels += len({tuple(sorted(e)) for e in edges}) < len(edges)
        r = rng.randint(0, 8)
        markers = tuple(Marker(i, rng.randint(1, n)) for i in range(1, r + 1))
        curve = MarkedNodalCurve(vertices, tuple(edges), markers)
        dens = [rng.choice([12, 7, 5]) for _ in range(r)]
        w = WeightVector(tuple(F(rng.randint(0, d), d) for d in dens))
        for v in curve.vertices:
            assert component_degree(curve, v.vid, w) == vertex_degree(curve, v.vid, w)
        stable = all(x > 0 for x in w.entries) and all(
            vertex_degree(curve, v.vid, w) > 0 for v in curve.vertices
        )
        assert is_hassett_stable(curve, w) == stable
        assert hassett_reduce(curve, w) == hassett_by_vertex(curve, w)
    assert loops >= 30 and parallels >= 30


def cascading_curve(rng, n):
    """A connected multigraph on n shuffled vertex ids, mostly of genus 0, with
    self-loops, parallel edges and light markers (zero weights included), so
    that its Hassett reduction contracts long runs of vertices."""
    ids = rng.sample(range(1, 3 * n), n)
    vertices = tuple(Vertex(v, rng.choice([0] * 8 + [1, 2])) for v in ids)
    edges = [(ids[k], ids[rng.randrange(k)]) for k in range(1, n)]
    for _ in range(rng.randint(0, n // 3)):
        a = rng.choice(ids)
        edges.append((a, a) if rng.random() < 0.3 else (a, rng.choice(ids)))
    edges += rng.sample(edges, rng.randint(1, 3))  # parallel copies
    r = rng.randint(0, n)
    markers = tuple(Marker(i, rng.choice(ids)) for i in range(1, r + 1))
    if rng.random() < 0.3:
        w = WeightVector((F(0),) * r)
    else:
        w = WeightVector(tuple(F(rng.choice([0, 0, 1, 1, 2, 5, 12]), 12) for _ in range(r)))
    return MarkedNodalCurve(vertices, tuple(edges), markers), w


def test_reduction_matches_the_per_vertex_oracle_on_long_cascades():
    # curves of 10-60 vertices whose reductions contract up to nearly every
    # vertex, one contraction at a time in the oracle, in one pass here
    rng = random.Random(31)
    cascades = zero = 0
    for _ in range(60):
        curve, w = cascading_curve(rng, rng.randint(10, 60))
        reduced = hassett_reduce(curve, w)
        assert reduced == hassett_by_vertex(curve, w)
        cascades += len(curve.vertices) - len(reduced.vertices) >= 10
        zero += not any(w.entries)
    assert cascades >= 30 and zero >= 10


def test_one_curve_reduces_at_many_weights_as_the_oracle_does():
    # the shape a curve keeps holds no weight: one curve object, reduced at
    # 60 weight vectors, agrees with the per-vertex oracle every time
    rng = random.Random(37)
    curve, _ = cascading_curve(rng, 40)
    r = len(curve.markers)
    assert r >= 10
    results = set()
    for k in range(60):
        w = WeightVector(tuple(F(rng.choice([0, 0, 1, 1, 2, 5, 7, 12]), 12) for _ in range(r)))
        reduced = hassett_reduce(curve, w)
        assert reduced == hassett_by_vertex(curve, w)
        assert is_hassett_stable(curve, w) == (reduced == curve and all(w.entries))
        if k == 0:
            shape = curve._shape
        assert curve._shape is shape
        results.add(reduced)
    assert len(results) >= 20


@pytest.mark.parametrize("bad", [0, -1, 3])
def test_marker_outside_the_weights_raises_the_weight_lookup_error(bad):
    # r = 2 weights; the marker index 0, -1 or r + 1 raises the KeyError of
    # WeightVector.weight, before and after the curve's shape is cached
    w = WeightVector((F(1, 2), F(1, 3)))
    with pytest.raises(KeyError) as lookup:
        w.weight(bad)
    curve = MarkedNodalCurve(
        (Vertex(1, 0), Vertex(2, 0)), ((1, 2),), (Marker(1, 1), Marker(2, 2), Marker(bad, 2))
    )
    calls = (
        lambda: hassett_reduce(curve, w),
        lambda: is_hassett_stable(curve, w),
        lambda: component_degree(curve, 1, w),
    )
    for _ in range(2):
        for call in calls:
            with pytest.raises(KeyError) as got:
                call()
            assert str(got.value) == str(lookup.value)
    assert "_shape" in curve.__dict__
    # a disconnected curve is still refused, with its shape cached too
    apart = MarkedNodalCurve((Vertex(1, 0), Vertex(2, 0)), (), (Marker(1, 1),))
    for _ in range(2):
        assert not apart.is_connected()
        with pytest.raises(CurveError):
            hassett_reduce(apart, w)


@pytest.mark.parametrize("bad", [0, -1, 3])
def test_one_vertex_curve_checks_its_marker_indices(bad):
    # a one-vertex curve is already reduced, but hassett_reduce still reads
    # its marker indices: 0, -1 or r + 1 raises as the other checks do
    w = WeightVector((F(1, 2), F(1, 3)))
    with pytest.raises(KeyError) as lookup:
        w.weight(bad)
    curve = MarkedNodalCurve((Vertex(1, 1),), (), (Marker(1, 1), Marker(bad, 1), Marker(2, 1)))
    for call in (hassett_reduce, is_hassett_stable, lambda c, v: component_degree(c, 1, v)):
        with pytest.raises(KeyError) as got:
            call(curve, w)
        assert str(got.value) == str(lookup.value)
    # in range, the curve comes back as it is
    ok = MarkedNodalCurve((Vertex(1, 1),), (), (Marker(1, 1), Marker(2, 1)))
    assert hassett_reduce(ok, w) is ok


def test_zero_weight_chain_reduces_to_one_vertex():
    # the stepwise loop took a new degree table and curve per contraction,
    # quadratic in the length of the chain
    n = 800
    curve = MarkedNodalCurve(
        tuple(Vertex(v, 0) for v in range(1, n + 1)),
        tuple((v, v + 1) for v in range(1, n)),
        tuple(Marker(v, v) for v in range(1, n + 1)),
    )
    # vertex 1 falls into 2, that class into 3, and so on up the chain
    reduced = hassett_reduce(curve, WeightVector((F(0),) * n))
    assert reduced.vertices == (Vertex(n, 0),)
    assert reduced.edges == ()
    assert {m.vertex for m in reduced.markers} == {n}


def test_one_reduction_builds_one_curve(monkeypatch):
    curve, w = cascading_curve(random.Random(5), 40)
    steps = len(curve.vertices) - len(hassett_by_vertex(curve, w).vertices)
    assert steps >= 10
    built = []
    new = MarkedNodalCurve.__new__

    def counted(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(MarkedNodalCurve, "__new__", counted)
    hassett_reduce(curve, w)
    assert len(built) == 1
    # a base curve is the curve before contraction plus at most one more,
    # however many type II vertices it contracts
    built.clear()
    assert len(base_curve(two_type_ii_chain()).vertices) == 2
    assert len(built) == 2
    built.clear()
    base_curve(rational_degeneration(F(3, 5)))
    assert len(built) == 1


def two_type_ii_chain():
    """left - mid1 - mid2 - right: two type II components between two
    elliptic ones, each glued along twisted fibers."""
    w = WeightVector((F(1),) * 4)

    def end(cid, fid, ftype):
        return AttachEnd(cid, fid, parse_fiber_type(ftype))

    left = Component("left", 1, 0, F(1), (mk_fiber("f1", "I1", 1, w), mk_fiber("f2", "I1", 2, w)))
    right = Component("right", 4, 0, F(1), (mk_fiber("f3", "I1", 3, w), mk_fiber("f4", "I1", 4, w)))
    mid1 = Component("mid1", 2, 0, F(1), (), has_section=False)
    mid2 = Component("mid2", 3, 1, F(1), (), has_section=False)
    glues = (
        Glue("g1", end("left", "a1", "II"), end("mid1", "b1", "II*")),
        Glue("g2", end("mid1", "b2", "IV"), end("mid2", "c1", "IV*")),
        Glue("g3", end("mid2", "c2", "II"), end("right", "a2", "II*")),
    )
    X = BrokenEllipticSurface(w, (left, mid1, mid2, right), glues)
    assert validate(X) == []
    return X


def random_multigraph(rng):
    """A curve of 1-30 vertices of genus 0-2 with self-loops and parallel
    edges; about one in ten is disconnected."""
    n = rng.randint(1, 30)
    ids = rng.sample(range(1, 3 * n + 1), n)
    vertices = tuple(Vertex(v, rng.choice([0, 0, 1, 2])) for v in ids)
    # ids[:split] and ids[split:] are each spanned by a tree
    split = rng.randrange(1, n) if n > 1 and rng.random() < 0.1 else n
    edges = [
        (ids[k], ids[rng.randrange(0 if k < split else split, k)]) for k in range(1, n) if k != split
    ]
    for _ in range(rng.randint(0, n // 2)):
        a = rng.choice(ids[:split])
        edges.append((a, a) if rng.random() < 0.3 else (a, rng.choice(ids[:split])))
    if edges:
        edges += rng.sample(edges, rng.randint(0, min(3, len(edges))))
    markers = tuple(Marker(i, rng.choice(ids)) for i in range(1, rng.randint(0, n) + 1))
    return MarkedNodalCurve(vertices, tuple(edges), markers)


def test_contraction_matches_the_stepwise_oracle_on_random_curves():
    # arbitrary pending sets, as base_curve passes its type II vertices:
    # one pass here, one `contract_into_neighbor` step at a time in the oracle
    rng = random.Random(16)
    genus_moved = loops = parallels = disconnected = skipped = 0
    for _ in range(400):
        curve = random_multigraph(rng)
        pending = {v.vid for v in curve.vertices if rng.random() < rng.random()}
        expected = contract_by_step(curve, pending)
        got = _contract(curve, set(pending))
        assert got == expected
        if not pending:
            assert got is curve
        genus_moved += any(v.genus != curve.vertex(v.vid).genus for v in got.vertices)
        loops += any(a == b for a, b in curve.edges)
        parallels += len(set(curve.edges)) < len(curve.edges)
        disconnected += not curve.is_connected()
        skipped += any(v.vid in pending for v in got.vertices)
    assert genus_moved >= 200 and loops >= 150 and parallels >= 200
    assert disconnected >= 20 and skipped >= 10


def test_interpolate_endpoints_and_midpoint():
    A = WeightVector((F(0), F(1, 3)))
    B = WeightVector((F(1), F(1)))
    assert interpolate(A, B, F(1)) == B
    assert interpolate(A, B, F(0)) == A
    mid = interpolate(A, B, F(1, 2))
    assert mid.entries == (F(1, 2), F(2, 3))


def test_json_round_trip():
    curve = chain([0, 1], {1: [1], 2: [2, 3]})
    again = curve_from_json(json.dumps(curve_to_obj(curve), indent=2))
    assert again == curve


def test_dot_is_deterministic():
    curve = chain([0, 0], {1: [1], 2: [2]})
    w = WeightVector((F(1, 2), F(1, 3)))
    assert curve_to_dot(curve, w) == curve_to_dot(curve, w)
    assert "v1 -- v2" in curve_to_dot(curve)


def test_weight_sum_equals_the_fraction_fold():
    rng = random.Random(2024)
    checked = 0
    for _ in range(60):
        r = rng.choice([1, 2, 5, 12, 60, 200])
        dens = [rng.choice([1, 2, 3, 12, 20, 120, 97]) for _ in range(r)]
        W = WeightVector(tuple(F(rng.randint(0, d), d) for d in dens))
        cases = [[], [rng.randint(1, r)], [1, 1], list(range(1, r + 1))]
        cases += [rng.choices(range(1, r + 1), k=rng.randint(2, r + 3)) for _ in range(5)]  # repeats
        cases += [rng.sample(range(1, r + 1), rng.randint(1, r)) for _ in range(5)]
        for indices in cases:
            # a list or an iterator counts repeats; a set holds each index once
            for form, listed in ((indices, indices), (iter(indices), indices), (frozenset(indices),) * 2):
                got = W.sum(form)
                assert type(got) is Fraction and got == weight_sum_fold(W, listed)
                checked += 1
        for bad in ([0], [r + 1], [1, -1], [r, r + 5, 0]):
            with pytest.raises(KeyError) as got:
                W.sum(bad)
            with pytest.raises(KeyError) as want:
                weight_sum_fold(W, bad)
            assert str(got.value) == str(want.value)
    assert checked >= 2000
