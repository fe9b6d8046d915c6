"""Builders for broken-surface test models.

`rational_degeneration` is the two-component central fiber of a degeneration
of a rational elliptic surface with twelve marked nodal fibers: ten carry
weight one next to a type II twisted attaching fiber, two carry weight alpha
next to a type II* twisted attaching fiber.  `flipped_degeneration` is the
same model after the section of the second component has contracted.
`random_model` grows stable broken surfaces for fuzzing, and `chain_cascade`
builds long chains that flip from the leaf inwards.
"""

from __future__ import annotations

import random
from fractions import Fraction

from mmp_elliptic.curves import WeightVector
from mmp_elliptic.kodaira import (
    FiberState,
    KodairaType,
    fiber_model_at,
    lct_threshold,
    parse_fiber_type,
)
from mmp_elliptic.surfaces import (
    AttachEnd,
    BrokenEllipticSurface,
    Component,
    Glue,
    MarkedFiber,
    PseudoComponent,
    TreeAttachment,
)

F = Fraction


def mk_fiber(fid: str, ftype: str | KodairaType, marker: int, weights: WeightVector) -> MarkedFiber:
    t = parse_fiber_type(ftype) if isinstance(ftype, str) else ftype
    a = weights.weight(marker)
    return MarkedFiber(fid, t, a, fiber_model_at(t, a), frozenset({marker}))


def rational_degeneration(alpha: Fraction) -> BrokenEllipticSurface:
    weights = WeightVector(tuple([F(1)] * 10 + [alpha, alpha]))
    c1 = Component(
        "c1",
        vertex=1,
        genus=0,
        degL=F(1),
        fibers=tuple(mk_fiber(f"f{i}", "I1", i, weights) for i in range(1, 11)),
    )
    c2 = Component(
        "c2",
        vertex=2,
        genus=0,
        degL=F(1),
        fibers=tuple(mk_fiber(f"f{i}", "I1", i, weights) for i in (11, 12)),
    )
    glue = Glue("g1", AttachEnd("c1", "a1", parse_fiber_type("II")), AttachEnd("c2", "a2", parse_fiber_type("II*")))
    return BrokenEllipticSurface(weights, (c1, c2), (glue,), ())


def flipped_degeneration(alpha: Fraction) -> BrokenEllipticSurface:
    """The post-flip model: one elliptic component hosting a pseudoelliptic
    tree on an intermediate fiber of type II with derived coefficient 2*alpha.
    Valid for 5/12 < alpha <= 1/2."""
    weights = WeightVector(tuple([F(1)] * 10 + [alpha, alpha]))
    host_fiber = MarkedFiber(
        "a1",
        parse_fiber_type("II"),
        2 * alpha,
        FiberState.INTERMEDIATE,
        frozenset({11, 12}),
    )
    c1 = Component(
        "c1",
        vertex=1,
        genus=0,
        degL=F(1),
        fibers=tuple(mk_fiber(f"f{i}", "I1", i, weights) for i in range(1, 11)) + (host_fiber,),
    )
    root = PseudoComponent(
        "c2",
        degL=F(1),
        attach_ftype=parse_fiber_type("II*"),
        fibers=tuple(mk_fiber(f"f{i}", "I1", i, weights) for i in (11, 12)),
    )
    return BrokenEllipticSurface(weights, (c1,), (), (TreeAttachment("c1", "a1", root),))


MARKABLE = ["I1", "I2", "I3", "I0", "II", "III", "IV", "I*0", "II*", "III*", "IV*", "N1"]
TWISTABLE = ["II", "III", "IV", "I*0", "I*1", "II*", "III*", "IV*"]


def _rand_weight(rng: random.Random, lo: Fraction, hi: Fraction, den: int = 12) -> Fraction:
    lo_n = int(lo * den) + (0 if lo * den == int(lo * den) else 1)
    hi_n = int(hi * den)
    if hi_n < lo_n:
        return hi
    return F(rng.randint(lo_n, hi_n), den)


def random_model(
    rng: random.Random,
    max_components: int = 5,
    max_markers: int = 8,
    allow_trees: bool = True,
    allow_isotrivial: bool = False,
) -> BrokenEllipticSurface:
    """A random valid broken surface, stable at its own weights.

    Components form a random tree of twisted gluings; every section degree is
    strictly positive at the start weights, and hosted pseudoelliptic trees
    carry marked weight strictly above their host threshold.
    """
    n = rng.randint(1, max_components)
    weights: list[Fraction] = []
    comps: list[Component] = []
    glues: list[Glue] = []
    trees: list[TreeAttachment] = []

    def new_marker(w: Fraction) -> int:
        weights.append(w)
        return len(weights)

    def marker_bound(parent_map: dict[int, int | None]) -> int:
        # a leaf needs two stabilizing markers, everything else one
        degree = {k: 0 for k in parent_map}
        for k, p in parent_map.items():
            if p:
                degree[k] += 1
                degree[p] += 1
        if len(parent_map) == 1:
            return 3
        return sum(2 if degree[k] <= 1 else 1 for k in parent_map)

    parents: dict[int, int | None] = {1: None}
    for k in range(2, n + 1):
        parents[k] = rng.randint(1, k - 1)
    if marker_bound(parents) > max_markers:
        parents = {k: (k - 1 if k > 1 else None) for k in range(1, n + 1)}
    while marker_bound(parents) > max_markers and n > 1:
        n -= 1
        parents.pop(n + 1)
    kids: dict[int, list[int]] = {k: [] for k in range(1, n + 1)}
    for k in range(2, n + 1):
        kids[parents[k]].append(k)

    for k in range(1, n + 1):
        cid = f"c{k}"
        valence = (1 if parents[k] else 0) + len(kids[k])
        genus = rng.choice([0, 0, 0, 1]) if valence else rng.choice([0, 1])
        fibers: list[MarkedFiber] = []
        # just enough marked weight to keep the section degree positive
        need = -(2 * genus - 2 + valence)
        total = F(0)
        slot = 0
        while slot == 0 or total <= need:
            slot += 1
            if total + 1 <= need:
                w = F(1)
            else:
                lo = need - total if need > total else F(0)
                w = _rand_weight(rng, lo + F(1, 12), F(1))
            idx = new_marker(w)
            total += w
            ftype = rng.choice(MARKABLE)
            fibers.append(
                MarkedFiber(
                    f"c{k}m{slot}",
                    parse_fiber_type(ftype),
                    w,
                    fiber_model_at(parse_fiber_type(ftype), w),
                    frozenset({idx}),
                )
            )
        comps.append(
            Component(cid, vertex=k, genus=genus, degL=F(rng.randint(1, 3)), fibers=tuple(fibers))
        )
        if parents[k]:
            glues.append(
                Glue(
                    f"g{k}",
                    AttachEnd(f"c{parents[k]}", f"c{parents[k]}att{k}", parse_fiber_type(rng.choice(TWISTABLE))),
                    AttachEnd(cid, f"c{k}att", parse_fiber_type(rng.choice(TWISTABLE))),
                )
            )

    if allow_trees and rng.random() < 0.6 and len(weights) + 2 <= max_markers:
        host_idx = rng.randint(0, n - 1)
        host = comps[host_idx]
        host_type = parse_fiber_type(rng.choice(TWISTABLE))
        c = lct_threshold(host_type)
        total = _rand_weight(rng, c + F(1, 12), F(1))
        w1 = total / 2
        i1 = new_marker(w1)
        i2 = new_marker(total - w1)
        wv = WeightVector(tuple(weights))
        isotrivial = allow_isotrivial and rng.random() < 0.3
        node_pool = ["I0"] if isotrivial else ["I1", "I0", "II*", "III*"]
        root = PseudoComponent(
            f"p{host.cid}",
            degL=F(0) if isotrivial else F(rng.randint(1, 2)),
            attach_ftype=parse_fiber_type(rng.choice(TWISTABLE)),
            fibers=(
                mk_fiber(f"p{host.cid}m1", rng.choice(node_pool), i1, wv),
                mk_fiber(f"p{host.cid}m2", rng.choice(node_pool), i2, wv),
            ),
            isotrivial_jinf=isotrivial,
        )
        host_fiber = MarkedFiber(
            f"{host.cid}host", host_type, total, FiberState.INTERMEDIATE, frozenset({i1, i2})
        )
        comps[host_idx] = Component(
            host.cid, host.vertex, host.genus, host.degL, host.fibers + (host_fiber,)
        )
        trees.append(TreeAttachment(host.cid, f"{host.cid}host", root))

    return BrokenEllipticSurface(
        WeightVector(tuple(weights)), tuple(comps), tuple(glues), tuple(trees)
    )


def chain_cascade(rng, n, k):
    """A path of n components, each with two I1 markers at 3/4, glued II* ~ II,
    and a target that lowers the first 2k markers: k La Nave flips from the
    leaf inwards, each flipped tree collapsing to a point."""
    w = WeightVector(tuple([F(3, 4)] * (2 * n)))
    comps = [
        Component(f"c{j}", j, 0, F(1), tuple(mk_fiber(f"c{j}m{s}", "I1", 2 * j - 2 + s, w) for s in (1, 2)))
        for j in range(1, n + 1)
    ]
    glues = [
        Glue(f"g{j}", AttachEnd(f"c{j - 1}", f"c{j - 1}next", parse_fiber_type("II*")),
             AttachEnd(f"c{j}", f"c{j}prev", parse_fiber_type("II")))
        for j in range(2, n + 1)
    ]
    target = [F(rng.randint(1, 3), 8 * k) for _ in range(2 * k)] + list(w.entries[2 * k:])
    return BrokenEllipticSurface(w, tuple(comps), tuple(glues)), WeightVector(tuple(target))


def random_target(rng: random.Random, start: WeightVector, den: int = 12) -> WeightVector:
    """A random positive weight vector entrywise below the start."""
    out = []
    for w in start.entries:
        hi = int(w * den)
        out.append(F(rng.randint(1, max(hi, 1)), den))
    return WeightVector(tuple(out))


def admissible(X: BrokenEllipticSurface, A: WeightVector) -> bool:
    """Whether a stable model still exists at target A.

    Outside the admissible weight domain every component collapses and only
    an arbitrary label survives, so reduction targets are screened through
    the weighted-curve side: the reduced base curve must keep a component of
    positive degree.  The base curve marks each marker-less fiber after the
    model's markers, so the target is extended by their fixed coefficients,
    as `base_weights` extends the model's weights.
    """
    from mmp_elliptic.curves import component_degree, hassett_reduce
    from mmp_elliptic.surfaces import base_curve, base_weights

    at = WeightVector(A.entries + base_weights(X).entries[X.weights.r :])
    red = hassett_reduce(base_curve(X), at)
    return len(red.vertices) > 1 or component_degree(red, red.vertices[0].vid, at) > 0


def admissible_target(
    rng: random.Random, X: BrokenEllipticSurface, tries: int = 60
) -> WeightVector | None:
    """A random target for which a stable model still exists (`admissible`),
    or None after `tries` draws."""
    for _ in range(tries):
        A = random_target(rng, X.weights)
        if admissible(X, A):
            return A
    return None
