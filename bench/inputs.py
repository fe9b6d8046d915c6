"""Seeded input generator for the benchmark.

Everything here is self-contained: the generator does not import the package
or the test helpers, so neither a change to the program nor an edit to the
tests can shift the inputs.  Models are built as JSON-ready dicts in the
package's wire format; weights are `Fraction`s that the workloads turn into
"p/q" strings.  The program sees only the generated JSON and weight strings.

Every generator takes a `random.Random` and draws from nothing else, so one
seed gives one input stream.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

F = Fraction

# Log canonical thresholds a0 of the fiber families that have one (the
# Weierstrass range is [0, a0]); I_n, I0 and N0 are Weierstrass throughout.
THRESHOLDS = {
    "II": F(5, 6),
    "III": F(3, 4),
    "IV": F(2, 3),
    "N1": F(1, 2),
    "I*": F(1, 2),
    "II*": F(1, 6),
    "III*": F(1, 4),
    "IV*": F(1, 3),
}
# The distinct threshold constants; every subset sum equal to one of them is a
# WIII wall.
CONSTANTS = sorted(set(THRESHOLDS.values()))

MARKABLE = ["I1", "I2", "I3", "I0", "II", "III", "IV", "I*0", "II*", "III*", "IV*", "N1"]
TWISTABLE = ["II", "III", "IV", "I*0", "I*1", "II*", "III*", "IV*"]


def threshold(ftype: str) -> Fraction | None:
    return THRESHOLDS.get("I*" if ftype.startswith("I*") else ftype)


def state_at(ftype: str, a: Fraction) -> str:
    """Model state of a minimal marked fiber at coefficient a."""
    a0 = threshold(ftype)
    if a0 is None or a <= a0:
        return "Weierstrass"
    return "Intermediate" if a < 1 else "Twisted"


def rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def weight_arg(weights) -> str:
    """A weight vector as the command line's comma-separated rationals."""
    return ",".join(rat(w) for w in weights)


def _grid(rng: random.Random, lo: Fraction, hi: Fraction, den: int = 12) -> Fraction:
    """A random multiple of 1/den in [lo, hi]; hi itself when none fits."""
    lo_n = -((-lo.numerator * den) // lo.denominator)
    hi_n = (hi.numerator * den) // hi.denominator
    return hi if hi_n < lo_n else F(rng.randint(lo_n, hi_n), den)


# -- arrangement --------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One `walls --segment` query: fiber types, base flag, and the segment
    from `upper` (t = 1) down to `lower` (t = 0) with its `midpoint`."""

    types: tuple[str, ...]
    rational_base: bool
    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]
    midpoint: tuple[Fraction, ...]

    @property
    def r(self) -> int:
        return len(self.types)


def segment(rng: random.Random, r: int, rational_base: bool, moving: int) -> Segment:
    """A degeneration-path segment on r markers where `moving` coordinates
    drop and the rest stay fixed."""
    types = tuple(rng.choice(MARKABLE) for _ in range(r))
    upper = [F(rng.randint(2, 60), 60) for _ in range(r)]
    lower = list(upper)
    for i in rng.sample(range(r), moving):
        lower[i] = F(rng.randint(1, upper[i].numerator * 60 // upper[i].denominator - 1), 60)
    mid = tuple((a + b) / 2 for a, b in zip(lower, upper))
    return Segment(types, rational_base, tuple(lower), tuple(upper), mid)


# -- random stable models -----------------------------------------------------


def _fiber(fid: str, ftype: str, markers: list[int], coeff: Fraction, state: str | None = None) -> dict:
    return {
        "id": fid,
        "type": ftype,
        "coeff": rat(coeff),
        "state": state or state_at(ftype, coeff),
        "markers": sorted(markers),
    }


def _end(cid: str, fid: str, ftype: str) -> dict:
    return {"component": cid, "fiber": fid, "type": ftype}


def _component(cid: str, vertex: int, genus: int, degL: int, fibers: list[dict]) -> dict:
    return {
        "id": cid,
        "kind": "elliptic",
        "vertex": vertex,
        "genus": genus,
        "degL": str(degL),
        "isotrivial_jinf": False,
        "fibers": fibers,
    }


@dataclass(frozen=True)
class ModelCase:
    """A model in wire format, its JSON text, and the target of its walk."""

    model: dict
    target: tuple[Fraction, ...]
    text: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "text", json.dumps(self.model, indent=2))


def random_model(
    rng: random.Random, max_components: int = 5, max_markers: int = 12, isotrivial_tree: bool = False
) -> dict:
    """A random stable broken surface at its own weights.

    The components form a random tree of twisted gluings, every section
    degree 2g - 2 + valence + (marked weight) is strictly positive, and a
    hosted pseudoelliptic tree (sometimes an isotrivial j-infinity one with
    trivial fundamental line bundle, which collapses onto a curve) carries
    marked weight strictly above its host threshold.  `isotrivial_tree`
    forces such a collapsing tree.
    """
    n = rng.randint(1, max_components)
    parent = {k: rng.randint(1, k - 1) for k in range(2, n + 1)}
    valence = {k: 0 for k in range(1, n + 1)}
    for k, p in parent.items():
        valence[k] += 1
        valence[p] += 1
    weights: list[Fraction] = []
    components = []
    attachments = []
    for k in range(1, n + 1):
        cid = f"c{k}"
        genus = rng.choice([0, 0, 0, 1])
        need = -(2 * genus - 2 + valence[k])  # marked weight must exceed this
        fibers = []
        total = F(0)
        # genus 0 leaves need two markers; stop early when the budget is spent
        while not fibers or total <= need:
            if len(weights) >= max_markers - 2 * (n - k):
                break
            w = F(1) if total + 1 <= need else _grid(rng, max(need - total, F(0)) + F(1, 12), F(1))
            weights.append(w)
            total += w
            fibers.append(_fiber(f"{cid}m{len(fibers) + 1}", rng.choice(MARKABLE), [len(weights)], w))
        if total <= need:  # out of markers: make the component positive with genus
            genus = 1
        components.append(_component(cid, k, genus, rng.randint(1, 3), fibers))
        if k in parent:
            p = parent[k]
            attachments.append(
                {
                    "id": f"g{k}",
                    "a": _end(f"c{p}", f"c{p}att{k}", rng.choice(TWISTABLE)),
                    "b": _end(cid, f"{cid}att", rng.choice(TWISTABLE)),
                }
            )
    trees = []
    if (isotrivial_tree or rng.random() < 0.6) and len(weights) + 2 <= max_markers:
        host = rng.choice(components)
        host_type = rng.choice(TWISTABLE)
        total = _grid(rng, threshold(host_type) + F(1, 12), F(1))
        i1, i2 = len(weights) + 1, len(weights) + 2
        weights += [total / 2, total / 2]
        isotrivial = isotrivial_tree or rng.random() < 0.3
        pool = ["I0"] if isotrivial else ["I1", "I0", "II*", "III*"]
        pid = f"p{host['id']}"
        host["fibers"].append(
            _fiber(f"{host['id']}host", host_type, [i1, i2], total, "Intermediate")
        )
        trees.append(
            {
                "host": host["id"],
                "host_fiber": f"{host['id']}host",
                "root": {
                    "id": pid,
                    "degL": "0" if isotrivial else str(rng.randint(1, 2)),
                    "attach_type": rng.choice(TWISTABLE),
                    "fibers": [
                        _fiber(f"{pid}m1", rng.choice(pool), [i1], total / 2),
                        _fiber(f"{pid}m2", rng.choice(pool), [i2], total / 2),
                    ],
                    "children": [],
                    **({"isotrivial_jinf": True} if isotrivial else {}),
                },
            }
        )
    for c in components:
        c["fibers"].sort(key=lambda f: f["id"])
    return {
        "weights": [rat(w) for w in weights],
        "components": components,
        "attachments": attachments,
        "trees": trees,
    }


def can_halt(model: dict) -> bool:
    """Whether a walk of the model can halt: only a tree node flagged as an
    isotrivial j-infinity quotient with trivial fundamental line bundle
    collapses onto a curve."""

    def nodes(node: dict):
        yield node
        for link in node.get("children", []):
            yield from nodes(link["node"])

    return any(
        n.get("isotrivial_jinf") and n["degL"] == "0" for t in model["trees"] for n in nodes(t["root"])
    )


def admissible(model: dict, target) -> bool:
    """Whether a stable model exists at the target: the weighted base curve,
    a tree of total genus g, keeps positive degree exactly when
    2g - 2 + (total weight) > 0."""
    return 2 * sum(c["genus"] for c in model["components"]) - 2 + sum(target) > 0


def admissible_target(rng: random.Random, model: dict) -> tuple[Fraction, ...]:
    """A positive admissible target entrywise below the start."""
    start = [F(w) for w in model["weights"]]
    while True:
        target = tuple(F(rng.randint(1, max(w.numerator * 12 // w.denominator, 1)), 12) for w in start)
        if admissible(model, target):
            return target


def model_case(rng: random.Random) -> ModelCase:
    model = random_model(rng)
    return ModelCase(model, admissible_target(rng, model))


def halting_case(rng: random.Random) -> ModelCase:
    """A walk that halts: an isotrivial tree with trivial fundamental line
    bundle is lowered to its host threshold and collapses onto a curve."""
    while True:
        model = random_model(rng, max_components=3, max_markers=10, isotrivial_tree=True)
        if not model["trees"]:
            continue
        target = list(admissible_target(rng, model))
        host_fiber = model["trees"][0]["host_fiber"]
        host = next(f for c in model["components"] for f in c["fibers"] if f["id"] == host_fiber)
        for i in host["markers"]:
            target[i - 1] = F(1, 24)
        if admissible(model, target):
            return ModelCase(model, tuple(target))


def irreducible_model(rng: random.Random) -> dict:
    """One elliptic component, no gluings or trees, every marked fiber below
    coefficient one: the shape `volume` takes."""
    fibers = []
    for j in range(1, rng.randint(1, 6) + 1):
        w = F(rng.randint(1, 11), 12)
        fibers.append(_fiber(f"f{j}", rng.choice(MARKABLE), [j], w))
    return {
        "weights": [f["coeff"] for f in fibers],
        "components": [_component("c1", 1, rng.randint(0, 2), rng.randint(1, 3), fibers)],
        "attachments": [],
        "trees": [],
    }


def has_volume(model: dict) -> bool:
    """Whether `volume` has what it needs: an N1 fiber in its intermediate
    range has no tabulated local pairings, so the command may exit 1 there."""
    return not any(
        f["type"] == "N1" and f["state"] == "Intermediate" for c in model["components"] for f in c["fibers"]
    )


# -- long chains --------------------------------------------------------------


def chain_case(rng: random.Random, n: int, k: int) -> ModelCase:
    """A path of n genus-0 elliptic components glued along twisted fibers.

    Every component carries two nodal (I1) markers of weight 3/4 each, so a
    component stays stable after its neighbour flips away and the walk only
    flips where the target asks it to.  A flipped leaf hangs off its
    neighbour as a tree whose weight still counts on that neighbour's
    section, so the target lowers the 2k markers of the first k components
    to a total below one: the walk then cascades through k La Nave flips
    from the leaf c1 inwards.  Every gluing is II* ~ II, as on the paper's
    worked degeneration, so each flipped tree sits below its II host's
    threshold and collapses to a point: every chain of one size walks
    through the same 2k events, and only their times depend on the seed.
    """
    weights: list[Fraction] = []
    components = []
    attachments = []
    for j in range(1, n + 1):
        cid = f"c{j}"
        fibers = []
        for slot in (1, 2):
            weights.append(F(3, 4))
            fibers.append(_fiber(f"{cid}m{slot}", "I1", [len(weights)], F(3, 4)))
        components.append(_component(cid, j, 0, 1, fibers))
        if j > 1:
            attachments.append(
                {
                    "id": f"g{j}",
                    "a": _end(f"c{j - 1}", f"c{j - 1}next", "II*"),
                    "b": _end(cid, f"{cid}prev", "II"),
                }
            )
    target = list(weights)
    for i in range(2 * k):
        target[i] = F(rng.randint(1, 3), 8 * k)
    model = {
        "weights": [rat(w) for w in weights],
        "components": components,
        "attachments": attachments,
        "trees": [],
    }
    return ModelCase(model, tuple(target))
