"""The wall-and-chamber structure of the weight cube, on a small example.

Three markers: a nodal fiber, a cuspidal (type II) fiber, and a type I*0
fiber over a rational base.  The script enumerates the full arrangement,
locates a few weight vectors, and scans a segment for its crossings.

Run:  python demos/wall_gallery.py
"""

from collections import Counter
from fractions import Fraction

from mmp_elliptic.curves import WeightVector
from mmp_elliptic.kodaira import parse_fiber_type
from mmp_elliptic.rationals import rat_to_str
from mmp_elliptic.walls import enumerate_walls, locate, segment_walls, walls_containing

F = Fraction


def main() -> None:
    types = [parse_fiber_type(t) for t in ("I1", "II", "I*0")]
    walls = enumerate_walls(3, types, rational_base=True)
    counts = Counter(w.kind.value for w in walls)
    print(f"arrangement for markers (I1, II, I*0) over a rational base: {len(walls)} walls")
    print(f"  by kind: {dict(counts)}\n")

    print("the walls on single coordinates (fiber-model transitions):")
    for w in walls:
        if w.kind.value == "WI":
            print(f"  {w}")

    for point in (WeightVector((F(1, 2), F(9, 10), F(1, 5))), WeightVector((F(1, 2), F(1, 2), F(1, 2)))):
        ch = locate(point, walls)
        ons = ch.on_walls()
        tag = "interior of a chamber" if ch.interior() else f"on {len(ons)} wall(s)"
        print(f"\nweights ({', '.join(rat_to_str(e) for e in point.entries)}): {tag}")
        for w in ons[:6]:
            print(f"  on {w}")

    B = WeightVector((F(1), F(1), F(1)))
    A = WeightVector((F(1, 6), F(1, 6), F(1, 6)))
    print("\nscanning the segment from (1,1,1) down to (1/6,1/6,1/6):")
    print(f"  on walls at the start: {len(walls_containing(B, walls))}")
    for crossing in segment_walls(A, B, walls):
        at = tuple(rat_to_str((1 - crossing.t) * a + crossing.t * b) for a, b in zip(A.entries, B.entries))
        kinds = Counter(w.kind.value for w in crossing.walls_hit)
        print(f"  t = {rat_to_str(crossing.t):>5} weights {at}: {sum(kinds.values())} wall(s) {dict(kinds)}")
    print(f"  on walls at the end: {len(walls_containing(A, walls))}")


if __name__ == "__main__":
    main()
