"""Tour of the single-fiber layer: thresholds, intersection numbers, and the
Weierstrass / intermediate / twisted model of a marked fiber as its
coefficient varies.

Run:  python demos/fiber_models_tour.py
"""

from fractions import Fraction

from mmp_elliptic.kodaira import (
    FiberState,
    canonical_contribution,
    fiber_model_at,
    intersection_data,
    lct_threshold,
    parse_fiber_type,
    verify_threshold,
)
from mmp_elliptic.rationals import rat_to_str

F = Fraction

TABLE_TYPES = ["I*0", "II", "III", "IV", "II*", "III*", "IV*"]
ALL_TYPES = ["I0", "I1", "I5", "II", "III", "IV", "I*0", "I*3", "II*", "III*", "IV*", "N0", "N1"]


def main() -> None:
    print("Thresholds: the marked coefficient at which the Weierstrass model")
    print("stops being the relative log canonical model.\n")
    print(f"{'type':>6} | {'a0':>5}")
    print("-" * 16)
    for tag in ALL_TYPES:
        a0 = lct_threshold(parse_fiber_type(tag))
        print(f"{tag:>6} | {rat_to_str(a0) if a0 is not None else '--':>5}")
    print("\n('--' means the Weierstrass model persists for every coefficient.)\n")

    print("Local pairings in a standard intermediate fiber A + E, and the")
    print("re-derived threshold solving (K + S + aA + E).E = 0:\n")
    print(f"{'type':>6} | {'A^2':>5} {'E^2':>6} {'A.E':>5} {'mult':>4} | {'derived a0':>10}")
    print("-" * 48)
    for tag in TABLE_TYPES:
        t = parse_fiber_type(tag)
        d = intersection_data(t)
        derived = verify_threshold(t)
        agree = "ok" if derived == lct_threshold(t) else "MISMATCH"
        print(
            f"{tag:>6} | {rat_to_str(d.A_sq):>5} {rat_to_str(d.E_sq):>6}"
            f" {rat_to_str(d.AE):>5} {d.mult:>4} | {rat_to_str(derived):>10} {agree}"
        )

    print("\nModel states of a type II marked fiber along the coefficient line:")
    for num in (0, 2, 5, 10, 11, 12):
        a = F(num, 12)
        state = fiber_model_at(parse_fiber_type("II"), a)
        extra = ""
        if state != FiberState.WEIERSTRASS:
            alpha = canonical_contribution(parse_fiber_type("II"), state)
            extra = f"  (canonical-bundle excess {rat_to_str(alpha)} on E)"
        print(f"  a = {rat_to_str(a):>5}: {state}{extra}")


if __name__ == "__main__":
    main()
