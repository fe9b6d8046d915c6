"""Singular-fiber classification data for elliptic fibrations.

Holds the Kodaira fiber type tags (plus the non-normal N-types of isotrivial
j-invariant-infinity fibrations), the log canonical thresholds at which a
marked fiber transitions between its Weierstrass, intermediate, and twisted
models, the local intersection numbers of a standard intermediate fiber, and
the canonical-bundle correction carried by non-Weierstrass additive fibers.

All thresholds are tabulated exactly and re-derivable from the intersection
numbers; `verify_threshold` performs that independent derivation.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple


class UnsupportedFiberType(Exception):
    """Raised for fiber types whose thresholds the engine does not model (N2)."""


class NoIntermediateModel(Exception):
    """Raised when local intersection data is requested for a fiber type
    that has no tabulated standard intermediate model."""


#: The wire text of each `FiberState`, indexed by the state.
STATE_NAMES = ("Weierstrass", "Intermediate", "Twisted")


class FiberState(IntEnum):
    """Model state of a marked fiber; the order tracks increasing coefficient.
    Its text is `STATE_NAMES[state]`, a fixed table the writers index too."""

    WEIERSTRASS = 0
    INTERMEDIATE = 1
    TWISTED = 2

    def __str__(self) -> str:
        return STATE_NAMES[self]


_PLAIN_FAMILIES = ("II", "III", "IV", "II*", "III*", "IV*", "N0", "N1", "N2")
_INDEXED_FAMILIES = ("I", "I*")


class _KodairaType(NamedTuple):
    family: str
    n: int | None


class KodairaType(_KodairaType):
    """A fiber type tag: an indexed family ("I", "I*") or a bare one.

    "I" with n = 0 is the smooth fiber I0, markable but never singular.
    """

    __slots__ = ()

    def __new__(cls, family, n=None):
        if family in _INDEXED_FAMILIES:
            if n is None or n < 0:
                raise ValueError(f"family {family} needs an index n >= 0")
        elif family in _PLAIN_FAMILIES:
            if n is not None:
                raise ValueError(f"family {family} takes no index")
        else:
            raise ValueError(f"unknown fiber family {family!r}")
        return tuple.__new__(cls, (family, n))

    def __str__(self) -> str:
        return self.family if self.n is None else f"{self.family}{self.n}"

    @property
    def is_smooth(self) -> bool:
        return self.family == "I" and self.n == 0

    @property
    def is_stable(self) -> bool:
        """Stable fibers: smooth or nodal (type I_n). These admit no twisted model."""
        return self.family == "I"


def parse_fiber_type(text: str) -> KodairaType:
    """Parse the string tags "I0", "I3", "II", "I*0", "II*", "N1", ..."""
    s = text.strip()
    if s.startswith("I*"):
        return KodairaType("I*", int(s[2:]))
    if s in _PLAIN_FAMILIES:
        return KodairaType(s)
    if s.startswith("I") and s[1:].isdigit():
        return KodairaType("I", int(s[1:]))
    raise ValueError(f"unrecognized fiber type {text!r}")


# Convenience constructors for the common tags.
def I(n: int) -> KodairaType:  # noqa: E743 - mathematical name
    return KodairaType("I", n)


def Istar(n: int) -> KodairaType:
    return KodairaType("I*", n)


II = KodairaType("II")
III = KodairaType("III")
IV = KodairaType("IV")
IIstar = KodairaType("II*")
IIIstar = KodairaType("III*")
IVstar = KodairaType("IV*")
N0 = KodairaType("N0")
N1 = KodairaType("N1")
N2 = KodairaType("N2")
I0 = I(0)


# Thresholds a0 at which the relative log canonical model stops being the
# Weierstrass model.  Types I_n and N0 stay Weierstrass for every coefficient.
_LCT: dict[str, Fraction] = {
    "II": Fraction(5, 6),
    "III": Fraction(3, 4),
    "IV": Fraction(2, 3),
    "N1": Fraction(1, 2),
    "II*": Fraction(1, 6),
    "III*": Fraction(1, 4),
    "IV*": Fraction(1, 3),
    "I*": Fraction(1, 2),
}

#: The distinct non-boundary threshold constants, ascending.
THRESHOLD_CONSTANTS: tuple[Fraction, ...] = tuple(sorted(set(_LCT.values())))


def lct_threshold(ftype: KodairaType) -> Fraction | None:
    """The coefficient a0 bounding the Weierstrass range [0, a0] of a minimal
    marked fiber, or None for types that are Weierstrass at every coefficient.
    """
    if ftype.family == "N2":
        raise UnsupportedFiberType("thresholds for N2 fibers are not modeled")
    return _LCT.get(ftype.family)


def fiber_model_at(ftype: KodairaType, a: Fraction) -> FiberState:
    """Model state of a minimal marked fiber of the given type at coefficient a.

    The boundary a = a0 belongs to the Weierstrass range; the twisted model
    occurs exactly at a = 1 for types with a threshold.  With a = p/q (q > 0,
    as for a `Fraction` or an `int`) every test compares integers.
    """
    p, q = a.numerator, a.denominator
    if not 0 <= p <= q:
        raise ValueError(f"coefficient {a} outside [0, 1]")
    a0 = lct_threshold(ftype)
    if a0 is None or p * a0.denominator <= a0.numerator * q:
        return FiberState.WEIERSTRASS
    if p < q:
        return FiberState.INTERMEDIATE
    return FiberState.TWISTED


def is_settled(ftype: KodairaType, a: Fraction, state: FiberState) -> bool:
    """Whether `state` is a log canonical model of a minimal marked fiber at
    coefficient a: the state `fiber_model_at` gives, or at a = 1 also the
    intermediate model of a type with a threshold, which stands for the model
    just below one.  `fiber_model_at` gives the twisted model only at a = 1,
    so no coefficient is compared here."""
    want = fiber_model_at(ftype, a)
    return state == want or (want == FiberState.TWISTED and state == FiberState.INTERMEDIATE)


class _IntersectionData(NamedTuple):
    A_sq: Fraction
    E_sq: Fraction
    AE: Fraction
    mult: int


class IntersectionData(_IntersectionData):
    """Local pairings in a standard intermediate fiber A + E.

    A is the reduced component meeting the section, E supports the arithmetic
    genus one part; `mult` is the multiplicity of E in the full fiber.
    """

    __slots__ = ()

    def __new__(cls, A_sq, E_sq, AE, mult):
        if not (A_sq < 0 and E_sq < 0 and AE > 0 and mult >= 1):
            raise ValueError("intersection data fails sign constraints")
        return tuple.__new__(cls, (A_sq, E_sq, AE, mult))


_INTERSECTIONS: dict[str, IntersectionData] = {
    "I*": IntersectionData(Fraction(-2), Fraction(-1, 2), Fraction(1), 2),
    "II": IntersectionData(Fraction(-6), Fraction(-1, 6), Fraction(1), 6),
    "III": IntersectionData(Fraction(-4), Fraction(-1, 4), Fraction(1), 4),
    "IV": IntersectionData(Fraction(-3), Fraction(-1, 3), Fraction(1), 3),
    "II*": IntersectionData(Fraction(-6, 5), Fraction(-1, 30), Fraction(1, 5), 6),
    "III*": IntersectionData(Fraction(-4, 3), Fraction(-1, 12), Fraction(1, 3), 4),
    "IV*": IntersectionData(Fraction(-3, 2), Fraction(-1, 6), Fraction(1, 2), 3),
}


def intersection_data(ftype: KodairaType) -> IntersectionData:
    """The tabulated quadruple (A^2, E^2, A.E, mult) for the given type."""
    if ftype.family == "N2":
        raise UnsupportedFiberType("N2 fibers have no tabulated intermediate model")
    data = _INTERSECTIONS.get(ftype.family)
    if data is None:
        raise NoIntermediateModel(f"type {ftype} has no standard intermediate fiber")
    return data


_CANONICAL_ALPHA = {"II": Fraction(4), "III": Fraction(2), "IV": Fraction(1)}


def canonical_contribution(ftype: KodairaType, state: FiberState) -> Fraction:
    """Coefficient of E in the canonical-bundle correction for this fiber.

    Only additive fibers of type II, III, IV that are not in Weierstrass form
    contribute; everything else gives zero.
    """
    if state == FiberState.WEIERSTRASS:
        return Fraction(0)
    return _CANONICAL_ALPHA.get(ftype.family, Fraction(0))


def verify_threshold(ftype: KodairaType) -> Fraction:
    """Re-derive a0 from the intersection table.

    At the transition coefficient the degree of the log canonical divisor on E
    vanishes: with K.E = alpha * E^2 and S.E = 0,

        (K + S + a*A + E).E = (alpha + 1) * E^2 + a * A.E = 0.

    The solution must agree with `lct_threshold` exactly.
    """
    data = intersection_data(ftype)
    alpha = canonical_contribution(ftype, FiberState.INTERMEDIATE)
    return -(alpha + 1) * data.E_sq / data.AE
