import random
import re
from fractions import Fraction

import pytest

from mmp_elliptic.kodaira import (
    FiberState,
    I,
    I0,
    II,
    IIIstar,
    IIstar,
    III,
    IV,
    IVstar,
    Istar,
    KodairaType,
    N0,
    N1,
    N2,
    NoIntermediateModel,
    UnsupportedFiberType,
    canonical_contribution,
    fiber_model_at,
    intersection_data,
    is_settled,
    lct_threshold,
    parse_fiber_type,
    verify_threshold,
)

from modelkit import MARKABLE, TWISTABLE
from oracles import fiber_graph, fiber_model_by_fractions, is_settled_by_fractions, resolved_fiber

F = Fraction


THRESHOLDS = {
    II: F(5, 6),
    III: F(3, 4),
    IV: F(2, 3),
    N1: F(1, 2),
    IIstar: F(1, 6),
    IIIstar: F(1, 4),
    IVstar: F(1, 3),
    Istar(0): F(1, 2),
    Istar(4): F(1, 2),
}


@pytest.mark.parametrize("ftype,expected", sorted(THRESHOLDS.items(), key=lambda kv: str(kv[0])))
def test_threshold_table(ftype, expected):
    assert lct_threshold(ftype) == expected


@pytest.mark.parametrize("ftype", [I(1), I(5), I0, N0])
def test_no_threshold_types(ftype):
    assert lct_threshold(ftype) is None


def test_n2_has_no_intersection_data():
    with pytest.raises(UnsupportedFiberType) as exc:
        intersection_data(N2)
    assert exc.value.args == ("N2 fibers have no tabulated intermediate model",)


def test_n2_threshold_unsupported():
    with pytest.raises(UnsupportedFiberType):
        lct_threshold(N2)
    with pytest.raises(UnsupportedFiberType):
        fiber_model_at(N2, F(1, 2))


def test_intersection_table_rows():
    d = intersection_data(II)
    assert (d.A_sq, d.E_sq, d.AE, d.mult) == (F(-6), F(-1, 6), F(1), 6)
    d = intersection_data(IIstar)
    assert (d.A_sq, d.E_sq, d.AE, d.mult) == (F(-6, 5), F(-1, 30), F(1, 5), 6)
    d = intersection_data(Istar(4))
    assert (d.A_sq, d.E_sq, d.AE, d.mult) == (F(-2), F(-1, 2), F(1), 2)
    d = intersection_data(IIIstar)
    assert (d.A_sq, d.E_sq, d.AE, d.mult) == (F(-4, 3), F(-1, 12), F(1, 3), 4)


def test_intersection_signs():
    for ftype in (Istar(0), II, III, IV, IIstar, IIIstar, IVstar):
        d = intersection_data(ftype)
        assert d.A_sq < 0 and d.E_sq < 0 and d.AE > 0 and d.mult >= 1


def test_intersection_table_is_fiber_orthogonal():
    # the fiber class A + mult*E must pair to zero with both components; and
    # near the fiber D = K + S + a*A + E, with K.A = alpha*A.E and S.A = 1, so
    # D.A = 1 + a*A^2 + (alpha + 1)*A.E: it vanishes at a = 1, the boundary wall
    for ftype in (Istar(0), II, III, IV, IIstar, IIIstar, IVstar):
        d = intersection_data(ftype)
        assert d.A_sq + d.mult * d.AE == 0
        assert d.AE + d.mult * d.E_sq == 0
        alpha = canonical_contribution(ftype, FiberState.INTERMEDIATE)
        assert 1 + d.A_sq + (alpha + 1) * d.AE == 0


@pytest.mark.parametrize("ftype", [I(2), I0, N0, N1])
def test_no_intermediate_model(ftype):
    with pytest.raises(NoIntermediateModel):
        intersection_data(ftype)


def test_fiber_model_examples():
    assert fiber_model_at(II, F(1, 2)) == FiberState.WEIERSTRASS
    assert fiber_model_at(III, F(1)) == FiberState.TWISTED
    assert fiber_model_at(I(3), F(1)) == FiberState.WEIERSTRASS
    assert fiber_model_at(IVstar, F(1, 3)) == FiberState.WEIERSTRASS  # boundary included
    assert fiber_model_at(IVstar, F(1, 3) + F(1, 100)) == FiberState.INTERMEDIATE
    assert fiber_model_at(N1, F(3, 4)) == FiberState.INTERMEDIATE


def test_fiber_model_monotone_in_coefficient():
    grid = [F(k, 60) for k in range(61)]
    for ftype in (II, III, IV, IIstar, IIIstar, IVstar, Istar(1), N1, I(1), I0, N0):
        states = [fiber_model_at(ftype, a) for a in grid]
        assert states == sorted(states)


def test_canonical_contribution():
    assert canonical_contribution(II, FiberState.INTERMEDIATE) == 4
    assert canonical_contribution(III, FiberState.INTERMEDIATE) == 2
    assert canonical_contribution(IV, FiberState.TWISTED) == 1
    assert canonical_contribution(II, FiberState.WEIERSTRASS) == 0
    assert canonical_contribution(Istar(0), FiberState.TWISTED) == 0
    assert canonical_contribution(IIstar, FiberState.INTERMEDIATE) == 0


def test_verify_threshold_matches_table_exactly():
    for ftype in (Istar(0), Istar(3), II, III, IV, IIstar, IIIstar, IVstar):
        assert verify_threshold(ftype) == lct_threshold(ftype)


def test_verify_threshold_worked_cases():
    # threshold of II solves 4*(-1/6) + a*1 + (-1/6) = 0
    assert verify_threshold(II) == F(5, 6)
    # threshold of III* solves a*(1/3) - 1/12 = 0
    assert verify_threshold(IIIstar) == F(1, 4)
    assert verify_threshold(Istar(7)) == F(1, 2)


def test_type_parsing_round_trip():
    tags = ["I0", "I3", "I12", "II", "III", "IV", "I*0", "I*2", "II*", "III*", "IV*", "N0", "N1", "N2"]
    for tag in tags:
        assert str(parse_fiber_type(tag)) == tag


def test_type_validation():
    with pytest.raises(ValueError):
        KodairaType("I")  # missing index
    with pytest.raises(ValueError):
        KodairaType("II", 3)  # spurious index
    with pytest.raises(ValueError):
        parse_fiber_type("V")
    with pytest.raises(ValueError):
        KodairaType("I", -1)


def _lenient_type(text):
    """The reading `int` and `str.isdigit` give an index, with no strict rule."""
    s = text.strip()
    if s.startswith("I*"):
        return KodairaType("I*", int(s[2:]))
    if s in ("II", "III", "IV", "II*", "III*", "IV*", "N0", "N1", "N2"):
        return KodairaType(s)
    if s.startswith("I") and s[1:].isdigit():
        return KodairaType("I", int(s[1:]))
    raise ValueError(f"unrecognized fiber type {text!r}")


# every type text, once stripped
TYPE_TEXT = re.compile(r"I\*?[0-9]+|II\*?|III\*?|IV\*?|N[012]")


def test_a_type_index_is_digits_0_to_9():
    # `int` and `str.isdigit` take each of these; the index rule takes none
    for text in ("I*1_0", "I*+3", "I* 3", "I*٣", "I٣", "I*３", " I*1_0 "):
        with pytest.raises(ValueError, match=r"^unrecognized fiber type .*$"):
            parse_fiber_type(text)
        assert _lenient_type(text) is not None
    # what `int` or `KodairaType` refuses still raises as they do, and the
    # rule agrees with the regex on seeded texts
    rng = random.Random(33)
    kinds = {"refused before": 0, "strict": 0, "only int takes": 0}
    for _ in range(3000):
        head = rng.choice(("I", "I*", "I*", "II", "IV", "N", " I", "I* ", ""))
        text = head + "".join(rng.choice("0123+-_ ٣٣x") for _ in range(rng.randint(0, 3)))
        want, got = _outcome(_lenient_type, text), _outcome(parse_fiber_type, text)
        if not isinstance(want, KodairaType) or TYPE_TEXT.fullmatch(text.strip()):
            kinds["strict" if isinstance(want, KodairaType) else "refused before"] += 1
            assert got == want, text
        else:
            kinds["only int takes"] += 1
            assert got == (ValueError, f"unrecognized fiber type {text!r}"), text
    assert min(kinds.values()) > 200, kinds


def _outcome(f, *args):
    """What `f(*args)` returns, or the type and text of what it raises."""
    try:
        return f(*args)
    except (ValueError, UnsupportedFiberType) as exc:
        return type(exc), str(exc)


# every type a fiber or an attaching end of a generated model may have, plus
# N0 and N2
KERNEL_TYPES = [parse_fiber_type(tag) for tag in sorted(set(MARKABLE + TWISTABLE + ["N0", "N2"]))]
# the 1/120 grid holds every threshold; the ends and one step past them are
# included, as Fractions and as ints
KERNEL_GRID = [F(k, 120) for k in range(-2, 123)] + [-1, 0, 1, 2]


def test_fiber_model_at_equals_the_fraction_form():
    for ftype in KERNEL_TYPES:
        for a in KERNEL_GRID:
            assert _outcome(fiber_model_at, ftype, a) == _outcome(fiber_model_by_fractions, ftype, a), (ftype, a)
    assert _outcome(fiber_model_at, II, F(121, 120)) == (ValueError, "coefficient 121/120 outside [0, 1]")
    assert _outcome(fiber_model_at, N2, F(1, 2))[0] is UnsupportedFiberType


def test_is_settled_equals_the_fraction_form():
    for ftype in KERNEL_TYPES:
        for a in KERNEL_GRID:
            for state in FiberState:
                got = _outcome(is_settled, ftype, a, state)
                assert got == _outcome(is_settled_by_fractions, ftype, a, state), (ftype, a, state)
    assert is_settled(II, F(1), FiberState.INTERMEDIATE) and is_settled(II, 1, FiberState.TWISTED)
    assert not is_settled(II, F(5, 6), FiberState.INTERMEDIATE)


# every type with an intermediate model, I*n up to n = 20
GRAPH_TYPES = [II, III, IV, *(Istar(n) for n in range(21)), IIstar, IIIstar, IVstar]


@pytest.mark.parametrize("ftype", GRAPH_TYPES, ids=str)
def test_tables_match_the_resolution_graph(ftype):
    # the threshold, the intermediate fiber's pairings after contracting all
    # but A and E, and K.E = alpha E^2, each derived from the fiber's graph
    got = resolved_fiber(fiber_graph(ftype))
    data = intersection_data(ftype)
    assert got.threshold == got.E_threshold == lct_threshold(ftype)
    assert (got.A_sq, got.E_sq, got.AE, got.mult) == tuple(data)
    assert got.KE == canonical_contribution(ftype, FiberState.INTERMEDIATE) * data.E_sq


@pytest.mark.parametrize("ftype", [I0, I(1), I(2), I(3), I(12), N0], ids=str)
def test_weierstrass_at_every_coefficient_matches_the_resolution_graph(ftype):
    # no threshold in the table: the graph's threshold is at least one
    assert lct_threshold(ftype) is None and resolved_fiber(fiber_graph(ftype)).threshold >= 1


def test_n1_and_n2_have_no_resolution_graph():
    # N1's double curve is tangent to the fiber, so its threshold of 1/2
    # rests on the table alone; N2 is not modeled
    assert fiber_graph(N1) is None and fiber_graph(N2) is None
