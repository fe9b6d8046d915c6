import random
from fractions import Fraction as F

import pytest

from mmp_elliptic.kodaira import KodairaType, parse_fiber_type
from mmp_elliptic.rationals import rat, rat_from_str


def _outcome(f, *args):
    """What `f(*args)` returns, or the type and text of what it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return type(exc), str(exc)


def _int_parse(text):
    """The reading `int` gives: "p/q" or "n" with each part as `int` takes it."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if "/" in s:
        num, _, den = s.partition("/")
        return F(int(num), int(den))
    return F(int(s))


def _strict(s):
    """Whether the stripped text s is `[+-]?[0-9]+(/[0-9]+)?`, read character
    by character."""
    num, slash, den = s.partition("/")
    num = num[1:] if num[:1] in ("+", "-") else num
    digits = set("0123456789")
    return bool(num) and set(num) <= digits and (not slash or bool(den) and set(den) <= digits)


def test_a_literal_is_digits_0_to_9_with_an_optional_sign_and_denominator():
    for text, want in ((" 3/4 ", F(3, 4)), ("-3/4", F(-3, 4)), ("+3/4", F(3, 4)), ("07/008", F(7, 8)), ("5", F(5))):
        assert rat_from_str(text) == rat(text) == want
    # `int` takes each of these; the literal rule takes none
    for text in ("1_0/3", "٣/4", "3 / 4", "3/ 4", "1/-2", "+1/+2", "1_0", "٣", "３/4", " 1 /2"):
        with pytest.raises(ValueError, match=r"^rational literal .* is not p/q or n in the digits 0-9$"):
            rat_from_str(text)
        assert _int_parse(text) is not None
    # what `int` refuses still raises as `int` does, and the rule agrees with
    # a character-by-character reading on seeded texts
    rng = random.Random(32)
    kinds = {"int refuses": 0, "strict": 0, "only int takes": 0}
    for _ in range(3000):
        text = "".join(rng.choice("0123456789+-/ _.٣x") for _ in range(rng.randint(0, 6)))
        want = _outcome(_int_parse, text)
        s = text.strip()
        got = _outcome(rat_from_str, text)
        if isinstance(want, tuple) or _strict(s):
            kinds["int refuses" if isinstance(want, tuple) else "strict"] += 1
            assert got == want, text
        else:
            kinds["only int takes"] += 1
            assert got == (ValueError, f"rational literal {s!r} is not p/q or n in the digits 0-9"), text
    assert min(kinds.values()) > 200, kinds


def test_a_text_is_parsed_once_and_a_failure_is_never_kept():
    from mmp_elliptic.kodaira import _fiber_type
    from mmp_elliptic.rationals import _TEXTS, _literal

    # a repeated text gives the same object, from one bounded table each
    assert _literal.cache_parameters()["maxsize"] == _fiber_type.cache_parameters()["maxsize"] == _TEXTS == 1 << 12
    assert rat_from_str("7/12") is rat_from_str(" 7/12") is rat_from_str("7/12 ") == F(7, 12)
    for text in ("I*3", "II", " N1"):
        assert parse_fiber_type(text) is parse_fiber_type(text) == parse_fiber_type(text.strip())
    assert parse_fiber_type("I*3") == KodairaType("I*", 3)
    # a bad text raises the same on its first and second call, and enters
    # no table
    bad = {
        (rat_from_str, ""): (ValueError, "empty rational literal"),
        (rat_from_str, "0.5"): (ValueError, "invalid literal for int() with base 10: '0.5'"),
        (rat_from_str, "1/0"): (ZeroDivisionError, "Fraction(1, 0)"),
        (parse_fiber_type, "I-1"): (ValueError, "unrecognized fiber type 'I-1'"),
        (parse_fiber_type, " X "): (ValueError, "unrecognized fiber type ' X '"),
        (parse_fiber_type, "X"): (ValueError, "unrecognized fiber type 'X'"),
    }
    sizes = _literal.cache_info().currsize, _fiber_type.cache_info().currsize
    for (parse, text), want in bad.items():
        assert _outcome(parse, text) == _outcome(parse, text) == want
    assert (_literal.cache_info().currsize, _fiber_type.cache_info().currsize) == sizes
    # an argument that is no text raises as the parsers did before the tables
    for parse in (rat_from_str, parse_fiber_type):
        for value in (5, None, ["1/2"]):
            want = (AttributeError, f"'{type(value).__name__}' object has no attribute 'strip'")
            assert _outcome(parse, value) == want
