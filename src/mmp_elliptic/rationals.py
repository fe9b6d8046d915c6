"""Exact number helpers: parsing and canonical "p/q" serialization.

Every quantity in this package is a `fractions.Fraction`; floats are never
introduced anywhere.  The wire format is "p/q" in lowest terms with q > 0,
and plain "n" for integers.  A count or an id read from JSON must be a JSON
integer (`json_int`): a float or a boolean is refused, never truncated.  A
flag read from JSON must be a JSON boolean (`json_bool`): a string such as
"false" is refused, never read by its truthiness.
"""

from __future__ import annotations

from fractions import Fraction


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return rat_from_str(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rat_from_str(text: str) -> Fraction:
    """Parse "p/q" or "n". Rejects floats and empty input."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if "/" in s:
        num, _, den = s.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def rat_to_str(q: Fraction) -> str:
    """Canonical form: lowest terms, positive denominator, "n" for integers."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def json_int(value) -> int:
    """A JSON integer, an `int` that is not a `bool`; anything else raises
    `ValueError`."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"bad integer {value!r}")


def json_bool(value) -> bool:
    """A JSON boolean, `True` or `False`; anything else raises `ValueError`."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"bad boolean {value!r}")
