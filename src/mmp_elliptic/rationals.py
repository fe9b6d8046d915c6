"""Exact number helpers: parsing and canonical "p/q" serialization, and the
JSON value helpers every writer and reader shares.

Every quantity in this package is a `fractions.Fraction`; floats are never
introduced anywhere.  The wire format is "p/q" in lowest terms with q > 0,
and plain "n" for integers.  A count or an id read from JSON must be a JSON
integer (`json_int`): a float or a boolean is refused, never truncated.  A
flag read from JSON must be a JSON boolean (`json_bool`): a string such as
"false" is refused, never read by its truthiness.  A text is written as JSON
by json's own escaper (`quote`), and a list of laid-out items as
`json.dumps(indent=2)` lays it out (`json_list`).  They live here, beside the
number helpers, so that the CLI's `walls` listing writes its JSON without
loading the model layers.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as quote


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
    """Canonical form: lowest terms, positive denominator, "n" for integers,
    which is what `Fraction.__str__` writes."""
    return str(q)


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


def json_list(items: list[str], pad: str) -> str:
    """The JSON list of `items` as `json.dumps(indent=2)` lays it out with its
    closing bracket indented by `pad`; each item is already laid out for the
    indent `pad` plus two spaces."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"
