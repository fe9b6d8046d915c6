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

A literal must match `[+-]?[0-9]+(/[0-9]+)?` once stripped, so no inner space,
"_" or non-ASCII digit that `int` takes.  Each text is parsed once per process:
a table of `_TEXTS` entries, as `kodaira`'s for types, keeps every success.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as quote

_TEXTS = 1 << 12
_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


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
    return _literal(text.strip())


@lru_cache(maxsize=_TEXTS)
def _literal(s: str) -> Fraction:
    """The stripped text s as a rational.  What `int` refuses raises as
    `int` does; what only the strict rule refuses raises after it."""
    if not s:
        raise ValueError("empty rational literal")
    num, slash, den = s.partition("/")
    q = Fraction(int(num), int(den)) if slash else Fraction(int(num))
    if not _LITERAL.fullmatch(s):
        raise ValueError(f"rational literal {s!r} is not p/q or n in the digits 0-9")
    return q


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
