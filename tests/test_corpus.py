"""The seeded slice of the differential corpus (`tests/corpus.py`).

The slice pins no bytes: the full corpus, compared against another checkout
with `--compare`, does that.  Here every item of every family must run, and
none may raise an exception that is not one of the package's refusals.
"""

from collections import Counter

import corpus


def test_every_slice_item_runs_without_an_unexpected_exception():
    names = []
    for line in corpus.lines(corpus.SLICE):
        assert not line.endswith("UNEXPECTED"), line
        names.append(line.split(" ", 1)[0])
    assert len(names) == len(set(names))
    families = Counter(name.split("/", 1)[0] for name in names)
    assert families.keys() == {"random", "chain", "halting", "segment", "chamber", "walls", "file", "parse"}
    assert any("/sides/" in n for n in names) and any("/wide/" in n for n in names)
    assert any("/cross/" in n for n in names)
    assert any(n.endswith("/felt") for n in names)
    assert any("/wii-at-one/" in n for n in names)
    assert set(corpus.PARSE_KINDS) <= {n.split("/")[-2] for n in names if n.startswith("parse/")}
