"""One row per way `validate` rejects a model, pinned to its exact output.

Each row edits a model file in one way: the shipped example (two components
glued along II ~ II*, twelve nodal markers) or the nested-tree golden model
(one component hosting a tree whose root hosts a child).  An edit maps a
dotted path to the new value of that field; a path one past the end of a list
appends.  The row lists the (code, where) pairs that `validate` reports, in
order.
"""

import json
from pathlib import Path

import pytest

from mmp_elliptic.modeljson import model_from_obj
from mmp_elliptic.surfaces import validate

ROOT = Path(__file__).resolve().parent.parent
BASES = {
    "example": ROOT / "demos" / "data" / "rational_example.json",
    "nested": ROOT / "tests" / "golden" / "nested_tree.json",
}
GLUE_2 = {
    "id": "g2",
    "a": {"component": "c1", "fiber": "a1", "type": "II"},
    "b": {"component": "c2", "fiber": "a3", "type": "II"},
}
# a tree that lost its host leaves its markers counted twice: on the would-be
# host fiber c1/a1 and on the tree's own fibers
HOST_MARKERS = [("marker", "c2/f3"), ("marker", "c3/f4"), ("marker", "c3/f5")]
# a second tree on the nested model's host fiber c1/a1, carrying a new marker:
# reported in either listing order, with both trees' markers due on the host
NESTED_ROOT_TREE = json.loads(BASES["nested"].read_text())["trees"][0]
TREE_C9 = {
    "host": "c1",
    "host_fiber": "a1",
    "root": {
        "id": "c9",
        "degL": "1",
        "attach_type": "II*",
        "fibers": [{"id": "f6", "type": "I1", "coeff": "1/2", "state": "Weierstrass",
                    "markers": [6]}],
        "children": [],
    },
}

# (id, base, edits, expected (code, where) pairs)
ROWS = [
    ("glue-unknown-component", "example", {"attachments.0.a.component": "c9"},
     [("glue", "g1"), ("connectivity", "surface")]),
    ("glue-fiber-collides", "example", {"attachments.0.a.fiber": "f1"}, [("glue", "g1")]),
    ("glue-n2-end", "example", {"attachments.0.b.type": "N2"}, [("glue", "g1")]),
    ("glue-untwistable-end", "example", {"attachments.0.b.type": "N0"}, [("glue", "g1")]),
    ("glue-end-used-twice", "example", {"attachments.1": GLUE_2}, [("glue", "g2")]),
    ("duplicate-fiber-ids", "example", {"components.0.fibers.1.id": "f1"}, [("ids", "c1")]),
    ("duplicate-component-ids", "example", {"components.1.id": "c1"},
     [("ids", "surface"), ("glue", "g1"), ("connectivity", "surface")]),
    ("shared-vertex", "example", {"components.1.vertex": 1}, [("vertices", "surface")]),
    ("marker-outside-range", "example", {"components.0.fibers.0.markers": [13]},
     [("marker", "c1/f1")]),
    ("marker-reused", "example", {"components.1.fibers.0.markers": [1]},
     [("marker", "c2/f11")]),
    ("unmarked-nodal-fiber", "example", {"components.0.fibers.0.markers": []},
     [("unmarked-fiber", "c1/f1")]),
    ("unmarked-n2-fiber", "example",
     {"components.0.fibers.0": {"id": "f1", "type": "N2", "coeff": "1", "state": "Twisted"}},
     [("unmarked-fiber", "c1/f1")]),
    ("stale-coefficient", "example", {"components.0.fibers.0.coeff": "1/2"},
     [("coeff", "c1/f1")]),
    ("n2-fiber", "example", {"components.0.fibers.0.type": "N2"}, [("fiber-type", "c1/f1")]),
    ("weierstrass-at-one", "example", {"components.0.fibers.0.type": "II"},
     [("fiber-state", "c1/f1")]),
    ("intermediate-at-one-is-settled", "example",
     {"components.0.fibers.0.type": "II", "components.0.fibers.0.state": "Intermediate"}, []),
    ("type-ii-with-one-attachment", "example", {"components.1.kind": "pseudo2"},
     [("type-ii", "c2")]),
    ("negative-component-degL", "example", {"components.0.degL": "-1"}, [("degL", "c1")]),
    ("degL-zero-with-nodal-fibers", "example", {"components.1.degL": "0"},
     [("degL", "c2/f11"), ("degL", "c2/f12")]),
    ("degL-zero-with-nodal-attachment", "example",
     {"components.1.degL": "0", "components.1.fibers": [], "attachments.0.b.type": "I1"},
     [("degL", "c2/a2")]),
    ("disconnected", "example", {"attachments": []}, [("connectivity", "surface")]),
    ("unknown-tree-host", "nested", {"trees.0.host": "c9"}, [("tree", "c2")] + HOST_MARKERS),
    ("missing-host-fiber", "nested", {"trees.0.host_fiber": "zz"},
     [("tree", "c2")] + HOST_MARKERS),
    ("missing-parent-pseudofiber", "nested", {"trees.0.root.children.0.via_fiber": "zz"},
     [("tree", "c3"), ("marker", "c3/f4"), ("marker", "c3/f5")]),
    ("negative-node-degL", "nested", {"trees.0.root.degL": "-1"}, [("degL", "c2")]),
    ("host-not-intermediate", "nested", {"components.0.fibers.0.state": "Twisted"},
     [("host-state", "c1/a1")]),
    ("host-markers", "nested", {"components.0.fibers.0.markers": [3, 4]},
     [("eq-4.1", "c1/a1")]),
    ("host-coefficient", "nested", {"components.0.fibers.0.coeff": "1/2"},
     [("eq-4.1", "c1/a1")]),
    ("n2-host", "nested", {"components.0.fibers.0.type": "N2"}, [("fiber-type", "c1/a1")]),
    ("host-without-intermediate", "nested", {"components.0.fibers.0.type": "I1"},
     [("host-state", "c1/a1")]),
    ("host-below-threshold", "nested", {"weights.3": "1/3"},
     [("eq-4.1", "c1/a1"), ("eq-4.1", "c2/b2"), ("host-state", "c2/b2"), ("coeff", "c3/f4")]),
    ("n2-node-attachment", "nested", {"trees.0.root.attach_type": "N2"}, [("tree", "c2")]),
    ("untwistable-node-attachment", "nested", {"trees.0.root.attach_type": "N0"},
     [("tree", "c2")]),
    ("node-id-repeats-component", "nested", {"trees.0.root.id": "c1"}, [("ids", "surface")]),
    ("duplicate-pseudofiber-ids", "nested", {"trees.0.root.fibers.1.id": "b2"},
     [("ids", "c2"), ("eq-4.1", "c2/b2")]),
    ("second-tree-on-host-listed-first", "nested",
     {"weights.5": "1/2", "trees.0": TREE_C9, "trees.1": NESTED_ROOT_TREE},
     [("tree", "c1/a1"), ("eq-4.1", "c1/a1")]),
    ("second-tree-on-host-listed-last", "nested", {"weights.5": "1/2", "trees.1": TREE_C9},
     [("tree", "c1/a1"), ("eq-4.1", "c1/a1")]),
]


def edited(base: str, edits: dict) -> dict:
    obj = json.loads(BASES[base].read_text())
    for path, value in edits.items():
        *head, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        target = obj
        for key in head:
            target = target[key]
        if isinstance(target, list) and last == len(target):
            target.append(value)
        else:
            target[last] = value
    return obj


@pytest.mark.parametrize(
    "base, edits, expected", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_validate_reports_exactly(base, edits, expected):
    X = model_from_obj(edited(base, edits), check=False)
    assert [(v.code, v.where) for v in validate(X)] == expected
