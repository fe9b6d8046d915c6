"""Exact-arithmetic combinatorial engine for weighted broken elliptic surface
pairs: fiber-model thresholds, weighted-curve stability, wall-and-chamber
structure of the weight cube, and the wall-crossing stable-reduction walk.

The package namespace is a table from each public name to the layer that
defines it, resolved on first access (PEP 562 `__getattr__`) and kept in the
module's globals after that, so `import mmp_elliptic` loads no layer and
`mmp_elliptic.X` loads only X's layer and those it imports.  Each of
`__all__`, `dir()`, `from mmp_elliptic import *` and `mmp_elliptic.X is
<layer>.X` answers as an eager import of every layer would; the layer
modules are public names too.
"""

from importlib import import_module as _import_module

_LAYERS = {
    "curves": (
        "CurveError",
        "MarkedNodalCurve",
        "Marker",
        "Vertex",
        "WeightVector",
        "component_degree",
        "hassett_reduce",
        "interpolate",
        "is_hassett_stable",
    ),
    "kodaira": (
        "FiberState",
        "IntersectionData",
        "KodairaType",
        "NoIntermediateModel",
        "UnsupportedFiberType",
        "canonical_contribution",
        "fiber_model_at",
        "intersection_data",
        "is_settled",
        "lct_threshold",
        "parse_fiber_type",
        "verify_threshold",
    ),
    "modeljson": ("ModelJSONError", "parse_model", "serialize_model"),
    "rationals": (),
    "reduction": (
        "InconsistentTarget",
        "InvalidModel",
        "RecordKind",
        "ReductionTrace",
        "RuleNotApplicable",
        "TransformationRecord",
        "WallNotSatisfied",
        "at_weights",
        "cross_wall",
        "reduce",
    ),
    "surfaces": (
        "AttachEnd",
        "BrokenEllipticSurface",
        "ChildLink",
        "Component",
        "Glue",
        "MarkedFiber",
        "MissingThreshold",
        "NoSectionError",
        "PSEUDO_BIG",
        "PSEUDO_TO_CURVE",
        "PSEUDO_TO_POINT",
        "PseudoComponent",
        "TreeAttachment",
        "UnsupportedConfiguration",
        "Violation",
        "base_curve",
        "base_weights",
        "pseudo_fate",
        "section_degree",
        "subtree_markers",
        "validate",
        "volume",
    ),
    "walls": (
        "Arrangement",
        "Chamber",
        "FeltWall",
        "SegmentCrossing",
        "Wall",
        "WallKind",
        "enumerate_walls",
        "felt_walls",
        "locate",
        "same_chamber",
        "segment_walls",
        "walls_containing",
    ),
    "dot": ("emit_dot",),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted([*_LAYERS, *_HOME])


def __getattr__(name: str):
    """A public name, loaded from its layer on first access and kept in the
    module's globals, so later lookups never come here; a layer's name is
    the layer, which importing it binds here by itself."""
    if name in _LAYERS:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
