"""Exact-arithmetic combinatorial engine for weighted broken elliptic surface
pairs: fiber-model thresholds, weighted-curve stability, wall-and-chamber
structure of the weight cube, and the wall-crossing stable-reduction walk."""

from .curves import (
    CurveError,
    MarkedNodalCurve,
    Marker,
    Vertex,
    WeightVector,
    component_degree,
    hassett_reduce,
    interpolate,
    is_hassett_stable,
)
from .kodaira import (
    FiberState,
    IntersectionData,
    KodairaType,
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
from .modeljson import ModelJSONError, parse_model, serialize_model
from .reduction import (
    InconsistentTarget,
    InvalidModel,
    RecordKind,
    ReductionTrace,
    RuleNotApplicable,
    TransformationRecord,
    WallNotSatisfied,
    at_weights,
    cross_wall,
    increase_to_one,
    reduce,
)
from .surfaces import (
    AttachEnd,
    BrokenEllipticSurface,
    ChildLink,
    Component,
    Glue,
    MarkedFiber,
    MissingThreshold,
    NoSectionError,
    PSEUDO_BIG,
    PSEUDO_TO_CURVE,
    PSEUDO_TO_POINT,
    PseudoComponent,
    TreeAttachment,
    UnsupportedConfiguration,
    Violation,
    base_curve,
    base_weights,
    pseudo_fate,
    section_degree,
    subtree_markers,
    validate,
    volume,
)
from .walls import (
    Arrangement,
    Chamber,
    FeltWall,
    SegmentCrossing,
    Wall,
    WallKind,
    enumerate_walls,
    felt_walls,
    locate,
    same_chamber,
    segment_walls,
    walls_containing,
)
from .dot import emit_dot

__all__ = [name for name in dir() if not name.startswith("_")]
