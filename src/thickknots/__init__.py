"""Thick equilateral polygonal knots: geometry, sampling, canonicalization."""

from .errors import (
    AlreadyRegular,
    ConfigError,
    DegenerateAngle,
    DegenerateAxis,
    EdgeLengthViolation,
    IntegrityFailure,
    NoGenericProjection,
    NoSignChange,
    NotApplicable,
    NotCoplanarizable,
    ParseError,
    PipelineStall,
    ThickKnotsError,
    TooFewSamples,
    TooFewVertices,
)
from .polygon import (
    KnotPolygon,
    convex_hull_2d,
    interior_angles,
    regular_angle,
    regular_polygon,
    turning_angles,
    validate_polygon,
)
from .thickness import (
    DoublyCriticalPair,
    ThicknessReport,
    doubly_critical_pairs,
    injectivity_radius,
    minrad,
    radius_via_tc,
    thickness_at_least,
    thickness_value,
)
from .moves import (
    ReflectionMove,
    apply_arc_rotation,
    apply_hextuple,
    apply_reflection,
    reflection_plane,
)
from .canonicalize import (
    CanonicalizationTrace,
    StageKind,
    TraceEntry,
    canonicalize,
    expose_projection,
    flatten,
    incidence,
    mu,
    pushout_move,
    regularize,
)
from .mcmc import (
    Chain,
    ChainConfig,
    StepOutcome,
    chain_step,
    diagnostics,
    draw_noise,
    run_chain,
)
from .analysis import alexander_determinant, radius_of_gyration
from .knotio import (
    KnotRecord,
    read_knots,
    read_records,
    read_stats,
    write_knots,
    write_obj,
    write_stats,
    write_trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
