"""picardlab: exact-arithmetic certification of branched-cover surface
constructions and the geography of their numerical invariants."""

__version__ = "0.1.0"

from .constructions import (
    ConstructionReport,
    ParameterError,
    build,
    build_theorem1,
    build_theorem2,
    build_theorem3,
    closed_form_invariants,
)
from .covers import (
    BidoubleCoverData,
    CoverDataError,
    DoubleCoverData,
    SurfaceInvariants,
    bidouble_invariants,
    canonical_ample_check,
    cyclic_pullback_class,
    double_invariants,
    validate_bidouble,
    validate_double,
)
from .curves import (
    CorankAtLeastTwo,
    CurveSingularityReport,
    DegenerateGermError,
    JetBoundError,
    Smooth,
    classify,
    classify_ak,
    restrict_to_line,
    seed_curve,
    singular_points_report,
)
from .geography import (
    GeoPair,
    SET_LABELS,
    admissible,
    emit_figure,
    enumerate_set,
    lines_report,
    set_relations_report,
    slope,
    slope_limit_report,
)
from .polynomials import (
    BinaryForm,
    PointOffCurveError,
    Poly,
    PolyParseError,
    parse_local_poly,
    parse_ternary_form,
)
from .singularities import (
    A,
    BidoubleBranchPoint,
    CyclicBranchPoint,
    D,
    E,
    SingInventory,
    SingType,
    TransportError,
    h11,
    picard_lower_bound,
    resolution_curve_count,
    transport_bidouble,
    transport_cyclic,
    transport_double,
    union_type,
)
from .surfaces import (
    BaseSurface,
    DivisorClass,
    SurfaceMismatchError,
    canonical_class,
    h0,
    hirzebruch,
    intersect,
    is_ample,
    projective_plane,
)

__all__ = [name for name in dir() if not name.startswith("_")]
