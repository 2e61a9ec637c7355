"""Szego quadrature, para-orthogonal polynomials, semi-orthogonal functions,
and measure-support estimation on the unit circle."""

from .circle import TWO_PI, circular_distance, fold_angle, half_power, in_open_arc
from .errors import (
    ConfigError,
    IntegrationResolution,
    ModulusMismatch,
    MomentRangeExceeded,
    NotPositiveDefinite,
    OffCircle,
    PhaseLeak,
    SchurOutOfDisk,
    SzegoQuadError,
    ZeroCoefficient,
    ZeroCountMismatch,
)
from .measures import (
    ArcDensity,
    Atomic,
    Density,
    Lebesgue,
    MeasureSpec,
    Mixture,
    MomentTable,
    christoffel_moments,
    measure_integral,
    moments,
    moments_from_schur,
    parse_measure,
    schur_from_measure,
    schur_from_moments,
)
from .opuc import (
    SchurSequence,
    build_opuc,
    kernel_diag,
    reverse,
    second_kind,
)
from .poly import ComplexPolynomial
from .quadrature import (
    InvariantPop,
    QuadratureRule,
    circle_zero_angles,
    make_pop,
    make_rule,
    rule_from_sof,
    weights_via_integral,
)
from .sof import (
    InterlaceResult,
    SofFamilySpec,
    SofInstance,
    f_sequence,
    interlace_check,
    sof_combo,
    sof_f1,
    sof_f2,
    sof_members,
    sturm_sign_probe,
)
from .support import (
    SupportEstimate,
    ZeroCloud,
    accumulation_set,
    gap_zero_census,
    point_in_arcs,
    support_estimate,
    zero_cloud,
)

__version__ = "0.1.0"
