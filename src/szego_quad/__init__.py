"""Szego quadrature, para-orthogonal polynomials, semi-orthogonal functions,
and measure-support estimation on the unit circle."""

from .circle import TWO_PI, circular_distance, fold_angle, half_power, in_open_arc
from .errors import (
    ConfigError,
    DegenerateAnchor,
    IntegrationResolution,
    ModulusMismatch,
    MomentRangeExceeded,
    NearDiagonal,
    NotPositiveDefinite,
    OffCircle,
    PhaseLeak,
    RemainderTooLarge,
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
    christoffel_modify,
    christoffel_moments,
    inner_product,
    measure_integral,
    measure_to_dict,
    moments,
    moments_from_schur,
    parse_measure,
    schur_from_measure,
    schur_from_moments,
)
from .opuc import (
    OpucTable,
    SchurSequence,
    build_opuc,
    kernel_diag,
    kernel_eval,
    kernel_polynomial,
    reverse,
    second_kind,
)
from .poly import ComplexPolynomial, LaurentPolynomial
from .quadrature import (
    DiscreteMeasure,
    InvariantPop,
    QuadratureRule,
    circle_zero_angles,
    discrete_measure,
    make_pop,
    make_rule,
    pop_zeros,
    rule_from_sof,
    weak_convergence_probe,
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
    sturm_sign_probe,
)
from .support import (
    SupportEstimate,
    ZeroCloud,
    accumulation_set,
    gap_zero_census,
    point_in_arcs,
    sine_pair_residual,
    support_estimate,
    zero_cloud,
)

__version__ = "0.1.0"
