"""foliation-lab: symbolic and numeric laboratory for singularities of
holomorphic foliations by curves."""

from .gaussrat import GaussRat, I, rational_sqrt
from .mvpoly import MVPoly, linear_part_matrix
from .series import TruncatedSeries, poly_eval_series
from .monomial import MonomialIdeal, multiplier_ideal_trivial_monomial, newton_interior_margin
from .foliation import (
    CoeffIdealPresentation,
    DivisorNotInvariant,
    FoliationError,
    LogDivisor,
    VectorFieldGerm,
    coefficient_ideal,
    divisor_at_point,
    divisor_invariance_check,
    is_singular_at_origin,
    translate_to_point,
)
from .linalg import Indeterminate, char_poly, eigenvalues_exact
from .blowup import (
    SaturatedTransform,
    blow_up,
    effectivity_count,
    exceptional_multiplicity,
    pullback_one_form,
    transform_vector_field,
)
from .classify import (
    SingularityReport,
    algebraic_multiplicity,
    classify_reduced,
    classify_simple,
    is_dicritical,
    ratio_in_Q_plus,
    singularity_report,
    surface_seidenberg_type,
)
from .resolution import (
    ResolutionTower,
    WeaklyReducedCertificate,
    multiplier_ideal_trivial_by_discrepancy,
    resolve_simple,
    seidenberg_reduce,
    weakly_reduced_check,
)
from .separatrix import (
    FormalCurve,
    Resonance,
    corner_has_no_transverse_separatrix,
    direction_of_eigenvalue,
    formal_separatrix,
    separatrix_lift_check,
)
from .nevanlinna import (
    NevanlinnaProfile,
    ParametrizedCurve,
    characteristic_T,
    circle_average_log,
    counting_function,
    fmt_verify,
    jensen_verify,
    log_derivative_check,
    multiplicity_bookkeeping,
    tautological_pairing,
)
from .quadrature import QuadConfig
from .dsl import ParseError, parse_curve, parse_divisor, parse_vector_field

__version__ = "0.1.0"
