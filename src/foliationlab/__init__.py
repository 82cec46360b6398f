"""foliation-lab: symbolic and numeric laboratory for singularities of
holomorphic foliations by curves."""

import importlib

from .gaussrat import GaussRat, I, rational_sqrt
from .mvpoly import MVPoly, linear_part_matrix
from .monomial import MonomialIdeal, multiplier_ideal_trivial_monomial
from .foliation import (
    CoeffIdealPresentation,
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
    classify_simple,
    is_dicritical,
    singularity_report,
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
from .dsl import ParseError, parse_curve, parse_divisor, parse_vector_field

__version__ = "0.1.0"

# The float engine (numpy) loads on first use of one of its names (PEP 562),
# so the exact engine and its CLI commands start without numpy.
_FLOAT_NAMES = {
    **dict.fromkeys((
        "NevanlinnaProfile", "ParametrizedCurve", "characteristic_T", "counting_function",
        "fmt_verify", "jensen_verify", "log_derivative_check", "multiplicity_bookkeeping",
        "tautological_pairing",
    ), "nevanlinna"),
    "QuadConfig": "quadrature",
}


def __getattr__(name):
    module = _FLOAT_NAMES.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)
