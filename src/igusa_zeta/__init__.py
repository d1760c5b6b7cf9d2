"""Exact Igusa local zeta functions of semiquasihomogeneous polynomials.

The package computes Z(f, s), the integral of |f|^s over the integer points
of a local field, as an exact rational function of t = q^(-s), for
polynomials with an isolated singularity at the origin whose lowest
weighted-degree part is quasihomogeneous.  Both Q_p and F_p((pi)) are
supported (prime residue field).  The check command cross-validates a
result against exhaustive congruence counting through the Poincare series.
"""

from .coeff import LocalRing, LocalRingElement
from .errors import (
    BudgetExceeded,
    DepthExceeded,
    EngineError,
    InsufficientValuation,
    InvalidHint,
    InvalidParameters,
    InvariantViolation,
    NonUnitContent,
    NotSemiQuasiHomogeneous,
    PolynomialSyntaxError,
    UniformizerInCharZero,
    ZeroPolynomial,
)
from .poly import MultiPoly, ResiduePoly, parse, weighted_degree
from .ratfun import DenomFactor, RatFun
from .region import ResidueRegion, ValuationCell, cell_change_of_variables, complement_cells
from .neron import DilatationNode, classify_points, dilate
from .spf import SpfConfig, SpfTrace, series_check, spf_zeta
from .sqh import (
    SqhDecomposition,
    SqhReport,
    WeightSystem,
    detect_weights,
    limit_cells,
    scale_step,
    zeta_on_complement,
    zeta_semiquasihomogeneous,
)
from .analysis import (
    PoincareSeries,
    two_term_closed_form,
    oracle_counts,
    poincare_from_zeta,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DenomFactor",
    "DepthExceeded",
    "DilatationNode",
    "EngineError",
    "InsufficientValuation",
    "InvalidHint",
    "InvalidParameters",
    "InvariantViolation",
    "LocalRing",
    "LocalRingElement",
    "MultiPoly",
    "NonUnitContent",
    "NotSemiQuasiHomogeneous",
    "PoincareSeries",
    "PolynomialSyntaxError",
    "RatFun",
    "ResiduePoly",
    "ResidueRegion",
    "SpfConfig",
    "SpfTrace",
    "SqhDecomposition",
    "SqhReport",
    "UniformizerInCharZero",
    "ValuationCell",
    "WeightSystem",
    "ZeroPolynomial",
    "cell_change_of_variables",
    "classify_points",
    "complement_cells",
    "detect_weights",
    "dilate",
    "two_term_closed_form",
    "limit_cells",
    "oracle_counts",
    "parse",
    "poincare_from_zeta",
    "scale_step",
    "series_check",
    "spf_zeta",
    "weighted_degree",
    "zeta_on_complement",
    "zeta_semiquasihomogeneous",
]
