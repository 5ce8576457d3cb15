"""Quantumness and separability of Gaussian states on noncommutative phase spaces.

The package generalizes the Robertson-Schroedinger uncertainty check and the
positive-partial-transpose separability test to phase spaces with
position-position and momentum-momentum deformations, and maps the resulting
quantum / separable / entangled regions for an explicit two-mode-per-party
Gaussian family.

This namespace holds the API the README documents and the error classes;
everything else is imported by module path (``ncgauss.core``, ``ncgauss.family``, ...).
"""

from .core import (
    MAX_DIM,
    nc_williamson_spectrum,
    rsup_holds,
)
from .errors import (
    DimensionError,
    DomainError,
    FormulaDomainError,
    MatrixStructureError,
    NCGaussError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)
from .family import build_covariance
from .phase_space import (
    NCParams,
    build_darboux_map,
    build_planar_form,
    transform_covariance,
)
from .scan import (
    ScanConfig,
    eval_point,
    fig1_table,
    fig2_couplings,
    numeric_invariants,
    scan_table,
)
from .separability import (
    classify,
    verdict_from_invariants,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_DIM",
    "nc_williamson_spectrum",
    "rsup_holds",
    "NCGaussError",
    "DimensionError",
    "MatrixStructureError",
    "NotPositiveDefiniteError",
    "SingularMatrixError",
    "DomainError",
    "FormulaDomainError",
    "NCParams",
    "build_planar_form",
    "build_darboux_map",
    "transform_covariance",
    "classify",
    "verdict_from_invariants",
    "build_covariance",
    "ScanConfig",
    "scan_table",
    "fig1_table",
    "fig2_couplings",
    "eval_point",
    "numeric_invariants",
]
