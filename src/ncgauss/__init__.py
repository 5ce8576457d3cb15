"""Quantumness and separability of Gaussian states on noncommutative phase spaces.

The package generalizes the Robertson-Schroedinger uncertainty check and the
positive-partial-transpose separability test to phase spaces with
position-position and momentum-momentum deformations, and maps the resulting
quantum / separable / entangled regions for an explicit two-mode-per-party
Gaussian family.
"""

from .core import (
    MAX_DIM,
    SymplecticSpectrum,
    block_diag,
    nc_williamson_spectrum,
    rsup_holds,
    standard_symplectic_form,
    validate_covariance,
    validate_skew_form,
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
from .family import (
    ClosedFormInvariants,
    FamilyParams,
    GaussianState,
    build_covariance,
    closed_form_invariants,
    evaluate_wigner,
    family_form,
    omega_pm,
)
from .phase_space import (
    EPSILON2,
    CompositeForm,
    DarbouxMap,
    NCParams,
    SubsystemForm,
    build_composite_form,
    build_darboux_map,
    build_planar_form,
    build_subsystem_form,
    transform_covariance,
    validate_darboux,
)
from .scan import (
    ScanConfig,
    ScanRecord,
    emit_fig1_data,
    emit_fig2_data,
    eval_point,
    numeric_invariants,
    rows_to_csv,
    rows_to_json,
    scan_grid,
)
from .separability import (
    ClassificationResult,
    PartialTransposeMap,
    Verdict,
    classify,
    partial_transpose_covariance,
    partial_transpose_map,
    primed_form,
    verdict_from_invariants,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_DIM",
    "SymplecticSpectrum",
    "block_diag",
    "standard_symplectic_form",
    "validate_covariance",
    "validate_skew_form",
    "nc_williamson_spectrum",
    "rsup_holds",
    "NCGaussError",
    "DimensionError",
    "MatrixStructureError",
    "NotPositiveDefiniteError",
    "SingularMatrixError",
    "DomainError",
    "FormulaDomainError",
    "EPSILON2",
    "NCParams",
    "SubsystemForm",
    "CompositeForm",
    "DarbouxMap",
    "build_subsystem_form",
    "build_planar_form",
    "build_composite_form",
    "build_darboux_map",
    "validate_darboux",
    "transform_covariance",
    "PartialTransposeMap",
    "Verdict",
    "ClassificationResult",
    "primed_form",
    "partial_transpose_map",
    "partial_transpose_covariance",
    "verdict_from_invariants",
    "classify",
    "FamilyParams",
    "GaussianState",
    "ClosedFormInvariants",
    "build_covariance",
    "family_form",
    "omega_pm",
    "closed_form_invariants",
    "evaluate_wigner",
    "ScanConfig",
    "ScanRecord",
    "eval_point",
    "numeric_invariants",
    "scan_grid",
    "emit_fig1_data",
    "emit_fig2_data",
    "rows_to_csv",
    "rows_to_json",
    "__version__",
]
