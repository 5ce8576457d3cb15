"""Quantumness and separability of Gaussian states on noncommutative phase spaces.

The package generalizes the Robertson-Schroedinger uncertainty check and the
positive-partial-transpose separability test to phase spaces with
position-position and momentum-momentum deformations, and maps the resulting
quantum / separable / entangled regions for an explicit two-mode-per-party
Gaussian family.

This namespace holds the API the README documents and the error classes;
everything else is imported by module path (``ncgauss.core``, ``ncgauss.family``, ...).
``_HOMES`` names each one's module. The error classes load with the package and every other
name on first use (PEP 562), so ``eval_point`` and ``verdict_from_invariants`` load no numpy.
"""

import importlib

from .errors import (DimensionError, DomainError, FormulaDomainError, MatrixStructureError, NCGaussError,
                     NotPositiveDefiniteError)

__version__ = "0.1.0"

_HOMES = {
    **dict.fromkeys(("MAX_DIM", "nc_williamson_spectrum", "rsup_holds"), "core"),
    **dict.fromkeys(("NCGaussError", "DimensionError", "MatrixStructureError", "NotPositiveDefiniteError",
                     "DomainError", "FormulaDomainError"), "errors"),
    **dict.fromkeys(("NCParams", "build_planar_form", "build_darboux_map", "transform_covariance"),
                    "phase_space"),
    "classify": "separability", "verdict_from_invariants": "kernel", "build_covariance": "family",
    **dict.fromkeys(("scan_table", "fig1_table", "fig2_couplings", "eval_point"), "scan"),
}
__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
