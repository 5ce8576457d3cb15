"""Positive-partial-transpose machinery and state classification.

Partial transposition acts on phase space as a mirror reflection of Bob's
momenta. In deformed variables the reflection becomes D = S Lambda S^-1 for a
Darboux map S, and D^-1 Omega D^-T = Diag[Omega_A, -Omega_B] = Omega' for
every such map. Separability is therefore read from the spectrum of
(Sigma, Omega'), which needs no map. The reflected covariance
Sigma' = D Sigma D^T with (Sigma', Omega) gives the same spectrum less
accurately (D carries the conditioning of S); it is kept as a reference for
the tests, off the classification path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    BOUNDARY,
    MAP_RESIDUAL,
    SymplecticSpectrum,
    _readonly,
    _root_spectrum,
    block_diag,
    numerically_singular,
    validate_covariance,
    validated_root,
)
from .errors import DimensionError, MatrixStructureError, SingularMatrixError
from .phase_space import CompositeForm, DarbouxMap


def primed_form(omega: CompositeForm) -> np.ndarray:
    """Partial-transpose image of the form: Diag[Omega_A, -Omega_B], exactly."""
    return _readonly(block_diag(omega.part_a.assembled, -omega.part_b.assembled))


@dataclass(frozen=True)
class PartialTransposeMap:
    """Involution D = Diag[I_A, S_B Lambda_B S_B^-1] acting on covariances."""

    n_a: int
    n_b: int
    mat: np.ndarray


def partial_transpose_map(dmap: DarbouxMap, n_a: int, n_b: int) -> PartialTransposeMap:
    """Build the partial-transpose involution from a block-diagonal map."""
    if n_a < 1 or n_b < 1:
        raise DimensionError(f"mode counts must be >= 1, got ({n_a}, {n_b})")
    if dmap.s_a.shape[0] != 2 * n_a or dmap.s_b.shape[0] != 2 * n_b:
        raise DimensionError(
            f"map blocks {dmap.s_a.shape[0]}/{dmap.s_b.shape[0]} do not match 2n_a={2 * n_a}, 2n_b={2 * n_b}"
        )
    if numerically_singular(dmap.s_b):
        raise SingularMatrixError("S_B is numerically singular")
    lam_b = np.diag(np.concatenate([np.ones(n_b), -np.ones(n_b)]))
    d_b = dmap.s_b @ lam_b @ np.linalg.inv(dmap.s_b)
    mat = block_diag(np.eye(2 * n_a), d_b)
    residual = np.max(np.abs(mat @ mat - np.eye(mat.shape[0])))
    if residual > MAP_RESIDUAL:
        raise MatrixStructureError(f"partial transpose map is not involutive ({residual:.3e})")
    return PartialTransposeMap(n_a=n_a, n_b=n_b, mat=_readonly(mat))


def partial_transpose_covariance(sigma, pt: PartialTransposeMap) -> np.ndarray:
    """Reflected covariance Sigma' = D Sigma D^T."""
    sig = validate_covariance(sigma)
    if sig.shape[0] != pt.mat.shape[0]:
        raise DimensionError(
            f"covariance is {sig.shape[0]}-dimensional but map is {pt.mat.shape[0]}-dimensional"
        )
    out = pt.mat @ sig @ pt.mat.T
    out = 0.5 * (out + out.T)
    return validate_covariance(out)


class Verdict(str, Enum):
    INVALID_DOMAIN = "InvalidDomain"
    NON_QUANTUM = "NonQuantum"
    SEPARABLE_QUANTUM = "SeparableQuantum"
    ENTANGLED_QUANTUM = "EntangledQuantum"


@dataclass(frozen=True)
class ClassificationResult:
    """Verdict with the invariants it was derived from (None when invalid)."""

    verdict: Verdict
    nu_minus: float | None
    nu_minus_prime: float | None


def verdict_from_invariants(nu: float, nu_prime: float) -> Verdict:
    """Two-stage verdict: quantum iff nu_- >= 1, then separable iff nu'_- >= 1.

    Ties within BOUNDARY of 1 resolve toward >=.
    """
    if nu < 1.0 - BOUNDARY:
        return Verdict.NON_QUANTUM
    if nu_prime < 1.0 - BOUNDARY:
        return Verdict.ENTANGLED_QUANTUM
    return Verdict.SEPARABLE_QUANTUM


def partial_transpose_spectra(
    sigma, omega: CompositeForm
) -> tuple[SymplecticSpectrum, SymplecticSpectrum]:
    """Williamson spectra of (Sigma, Omega) and (Sigma, Omega') from one sqrt(Sigma)."""
    root, form = validated_root(sigma, omega.assembled)
    spectrum, reflected = _root_spectrum(root, np.stack([form, primed_form(omega)])).tolist()
    return SymplecticSpectrum(tuple(spectrum)), SymplecticSpectrum(tuple(reflected))


def classify(sigma, omega: CompositeForm) -> ClassificationResult:
    """Classify a bipartite state by nu_- of (Sigma, Omega) and nu'_- of (Sigma, Omega').

    For Gaussian states both conditions are necessary and sufficient. Domain
    violations (theta*eta >= 1) never reach this function; they are reported
    as InvalidDomain by the scan layer.
    """
    spectrum, reflected = partial_transpose_spectra(sigma, omega)
    nu, nu_prime = spectrum.smallest, reflected.smallest
    return ClassificationResult(
        verdict=verdict_from_invariants(nu, nu_prime), nu_minus=nu, nu_minus_prime=nu_prime
    )
