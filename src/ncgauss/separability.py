"""Positive-partial-transpose classification.

Partial transposition acts on phase space as a mirror reflection of Bob's
momenta. In deformed variables the reflection becomes D = S Lambda S^-1 for a
Darboux map S, and D^-1 Omega D^-T = Diag[Omega_A, -Omega_B] = Omega' for
every such map. Separability is therefore read from the spectrum of
(Sigma, Omega'), which needs no map. The reflected-covariance route
Sigma' = D Sigma D^T is less accurate (D carries the conditioning of S) and
lives in the tests as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    BOUNDARY,
    SymplecticSpectrum,
    _readonly,
    _root_spectrum,
    block_diag,
    validated_root,
)
from .phase_space import CompositeForm


def primed_form(omega: CompositeForm) -> np.ndarray:
    """Partial-transpose image of the form: Diag[Omega_A, -Omega_B], exactly."""
    return _readonly(block_diag(omega.part_a.assembled, -omega.part_b.assembled))


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
