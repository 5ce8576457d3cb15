"""Positive-partial-transpose classification.

A classification needs the covariance Sigma and the two parties' forms Omega_A
and Omega_B, plain arrays of any n_a and n_b modes; Omega = Diag[Omega_A, Omega_B].
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

from .core import BOUNDARY, _readonly, _root_spectrum, block_diag, validate_skew_form, validated_root


def primed_form(omega_a, omega_b) -> np.ndarray:
    """Partial-transpose image Omega' = Diag[Omega_A, -Omega_B] of the parties' forms, exactly."""
    return _readonly(block_diag(omega_a, -np.asarray(omega_b, dtype=float)))


class Verdict(str, Enum):
    """A point's verdict, in rank order; each value is the label the scan and eval outputs print."""

    INVALID_DOMAIN = "invalid"
    NON_QUANTUM = "nonquantum"
    ENTANGLED_QUANTUM = "entangled"
    SEPARABLE_QUANTUM = "separable"


_RANKED = np.array(list(Verdict), dtype=object)


@dataclass(frozen=True)
class ClassificationResult:
    """Verdict with the invariants it was derived from (None when invalid)."""

    verdict: Verdict
    nu_minus: float | None
    nu_minus_prime: float | None


def verdict_from_invariants(nu: float | np.ndarray, nu_prime: float | np.ndarray) -> Verdict | np.ndarray:
    """Two-stage verdict: quantum iff nu_- >= 1, then separable (PPT) iff nu'_- >= 1.

    A NaN in either invariant (the family's value where theta*eta >= 1) gives
    INVALID_DOMAIN. Ties within BOUNDARY of 1 resolve toward >=. Takes a float
    pair, giving a Verdict, or two arrays of one shape, giving an object array of
    Verdicts of that shape.
    """
    valid = (nu == nu) & (nu_prime == nu_prime)  # False where either is NaN
    quantum = nu >= 1.0 - BOUNDARY
    separable = nu_prime >= 1.0 - BOUNDARY
    return _RANKED[valid * (1 + quantum * (1 + separable))]  # the Verdict of this rank


def classify(sigma, omega_a, omega_b) -> ClassificationResult:
    """Classify a bipartite state by nu_- of (Sigma, Omega) and nu'_- of (Sigma, Omega').

    Omega = Diag[Omega_A, Omega_B] of the two parties' skew forms, each checked by
    ``validate_skew_form``, so a malformed party raises an NCGaussError.

    SEPARABLE_QUANTUM means PPT: the partial transpose is positive (nu'_- >= 1).
    PPT is necessary for separability, and sufficient for 1xN-mode Gaussian
    states (Simon 2000; Werner & Wolf, PRL 86, 3658, 2001). For 2x2-mode input
    such as the bundled family it is not proven sufficient.
    """
    omega_a, omega_b = validate_skew_form(omega_a), validate_skew_form(omega_b)
    root, form = validated_root(sigma, block_diag(omega_a, omega_b))
    # Both spectra from one Sigma^-1/2 and one eigvalsh; each row is ascending.
    nu, nu_prime = _root_spectrum(root, np.stack([form, primed_form(omega_a, omega_b)]))[:, 0].tolist()
    return ClassificationResult(
        verdict=verdict_from_invariants(nu, nu_prime), nu_minus=nu, nu_minus_prime=nu_prime
    )
