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

One rule, ``kernel.verdict_from_invariants``, turns the invariants into a verdict:
a ``Verdict`` for a float pair, and for arrays each point's rank, its position in
``tuple(Verdict)``, which the grid tables carry as integer codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _readonly, _root_spectrum, block_diag, validate_skew_form, validated_root
from .kernel import Verdict, verdict_from_invariants


def primed_form(omega_a, omega_b) -> np.ndarray:
    """Partial-transpose image Omega' = Diag[Omega_A, -Omega_B] of the parties' forms, exactly."""
    return _readonly(block_diag(omega_a, -np.asarray(omega_b, dtype=float)))


@dataclass(frozen=True)
class ClassificationResult:
    """Verdict with the invariants it was derived from (None when invalid)."""

    verdict: Verdict
    nu_minus: float | None
    nu_minus_prime: float | None


def classify(sigma, omega_a, omega_b) -> ClassificationResult:
    """Classify a bipartite state by nu_- of (Sigma, Omega) and nu'_- of (Sigma, Omega').

    Omega = Diag[Omega_A, Omega_B] of the two parties' skew forms, each checked by
    ``validate_skew_form``, so a malformed party raises an NCGaussError. Any skew form answers, singular
    (null pairs give nu = inf) or up to the largest float, to ``nc_williamson_spectrum``'s accuracy.

    SEPARABLE_QUANTUM means PPT: the partial transpose is positive (nu'_- >= 1).
    PPT is necessary for separability, and sufficient for 1xN-mode Gaussian
    states (Simon 2000; Werner & Wolf, PRL 86, 3658, 2001). For 2x2-mode input
    such as the bundled family it is not proven sufficient.
    """
    omega_a, omega_b = validate_skew_form(omega_a), validate_skew_form(omega_b)
    root, form, k = validated_root(sigma, block_diag(omega_a, omega_b))
    # Both spectra from one Sigma^-1/2 and one eigvalsh; each row is ascending.
    nu, nu_prime = _root_spectrum(root, np.stack([form, primed_form(omega_a, omega_b)]), k)[:, 0].tolist()
    return ClassificationResult(
        verdict=verdict_from_invariants(nu, nu_prime), nu_minus=nu, nu_minus_prime=nu_prime
    )
