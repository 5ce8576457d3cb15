"""The explicit two-mode-per-party Gaussian family on an 8-dimensional phase space.

The covariance matrix is b/2 * [[I4, G^T], [G, I4]] with a coupling block G
parameterized by reals (m, n), R = sqrt(m^2 + n^2) < 1 and b = (1+R)/(1-R).
Both parties share the same planar commutation form. Closed-form expressions
give the smallest Williamson invariants before and after partial transposition;
they are exact on the m, n >= 0 quadrant and are cross-checked against the
spectral route in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Tolerances, validate_covariance
from .errors import DomainError, FormulaDomainError, NCGaussError
from .phase_space import CompositeForm, NCParams, build_composite_form, build_planar_form


def validate_couplings(m: float, n: float) -> float:
    """Require finite couplings with R = sqrt(m^2 + n^2) < 1; return R."""
    if not (math.isfinite(m) and math.isfinite(n)):
        raise DomainError(f"m and n must be finite, got ({m}, {n})")
    r = math.hypot(m, n)
    if r >= 1.0:
        raise DomainError(f"R = sqrt(m^2 + n^2) = {r} must be < 1")
    return r


@dataclass(frozen=True)
class FamilyParams:
    """Coupling parameters (m, n) plus the deformation pair; R and b are derived."""

    m: float
    n: float
    nc: NCParams

    def __post_init__(self):
        validate_couplings(self.m, self.n)

    @property
    def r(self) -> float:
        return math.hypot(self.m, self.n)

    @property
    def b(self) -> float:
        return (1.0 + self.r) / (1.0 - self.r)

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "theta": self.nc.theta, "eta": self.nc.eta}

    @classmethod
    def from_json(cls, obj: dict) -> "FamilyParams":
        return cls(
            m=float(obj["m"]),
            n=float(obj["n"]),
            nc=NCParams(theta=float(obj["theta"]), eta=float(obj["eta"])),
        )


@dataclass(frozen=True)
class GaussianState:
    """Centered Gaussian with phase-space density norm * exp(-z^T Sigma^-1 z)."""

    params: FamilyParams
    sigma: np.ndarray
    norm: float


def _coupling_block(m: float, n: float) -> np.ndarray:
    return np.array(
        [
            [n, 0.0, m, 0.0],
            [0.0, n, 0.0, -m],
            [m, 0.0, -n, 0.0],
            [0.0, -m, 0.0, -n],
        ]
    )


def build_covariance(m: float, n: float, nc: NCParams, tol: Tolerances = DEFAULT_TOL) -> GaussianState:
    """Assemble the family covariance matrix for couplings (m, n)."""
    params = FamilyParams(m=m, n=n, nc=nc)
    coupling = _coupling_block(m, n)
    sigma = params.b / 2.0 * np.block([[np.eye(4), coupling.T], [coupling, np.eye(4)]])
    sigma = validate_covariance(sigma, tol)
    norm = 1.0 / (math.pi**4 * math.sqrt(np.linalg.det(sigma)))
    return GaussianState(params=params, sigma=sigma, norm=norm)


def family_form(nc: NCParams, tol: Tolerances = DEFAULT_TOL) -> CompositeForm:
    """Bipartite commutation form of the family: the same planar form for both parties."""
    part = build_planar_form(nc, tol)
    return build_composite_form(part, part)


def omega_pm(params: FamilyParams) -> tuple[float, float]:
    """The (omega_plus, omega_minus) combinations entering the closed forms."""
    m, n = params.m, params.n
    theta, eta = params.nc.theta, params.nc.eta
    square_sum = eta**2 + theta**2
    cross = abs(eta**2 - theta**2)
    plus = (
        2.0 * (1.0 + n**2)
        + (1.0 - n**2) * square_sum
        + 2.0 * m**2 * (1.0 + eta * theta)
        + 4.0 * m * (eta + theta)
    )
    minus = (
        2.0 * (1.0 - n**2)
        + (1.0 + n**2) * square_sum
        - 2.0 * m**2 * (1.0 + eta * theta)
        + 2.0 * n * cross
    )
    return plus, minus


@dataclass(frozen=True)
class ClosedFormInvariants:
    """Smallest invariants before (nu_minus) and after (nu_minus_prime) reflection."""

    omega_plus: float
    omega_minus: float
    nu_minus: float
    nu_minus_prime: float


def _checked_sqrt(value: float, tol: Tolerances) -> float:
    """sqrt with a clamp window for roundoff; genuinely negative input is an error."""
    if value < -tol.radicand:
        raise FormulaDomainError(f"negative radicand {value:.3e} in closed-form invariant")
    return math.sqrt(max(value, 0.0))


def _stable_root(omega_half: float, gap: float, c: float, tol: Tolerances) -> float:
    """Smaller root of x^2 - omega x + c^2 = 0, i.e. omega/2 - sqrt(omega^2/4 - c^2).

    Evaluated as c^2 / (omega/2 + sqrt((omega/2 - c)(omega/2 + c))) with the
    gap omega/2 - c supplied in a pre-cancelled form, so the double root at
    zero deformation (gap = 0) is hit exactly instead of through a
    sqrt-amplified cancellation.
    """
    inner = gap * (omega_half + c)
    denominator = omega_half + _checked_sqrt(inner, tol)
    if denominator <= 0.0:
        raise FormulaDomainError(f"non-positive pencil combination {denominator:.3e}")
    return c * c / denominator


def closed_form_invariants(params: FamilyParams, tol: Tolerances = DEFAULT_TOL) -> ClosedFormInvariants:
    """Evaluate the closed forms for nu_- and nu'_-.

    nu = (1/(1 - eta*theta)) * (1+R)/(1-R) * sqrt(omega/2 - sqrt(omega^2/4 - c^2))
    with c = (1-R^2)(1 - eta*theta), omega_minus feeding nu_- and omega_plus
    feeding nu'_-. The surds are rearranged algebraically so that the gaps

        omega_-/2 - c = (1+n^2)(eta^2+theta^2)/2 + eta*theta*(1 - 2m^2 - n^2)
                        + n*|eta^2 - theta^2|
        omega_+/2 - c = 2(m^2+n^2) + (1-n^2)(eta+theta)^2/2 + 2m(eta+theta)

    vanish identically at zero deformation / zero coupling; the naive
    difference loses half the working precision there.
    """
    m, n = params.m, params.n
    theta, eta = params.nc.theta, params.nc.eta
    plus, minus = omega_pm(params)
    deformation = 1.0 - eta * theta
    prefactor = params.b / deformation
    c = (1.0 - params.r**2) * deformation
    gap_minus = (
        (1.0 + n**2) * (eta**2 + theta**2) / 2.0
        + eta * theta * (1.0 - 2.0 * m**2 - n**2)
        + n * abs(eta**2 - theta**2)
    )
    gap_plus = (
        2.0 * (m**2 + n**2)
        + (1.0 - n**2) * (eta + theta) ** 2 / 2.0
        + 2.0 * m * (eta + theta)
    )
    nu = prefactor * _checked_sqrt(_stable_root(minus / 2.0, gap_minus, c, tol), tol)
    nu_prime = prefactor * _checked_sqrt(_stable_root(plus / 2.0, gap_plus, c, tol), tol)
    if nu <= 0.0 or nu_prime <= 0.0:
        raise NCGaussError("closed-form invariants must be positive")
    return ClosedFormInvariants(
        omega_plus=plus, omega_minus=minus, nu_minus=nu, nu_minus_prime=nu_prime
    )


def evaluate_wigner(state: GaussianState, z) -> float:
    """Phase-space density norm * exp(-z^T Sigma^-1 z) at the point z."""
    vec = np.asarray(z, dtype=float)
    if vec.shape != (state.sigma.shape[0],):
        raise DomainError(f"point must be a vector of length {state.sigma.shape[0]}")
    if not np.all(np.isfinite(vec)):
        raise DomainError("point contains non-finite entries")
    return float(state.norm * math.exp(-vec @ np.linalg.solve(state.sigma, vec)))
