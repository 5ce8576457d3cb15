"""The explicit two-mode-per-party Gaussian family on an 8-dimensional phase space.

The covariance matrix is b/2 * [[I4, G^T], [G, I4]] with a coupling block G
parameterized by reals (m, n), R = sqrt(m^2 + n^2) < 1 and b = (1+R)/(1-R).
Both parties share the same planar commutation form. Closed forms give the
Williamson spectra before and after partial transposition, which depend on |m|
and |n| only: ``family_spectra`` (figure 1) is closed form in every quadrant.
For ``family_invariants`` the couplings pick the route: closed forms on the
m, n >= 0 quadrant, the dense spectral route off it. A point where a closed form
leaves its domain raises and names itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _check_skew_forms,
    _raise_first,
    _root_spectrum,
    covariance_root,
    validate_covariance,
)
from .errors import DimensionError, DomainError, FormulaDomainError, NCGaussError, NotPositiveDefiniteError
from .phase_space import (
    EPSILON2,
    CompositeForm,
    NCParams,
    build_composite_form,
    build_planar_form,
    invalid_deformations,
)

# Radicands in [-RADICAND, 0) are roundoff and clamp to 0; below that the closed form
# has left its domain, and the point raises FormulaDomainError.
RADICAND = 1e-12


def _scale(r: float) -> float:
    """The covariance scale b = (1+R)/(1-R)."""
    return (1.0 + r) / (1.0 - r)


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
        return _scale(self.r)


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


def _covariance_matrix(m: float, n: float, b: float) -> np.ndarray:
    """b/2 * [[I4, G^T], [G, I4]]."""
    unit = np.eye(8)
    unit[4:, :4] = _coupling_block(m, n)
    unit[:4, 4:] = unit[4:, :4].T
    return b / 2.0 * unit


def build_covariance(m: float, n: float, nc: NCParams) -> GaussianState:
    """Assemble the family covariance matrix for couplings (m, n)."""
    params = FamilyParams(m=m, n=n, nc=nc)
    sigma = validate_covariance(_covariance_matrix(m, n, params.b))
    norm = 1.0 / (math.pi**4 * math.sqrt(np.linalg.det(sigma)))
    return GaussianState(params=params, sigma=sigma, norm=norm)


def family_form(nc: NCParams) -> CompositeForm:
    """Bipartite commutation form of the family: the same planar form for both parties."""
    part = build_planar_form(nc)
    return build_composite_form(part, part)


@dataclass(frozen=True)
class ClosedFormInvariants:
    """Smallest invariants before (nu_minus) and after (nu_minus_prime) reflection."""

    omega_plus: float
    omega_minus: float
    nu_minus: float
    nu_minus_prime: float


def _checked_sqrt(value):
    """sqrt with a clamp window for roundoff, and the flag of genuinely negative input."""
    return np.sqrt(np.maximum(value, 0.0)), value < -RADICAND


def _stable_root(omega_half, gap, c):
    """Smaller root of x^2 - omega x + c^2 = 0, i.e. omega/2 - sqrt(omega^2/4 - c^2), and its flag.

    Evaluated as c^2 / (omega/2 + sqrt((omega/2 - c)(omega/2 + c))) with the
    gap omega/2 - c supplied in a pre-cancelled form, so the double root at
    zero deformation (gap = 0) is hit exactly instead of through a
    sqrt-amplified cancellation. The flag marks a negative radicand or a
    non-positive denominator.
    """
    surd, flag = _checked_sqrt(gap * (omega_half + c))
    denominator = omega_half + surd
    return c * c / denominator, flag | (denominator <= 0.0)


def _closed_forms(theta, eta, m: float, n: float, r: float):
    """omega_+, omega_-, nu_-, nu'_- and the out-of-domain flag at the points (theta, eta).

    theta and eta are numpy scalars or equal-shape arrays. Where the flag is set
    a radicand is negative beyond RADICAND or a pencil combination is not
    positive, and the invariants there mean nothing.

    nu = (1/(1 - eta*theta)) * (1+R)/(1-R) * sqrt(omega/2 - sqrt(omega^2/4 - c^2))
    with c = (1-R^2)(1 - eta*theta), omega_minus feeding nu_- and omega_plus
    feeding nu'_-. The surds are rearranged algebraically so that the gaps

        omega_-/2 - c = (1+n^2)(eta^2+theta^2)/2 + eta*theta*(1 - 2m^2 - n^2)
                        + n*|eta^2 - theta^2|
        omega_+/2 - c = 2(m^2+n^2) + (1-n^2)(eta+theta)^2/2 + 2m(eta+theta)

    vanish identically at zero deformation / zero coupling; the naive
    difference loses half the working precision there. Each form has two pencils, picked
    by the sign of n (Omega) and of m (Omega'): -|m|, -|n| give the second invariants from
    gaps that are sums of non-negative terms, and omega/2 = gap + c, as its sum cancels.
    """
    with np.errstate(all="ignore"):  # the flag reports points where this divides by zero
        # float_power is the libm pow behind Python's x**2. numpy's array x**2 is x*x,
        # which differs from pow in the last bit for some inputs; with pow, a point
        # gives the same bits alone, in a grid and through the scalar API.
        theta2, eta2 = np.float_power(theta, 2.0), np.float_power(eta, 2.0)
        plus = (
            2.0 * (1.0 + n**2)
            + (1.0 - n**2) * (eta2 + theta2)
            + 2.0 * m**2 * (1.0 + eta * theta)
            + 4.0 * m * (eta + theta)
        )
        minus = (
            2.0 * (1.0 - n**2)
            + (1.0 + n**2) * (eta2 + theta2)
            - 2.0 * m**2 * (1.0 + eta * theta)
            + 2.0 * n * abs(eta2 - theta2)
        )
        deformation = 1.0 - eta * theta
        c = (1.0 - r**2) * deformation
        if n >= 0.0:
            gap_minus = ((1.0 + n**2) * (eta2 + theta2) / 2.0 + eta * theta * (1.0 - 2.0 * m**2 - n**2)
                         + n * abs(eta2 - theta2))
        else:
            gap_minus = (np.float_power(abs(theta - eta) + n * (eta + theta), 2.0) / 2.0
                         + 2.0 * eta * theta * (1.0 - r**2))
        if m >= 0.0:
            gap_plus = (2.0 * (m**2 + n**2) + (1.0 - n**2) * np.float_power(eta + theta, 2.0) / 2.0
                        + 2.0 * m * (eta + theta))
        else:
            gap_plus = (np.float_power((1.0 - n**2) * (eta + theta) + 2.0 * m, 2.0) / 2.0
                        + 2.0 * n**2 * (1.0 - r**2)) / (1.0 - n**2)
        root, flag = _stable_root(minus / 2.0 if n >= 0.0 else gap_minus + c, gap_minus, c)
        root_prime, flag_prime = _stable_root(plus / 2.0 if m >= 0.0 else gap_plus + c, gap_plus, c)
        nu, flag_nu = _checked_sqrt(root)
        nu_prime, flag_nu_prime = _checked_sqrt(root_prime)
        prefactor = _scale(r) / deformation
        return (plus, minus, prefactor * nu, prefactor * nu_prime,
                flag | flag_prime | flag_nu | flag_nu_prime)


def _checked_closed_forms(theta, eta, m: float, n: float, r: float, where):
    """:func:`_closed_forms` less the flag; raises for the first point flagged or not positive."""
    plus, minus, nu, nu_prime, off = _closed_forms(theta, eta, m, n, r)
    _raise_first(off, FormulaDomainError, "closed form leaves its domain", where)
    _raise_first(~((nu > 0.0) & (nu_prime > 0.0)), NCGaussError,
                 "closed-form invariants must be positive", where)
    return plus, minus, nu, nu_prime


def closed_form_invariants(params: FamilyParams) -> ClosedFormInvariants:
    """Evaluate the closed forms for nu_- and nu'_- at one point (see :func:`_closed_forms`).

    Raises:
        FormulaDomainError: a closed form leaves its domain at this point.
        NCGaussError: an invariant is not positive.
    """
    theta, eta = np.float64(params.nc.theta), np.float64(params.nc.eta)
    where = _point_names([theta], [eta], params.m, params.n)
    plus, minus, nu, nu_prime = _checked_closed_forms(theta, eta, params.m, params.n, params.r, where)
    return ClosedFormInvariants(
        omega_plus=float(plus), omega_minus=float(minus), nu_minus=float(nu), nu_minus_prime=float(nu_prime)
    )


# Points per stacked check, solve and eigvalsh call. The stacks and work arrays of a block
# take up to about 5 kB per point, so a large grid needs no more memory than a small one.
_BLOCK = 512


def _point_names(thetas, etas, m: float, n: float):
    """``where`` for the per-point checks: names point k of the arrays."""
    return lambda k: (
        f"(theta, eta, m, n) = ({float(thetas[k])!r}, {float(etas[k])!r}, {float(m)!r}, {float(n)!r})"
    )


def _checked_points(thetas, etas, m: float, n: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The points as 1-D float arrays, each checked for finite theta, eta >= 0; also R."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    if thetas.ndim != 1 or thetas.shape != etas.shape:
        raise DimensionError(f"theta and eta must be 1-D of one length, got {thetas.shape}, {etas.shape}")
    _raise_first(invalid_deformations(thetas, etas), DomainError,
                 "theta and eta must be finite and >= 0", _point_names(thetas, etas, m, n))
    return thetas, etas, validate_couplings(m, n)


def _planar_forms(thetas: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """The planar forms [[theta eps, I], [-I, eta eps]], entry for entry as build_planar_form."""
    planar = np.empty((len(thetas), 4, 4))
    planar[:, :2, :2] = thetas[:, None, None] * EPSILON2
    planar[:, :2, 2:] = np.eye(2)
    planar[:, 2:, :2] = -np.eye(2)
    planar[:, 2:, 2:] = etas[:, None, None] * EPSILON2
    return planar


def _deficit(thetas: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """1 - theta*eta to about an ulp near the hyperbola too: 1 - fl(theta*eta) less Dekker's exact error."""
    product = thetas * etas
    th, eh = ((v.view(np.int64) & -(1 << 27)).view(np.float64) for v in (thetas, etas))
    tl, el = thetas - th, etas - eh
    error = ((th * eh - product) + th * el + tl * eh) + tl * el
    return (1.0 - product) - error


def family_spectra(thetas, etas, m: float, n: float) -> tuple[np.ndarray, np.ndarray]:
    """Williamson spectra of (Sigma, Omega) and (Sigma, Omega') at the points (thetas[k], etas[k]).

    Returns two (N, 4) arrays, ascending along each row, with NaN rows where
    theta*eta >= 1. Closed form in every quadrant: each form has two pencils x^2 - omega x + c^2
    (:func:`_closed_forms`) with roots nu_k and b(1+R)^2 / ((1 - theta*eta) nu_k). The checks
    are those of the spectral route, and a failing check raises naming the first failing point.
    """
    thetas, etas, r = _checked_points(thetas, etas, m, n)
    _covariance_root(m, n, r)
    out = np.full((2, len(thetas), 4), np.nan)
    todo = np.flatnonzero(thetas * etas < 1.0)
    ts, es = thetas[todo], etas[todo]
    for start in range(0, todo.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        _check_skew_forms(_planar_forms(ts[block], es[block]), _point_names(ts[block], es[block], m, n))
    where = _point_names(ts, es, m, n)
    smallest, second = (np.array(_checked_closed_forms(ts, es, sign * abs(m), sign * abs(n), r, where)[2:])
                        for sign in (1.0, -1.0))  # each holds the (nu, nu') pair
    product = _scale(r) * (1.0 + r) ** 2 / _deficit(ts, es)  # nu_1 nu_4 = nu_2 nu_3
    rows = np.stack([smallest, second, product / second, product / smallest], axis=-1)
    out[:, todo] = np.maximum.accumulate(rows, axis=-1)  # roundoff can swap equal roots
    return out[0], out[1]


def _covariance_root(m: float, n: float, r: float) -> np.ndarray:
    """sqrt(Sigma) after its check; Sigma depends on the couplings only, so a failure names them."""
    try:
        return covariance_root(_covariance_matrix(m, n, _scale(r)))
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(f"{exc} at (m, n) = ({float(m)!r}, {float(n)!r})") from None


def _spectra(thetas: np.ndarray, etas: np.ndarray, r: float, m: float, n: float
             ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`family_spectra` by the dense route, on checked points: one solve and eigvalsh per block."""
    out = np.full((len(thetas), 2, 4), np.nan)
    todo = np.flatnonzero(thetas * etas < 1.0)
    root = _covariance_root(m, n, r)
    for start in range(0, todo.size, _BLOCK):
        block = todo[start : start + _BLOCK]
        where = _point_names(thetas[block], etas[block], m, n)
        planar = _planar_forms(thetas[block], etas[block])
        # Diag[P, P] needs no check of its own: it has P's skewness and the geometric-mean and
        # RMS singular values of P, and the 8x8 singularity threshold is below the 4x4 one.
        _check_skew_forms(planar, where)
        # Omega = Diag[P, P] and Omega' = Diag[P, -P], as family_form and primed_form build them.
        forms = np.zeros((len(block), 2, 8, 8))
        forms[:, :, :4, :4] = planar[:, None]
        forms[:, 0, 4:, 4:] = planar
        forms[:, 1, 4:, 4:] = -planar
        out[block] = _root_spectrum(root, forms, lambda k: where(k // 2))
    return out[:, 0], out[:, 1]


def dense_spectra(thetas, etas, m: float, n: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`family_spectra` by the dense 8x8 route, with the same checks: its cross-check."""
    return _spectra(*_checked_points(thetas, etas, m, n), m, n)


def family_invariants(thetas, etas, m: float, n: float) -> tuple[np.ndarray, np.ndarray]:
    """Smallest invariants nu_- and nu'_- at the points (thetas[k], etas[k]).

    Returns two float arrays, NaN where theta*eta >= 1. The couplings pick the
    route for every point: the closed forms on the m, n >= 0 quadrant, where
    they are exact, and :func:`family_spectra` off it. A failing check raises
    for the first failing point, naming its (theta, eta, m, n); on the quadrant
    that includes a point where a closed form leaves its domain
    (:class:`FormulaDomainError`).
    """
    thetas, etas, r = _checked_points(thetas, etas, m, n)
    nu = np.full(len(thetas), np.nan)
    nu_prime = nu.copy()
    todo = np.flatnonzero(thetas * etas < 1.0)
    if not todo.size:
        return nu, nu_prime
    if m >= 0.0 and n >= 0.0:
        ts, es = thetas[todo], etas[todo]
        # One point runs on numpy scalars: the same arithmetic at a fifth of the cost.
        points = (ts, es) if todo.size > 1 else (ts[0], es[0])
        nu[todo], nu_prime[todo] = _checked_closed_forms(*points, m, n, r, _point_names(ts, es, m, n))[2:]
    else:
        spectrum, reflected = _spectra(thetas[todo], etas[todo], r, m, n)
        nu[todo], nu_prime[todo] = spectrum[:, 0], reflected[:, 0]
    return nu, nu_prime


def evaluate_wigner(state: GaussianState, z) -> float:
    """Phase-space density norm * exp(-z^T Sigma^-1 z) at the point z."""
    vec = np.asarray(z, dtype=float)
    if vec.shape != (state.sigma.shape[0],):
        raise DomainError(f"point must be a vector of length {state.sigma.shape[0]}")
    if not np.all(np.isfinite(vec)):
        raise DomainError("point contains non-finite entries")
    return float(state.norm * math.exp(-vec @ np.linalg.solve(state.sigma, vec)))
