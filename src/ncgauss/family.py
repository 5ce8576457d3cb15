"""The explicit two-mode-per-party Gaussian family on an 8-dimensional phase space.

The covariance matrix is b/2 * [[I4, G^T], [G, I4]] with a coupling block G
parameterized by reals (m, n), R = sqrt(m^2 + n^2) < 1 and b = (1+R)/(1-R).
Both parties share the same planar commutation form. Closed forms give the
Williamson spectra before and after partial transposition, which depend on |m|
and |n| only. They are one branch-free kernel, free of cancellation for the
smallest invariants, and decide every quadrant: ``family_invariants`` (scan, fig2,
eval) and ``family_spectra`` (fig1) run it at (|m|, |n|) and take no root of Sigma,
no inverse of a form and no eigensolve. The kernel is total: it scales theta and eta
by a power of two, so every admissible float point, theta and eta up to the largest
float, gets finite positive invariants, and no closed form can abort.
The dense 8x8 route, one eigvalsh per block of points with Sigma^-1/2 in closed form,
is only ``dense_spectra``: the cross-check of nu_- and nu'_- for ``eval --verbose`` and
the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _raise_first, _root_spectrum, block_diag, validate_covariance
from .errors import DimensionError, DomainError
from .phase_space import NCParams, build_planar_form, invalid_deformations
from .separability import primed_form


def validate_couplings(m: float, n: float) -> float:
    """Require finite couplings with R = sqrt(m^2 + n^2) < 1; return R."""
    if not (math.isfinite(m) and math.isfinite(n)):
        raise DomainError(f"m and n must be finite, got ({m}, {n})")
    r = math.hypot(m, n)
    if r >= 1.0:
        raise DomainError(f"R = sqrt(m^2 + n^2) = {r} must be < 1")
    return r


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


def build_covariance(m: float, n: float) -> np.ndarray:
    """The validated, read-only family covariance matrix Sigma for couplings (m, n), R < 1."""
    r = validate_couplings(m, n)
    return validate_covariance(_covariance_matrix(m, n, (1.0 + r) / (1.0 - r)))


def _deficit(thetas: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """1 - theta*eta to about an ulp near the hyperbola too: 1 - fl(theta*eta) less Dekker's exact error."""
    product = thetas * etas
    th, eh = ((v.view(np.int64) & -(1 << 27)).view(np.float64) for v in (thetas, etas))
    tl, el = thetas - th, etas - eh
    error = ((th * eh - product) + th * el + tl * eh) + tl * el
    return (1.0 - product) - error


def _invariant(gap, c, r: float):
    """b / (1 - theta*eta) times the square root of the smaller root of x^2 - 2(gap + c) x + c^2."""
    return (1.0 + r) ** 2 / np.sqrt(gap + c + np.sqrt(gap * (gap + 2.0 * c)))


def _inverse_scale(theta, eta):
    """1/k for the power of two k = 2^max(e - 200, 0), e the binary exponent of max(theta, eta)."""
    return np.ldexp(1.0, np.minimum(200 - np.frexp(np.maximum(theta, eta))[1], 0))


def _closed_forms(theta, eta, m: float, n: float, r: float):
    """nu_-, nu'_-, their pencils' gaps g = omega/2 - c over k^2, c and 1/k, at the points (theta, eta).

    theta and eta are numpy scalars or equal-shape arrays. Each invariant is
    b / (1 - theta*eta) times the square root of the smaller root of a pencil
    x^2 - omega x + c^2, c = (1-R^2)(1 - theta*eta): (1+R)^2 / sqrt(g + c + sqrt(g (g + 2c))).
    With s = theta + eta, q = (1-R)(1+R), q_n = (1-|n|)(1+|n|) and c from :func:`_deficit`,

        g_- = (|theta - eta| + n s)^2 / 2 + 2 theta eta q              (Omega, nu_-)
        g_+ = ((q_n s + 2m)^2 / 2 + 2 n^2 q) / q_n                     (Omega', nu'_-)

    The signs pick the pencil, n's for Omega and m's for Omega'. (|m|, |n|) gives
    the smallest invariants: every term is non-negative, so nothing cancels, also
    where a gap vanishes, near the hyperbola and as R -> 1. (-|m|, -|n|) gives the
    second ones, where (1+n)|theta - eta| + 2n min(theta, eta) keeps Omega's
    difference exact at theta = 0 or eta = 0, and the lift q_n s - 2|m| of Omega', which cancels as
    |m| -> 1, is (s - 2|m|) - n^2 s plus the rounding of s: no rounded q_n and no rounded s
    enters the difference. The kernel runs on theta/k, eta/k, 2m/k
    and c/k^2, k from :func:`_inverse_scale`, and divides each invariant by k: a power of
    two scales exactly, so nothing overflows at any float point, and below 2^200, where
    k = 1, every bit is that of the unscaled forms.
    """
    q = (1.0 - r) * (1.0 + r)
    q_n = (1.0 - abs(n)) * (1.0 + abs(n))
    c = q * _deficit(theta, eta)
    unit = _inverse_scale(theta, eta)
    theta, eta, c_k = theta * unit, eta * unit, c * unit * unit
    split = (1.0 + n) * abs(theta - eta) + 2.0 * n * np.minimum(theta, eta)
    total = theta + eta
    if m < 0.0:  # the second pencil; Knuth's two-sum gives the rounding of s
        late = total - theta
        lift = ((total + 2.0 * m * unit) - n * n * total) + ((theta - (total - late)) + (eta - late))
    else:
        lift = q_n * total + 2.0 * m * unit
    gap_minus = split * split / 2.0 + 2.0 * theta * eta * q
    gap_plus = (lift * lift / 2.0 + 2.0 * n * n * q * unit * unit) / q_n
    nu, nu_prime = _invariant(gap_minus, c_k, r) * unit, _invariant(gap_plus, c_k, r) * unit
    return nu, nu_prime, gap_minus, gap_plus, c, unit


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


def family_spectra(thetas, etas, m: float, n: float) -> tuple[np.ndarray, np.ndarray]:
    """Williamson spectra of (Sigma, Omega) and (Sigma, Omega') at the points (thetas[k], etas[k]).

    Returns two (N, 4) arrays, ascending along each row, with NaN rows where
    theta*eta >= 1. Closed form in every quadrant: each form has two pencils x^2 - omega x + c^2
    (:func:`_closed_forms`) with roots nu_k and b(1+R)^2 / ((1 - theta*eta) nu_k). No root of Sigma
    or inverse of a form is taken; the inputs are checked, naming the first failing point.
    nu_3 and nu_4 are inf only where they exceed the float range.
    """
    thetas, etas, r = _checked_points(thetas, etas, m, n)
    out = np.full((2, len(thetas), 4), np.nan)
    todo = np.flatnonzero(thetas * etas < 1.0)
    ts, es = thetas[todo], etas[todo]
    nu_1, nup_1, *_, c, _ = _closed_forms(ts, es, abs(m), abs(n), r)
    nu_2, nup_2 = _closed_forms(ts, es, -abs(m), -abs(n), r)[:2]
    smallest, second = np.array([nu_1, nup_1]), np.array([nu_2, nup_2])
    product = (1.0 + r) ** 4 / c  # nu_1 nu_4 = nu_2 nu_3 = b (1+R)^2 / (1 - theta*eta)
    with np.errstate(over="ignore"):  # nu_3 and nu_4 beyond the float range are inf
        rows = np.stack([smallest, second, product / second, product / smallest], axis=-1)
    out[:, todo] = np.maximum.accumulate(rows, axis=-1)  # roundoff can swap equal roots
    return out[0], out[1]


def family_invariants(thetas, etas, m: float, n: float) -> tuple[np.ndarray, np.ndarray]:
    """Smallest invariants nu_- and nu'_- at the points (thetas[k], etas[k]).

    Returns two float arrays, NaN where theta*eta >= 1. The closed forms decide every
    point in every quadrant: they depend on |m| and |n| only, so the kernel runs at
    (|m|, |n|) (see :func:`_closed_forms`), and answer at every admissible
    float point. A failing input check raises for the first failing point, naming its
    (theta, eta, m, n) with the couplings as given.
    """
    thetas, etas, r = _checked_points(thetas, etas, m, n)
    nu, nu_prime = np.full((2, len(thetas)), np.nan)
    todo = np.flatnonzero(thetas * etas < 1.0)
    ts, es = thetas[todo], etas[todo]
    # One point runs on numpy scalars: the same arithmetic at a fifth of the cost.
    points = (ts[0], es[0]) if todo.size == 1 else (ts, es)
    nu[todo], nu_prime[todo] = _closed_forms(*points, abs(m), abs(n), r)[:2]
    return nu, nu_prime


def _inverse_root(m: float, n: float, r: float) -> np.ndarray:
    """Sigma^-1/2 = a+ P+ + a- P- of Sigma = b/2 (I + K), K = [[0, G], [G, 0]], G^2 = R^2 I.

    P+- = (I +- K/R)/2, a+ = sqrt(2(1-R))/(1+R), a- = sqrt(2/(1+R)): d I + k K with d = (a+ + a-)/2
    and k = (a+ - a-)/(2R) = -sqrt(2) / ((1+R)(sqrt(1+R) + sqrt(1-R))), so nothing cancels and
    R = 0 gives sqrt(2) I exactly. The rounded R moves it by up to eps/(1-R) relative, as eigh's.
    """
    a_plus, a_minus = math.sqrt(2.0 * (1.0 - r)) / (1.0 + r), math.sqrt(2.0 / (1.0 + r))
    k = -math.sqrt(2.0) / ((1.0 + r) * (math.sqrt(1.0 + r) + math.sqrt(1.0 - r)))
    root = np.diag(np.full(8, (a_plus + a_minus) / 2.0))
    root[4:, :4] = root[:4, 4:] = k * _coupling_block(m, n)
    return root


# (Omega, Omega') = (Diag[P, P], Diag[P, -P]) = theta _THETA + eta _ETA + _UNIT, one nonzero term per entry.
_UNIT, _THETA, _ETA = (np.stack([block_diag(part, part), primed_form(part, part)]) for part in
                       map(build_planar_form, map(NCParams, (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))))
_THETA, _ETA = _THETA - _UNIT, _ETA - _UNIT

# Points per stacked product and eigvalsh call. The stacks and work arrays of a block
# take up to about 5 kB per point, so a large grid needs no more memory than a small one.
_BLOCK = 512


def dense_spectra(thetas, etas, m: float, n: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`family_spectra` by the dense 8x8 route, with the same checks: the cross-check of nu_- and nu'_-.

    One eigvalsh per block of points. Sigma^-1/2 is in closed form and no form is inverted, so
    neither is checked. nu_- and nu'_- are good to a few eps (1 + 1/(1-R)), the 1/(1-R) from the
    rounded R. The larger nu_k are good only to about 8 eps nu_k / nu_min, so they check nothing
    at ill-conditioned points: at (1e13, 0, -0.3, 0.2) nu_4 comes out near 5e4, not 2.55e13.
    Each point's forms and invariants are divided by the kernel's k (:func:`_inverse_scale`), exactly:
    (i/2) S (Omega/k) S has eigenvalues +-1/(k nu), nothing overflows, and below 2^200 every bit is kept.
    """
    thetas, etas, r = _checked_points(thetas, etas, m, n)
    out = np.full((len(thetas), 2, 4), np.nan)
    todo = np.flatnonzero(thetas * etas < 1.0)
    root = _inverse_root(m, n, r)
    for start in range(0, todo.size, _BLOCK):
        block = todo[start : start + _BLOCK]
        where = _point_names(thetas[block], etas[block], m, n)
        ts, es = thetas[block, None, None, None], etas[block, None, None, None]
        unit = _inverse_scale(ts, es)
        forms = (ts * unit) * _THETA + (es * unit) * _ETA + unit * _UNIT
        out[block] = _root_spectrum(root, forms, lambda k: where(k // 2)) * unit[..., 0]
    return out[:, 0], out[:, 1]
