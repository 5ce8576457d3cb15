"""The explicit two-mode-per-party Gaussian family on an 8-dimensional phase space.

The covariance matrix is b/2 * [[I4, G^T], [G, I4]] with a coupling block G
parameterized by reals (m, n), R = sqrt(m^2 + n^2) < 1 and b = (1+R)/(1-R).
Both parties share the same planar commutation form. Closed forms give the
Williamson spectra before and after partial transposition, which depend on |m|
and |n| only. They are one branch-free kernel (``kernel._closed_forms``), free of
cancellation for the smallest invariants, and decide every quadrant: ``family_invariants``
(scan, fig2), ``kernel.point_invariants`` (eval) and ``family_spectra`` (fig1) run it at
(|m|, |n|) and take no root of Sigma, no inverse of a form and no eigensolve.
Every route checks theta and eta (``kernel.admissible_deformations``), then the couplings
(``kernel.validate_couplings``); the CLI passes its numbers on unchecked, so these are its messages.
The dense 8x8 route, one eigvalsh per block of points with Sigma^-1/2 in closed form,
is only ``dense_spectra``: the cross-check of nu_- and nu'_- for ``eval --verbose`` and
the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _root_spectrum, block_diag, validate_covariance
from .errors import DimensionError, DomainError
from .kernel import _BAD_DEFORMATION, _closed_forms, _point_name, admissible_deformations, validate_couplings
from .phase_space import NCParams, build_planar_form
from .separability import primed_form


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


def _checked_points(thetas, etas, m: float, n: float) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The points as 1-D float arrays, each checked by ``kernel.admissible_deformations``; also R
    and the indices of the points in the domain theta*eta < 1."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    if thetas.ndim != 1 or thetas.shape != etas.shape:
        raise DimensionError(f"theta and eta must be 1-D of one length, got {thetas.shape}, {etas.shape}")
    bad = np.flatnonzero(~admissible_deformations(thetas, etas))
    if bad.size:  # name the first failing point, in row-major order
        raise DomainError(f"{_BAD_DEFORMATION} at {_point_name(thetas[bad[0]], etas[bad[0]], m, n)}")
    with np.errstate(over="ignore"):  # theta*eta beyond the float range is inf, off the domain
        todo = np.flatnonzero(thetas * etas < 1.0)
    return thetas, etas, validate_couplings(m, n), todo


def family_spectra(thetas, etas, m: float, n: float) -> tuple[np.ndarray, np.ndarray]:
    """Williamson spectra of (Sigma, Omega) and (Sigma, Omega') at the points (thetas[k], etas[k]).

    Returns two (N, 4) arrays, ascending along each row, with NaN rows where
    theta*eta >= 1. Closed form in every quadrant: each form has two pencils x^2 - omega x + c^2
    (:func:`_closed_forms`) with roots nu_k and b(1+R)^2 / ((1 - theta*eta) nu_k). No root of Sigma
    or inverse of a form is taken; the inputs are checked, naming the first failing point.
    nu_3 and nu_4 are inf only where they exceed the float range.
    """
    thetas, etas, r, todo = _checked_points(thetas, etas, m, n)
    out = np.full((2, len(thetas), 4), np.nan)
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
    thetas, etas, r, todo = _checked_points(thetas, etas, m, n)
    nu, nu_prime = np.full((2, len(thetas)), np.nan)
    nu[todo], nu_prime[todo] = _closed_forms(thetas[todo], etas[todo], abs(m), abs(n), r)[:2]
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
    ``core._root_spectrum`` scales each form by the closed forms' power of two, so nothing overflows
    up to the largest float: Sigma^-1/2's entries are at most sqrt 2, and a scaled form's below 2^200.
    """
    thetas, etas, r, todo = _checked_points(thetas, etas, m, n)
    out = np.full((len(thetas), 2, 4), np.nan)
    root = _inverse_root(m, n, r)
    for start in range(0, todo.size, _BLOCK):
        block = todo[start : start + _BLOCK]
        ts, es = thetas[block, None, None, None], etas[block, None, None, None]
        out[block] = _root_spectrum(root, ts * _THETA + es * _ETA + _UNIT)
    return out[:, 0], out[:, 1]
