"""Noncommutative commutation forms and Darboux maps, as plain read-only float64 arrays.

Variables are ordered (x_1..x_n, p_1..p_n) inside each party, so a party's
form takes the block layout [[Theta, I], [-I, Upsilon]] with skew
deformation blocks Theta (position-position) and Upsilon (momentum-momentum).
A bipartite form is Diag[Omega_A, Omega_B]; ``separability.classify`` takes the
two party forms and assembles it. A Darboux map S turns standard commuting
variables into the deformed ones, S J S^T = Omega; it is block-diagonal over the
two parties and not unique.
Every input theta and eta, NCParams' and each point of the family routes, meets one check,
``kernel.admissible_deformations``, with one message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _asymmetric,
    _readonly,
    block_diag,
    standard_symplectic_form,
    validate_covariance,
    validate_skew_form,
)
from .errors import DimensionError, DomainError, MatrixStructureError
from .kernel import _BAD_DEFORMATION, admissible_deformations

# 2x2 antisymmetric symbol with epsilon_12 = +1.
EPSILON2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class NCParams:
    """Planar deformation strengths theta (position) and eta (momentum)."""

    theta: float
    eta: float

    def __post_init__(self):
        if not admissible_deformations(self.theta, self.eta):
            raise DomainError(f"{_BAD_DEFORMATION}, got ({self.theta}, {self.eta})")
        if self.theta * self.eta >= 1:
            raise DomainError(f"theta*eta must be < 1, got ({self.theta}, {self.eta})")


def _check_skew_block(block, n_modes: int, name: str) -> np.ndarray:
    arr = np.asarray(block, dtype=float)
    if arr.shape != (n_modes, n_modes):
        raise DimensionError(f"{name} block must be {n_modes}x{n_modes}, got {arr.shape}")
    if _asymmetric(arr, -1.0):
        raise MatrixStructureError(f"{name} block is not skew-symmetric within tolerance")
    return arr


def build_subsystem_form(theta, upsilon) -> np.ndarray:
    """The validated, read-only party form [[Theta, I], [-I, Upsilon]], one mode per row of Theta."""
    n_modes = np.shape(theta)[0] if np.ndim(theta) == 2 else 0
    if n_modes < 1:
        raise DimensionError(f"position deformation block must be a square matrix, got {np.shape(theta)}")
    theta = _check_skew_block(theta, n_modes, "position deformation")
    upsilon = _check_skew_block(upsilon, n_modes, "momentum deformation")
    eye = np.eye(n_modes)
    return validate_skew_form(np.block([[theta, eye], [-eye, upsilon]]))


def build_planar_form(params: NCParams) -> np.ndarray:
    """The 4x4 two-mode party form P, with Theta = theta*eps and Upsilon = eta*eps."""
    return build_subsystem_form(params.theta * EPSILON2, params.eta * EPSILON2)


def _planar_darboux_block(params: NCParams, lam: float, mu: float) -> np.ndarray:
    # Sign placement fixed by requiring S J S^T = Omega with the
    # (x1, x2, p1, p2) ordering: the eta entry in the last row is negative.
    half_theta = params.theta / (2.0 * lam)
    half_eta = params.eta / (2.0 * mu)
    return np.array(
        [
            [lam, 0.0, 0.0, -half_theta],
            [0.0, lam, half_theta, 0.0],
            [0.0, half_eta, mu, 0.0],
            [-half_eta, 0.0, 0.0, mu],
        ]
    )


def build_darboux_map(params: NCParams, lambda_scale: float = 1.0) -> np.ndarray:
    """The read-only 8x8 planar Darboux map Diag[S_A, S_A], with free gauge parameter lambda.

    mu is fixed by lambda*mu = (1 + sqrt(1 - eta*theta)) / 2, which keeps the
    map invertible (det of each block is 1 - eta*theta). lambda and mu are the
    diagonal entries S_A[0, 0] and S_A[2, 2]. S_A splits into two 2x2 blocks of determinant
    sqrt(1 - theta*eta) and squared Frobenius norm f = lambda^2 + mu^2 + a^2 + b^2, a = theta/(2 lambda),
    b = eta/(2 mu), so cond_2(S_A) is within a factor 2 of f / sqrt(1 - theta*eta), about
    (theta/lambda)^2 / 4 where theta/lambda dominates: the digits a caller that inverts S loses.

    Raises:
        DomainError: lambda is not finite and > 0, or S or S J S^T leaves the float range, named by
            (theta, eta, lambda).
        MatrixStructureError: S J S^T misses Omega by more than its roundoff, a construction error.
    """
    if not math.isfinite(lambda_scale) or lambda_scale <= 0:
        raise DomainError(f"lambda must be > 0, got {lambda_scale}")
    product = (1.0 + math.sqrt(1.0 - params.eta * params.theta)) / 2.0
    blk = _planar_darboux_block(params, lambda_scale, product / lambda_scale)
    jay = standard_symplectic_form(2)
    point = f"(theta, eta, lambda) = ({params.theta!r}, {params.eta!r}, {lambda_scale!r})"
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry of S puts NaN on its row's diagonal
        image = blk @ jay @ blk.T
    if not np.isfinite(image).all():
        raise DomainError(f"the Darboux map leaves the float range at {point}")
    # |S J S^T - Omega| <= 8 eps |S| |J| |S|^T, entrywise. S J is exact (J moves and negates columns), so
    # Higham's gamma_4 |S J| |S^T| bounds the product's rounding: 4u = 2 eps, u = eps/2. Each entry sums
    # two products of block entries (theta = 2 lambda a, eta = 2 b mu, 1 = lambda mu + a b); a, b, mu carry
    # one rounding each, 3u of that sum, and P + theta eta/(4P), P = lambda mu, is stationary in P where
    # sqrt(1 - theta eta) rounds worst: P adds about 2u. Doubled; a flipped sign moves an entry far more.
    bound = 8.0 * np.finfo(float).eps * (abs(blk) @ abs(jay) @ abs(blk).T)
    if not (abs(image - build_planar_form(params)) <= bound).all():
        raise MatrixStructureError(f"constructed map violates S J S^T = Omega at {point}")
    return _readonly(block_diag(blk, blk))


def transform_covariance(dmap, sigma_tilde) -> np.ndarray:
    """Push a covariance matrix through the map S: Sigma = S Sigma~ S^T."""
    sig = validate_covariance(sigma_tilde)
    dmap = np.asarray(dmap, dtype=float)
    if dmap.shape != sig.shape:
        raise DimensionError(f"covariance is {sig.shape[0]}-dimensional but map has shape {dmap.shape}")
    out = dmap @ sig @ dmap.T
    out = 0.5 * (out + out.T)  # exact symmetry despite roundoff
    return validate_covariance(out)
