"""Noncommutative commutation forms and Darboux maps.

Variables are ordered (x_1..x_n, p_1..p_n) inside each subsystem, so a
subsystem form takes the block layout [[Theta, I], [-I, Upsilon]] with skew
deformation blocks Theta (position-position) and Upsilon (momentum-momentum).
A Darboux map S turns standard commuting variables into the deformed ones,
S J S^T = Omega; it is block-diagonal over the two parties and not unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAP_RESIDUAL,
    _asymmetric,
    _readonly,
    block_diag,
    numerically_singular,
    standard_symplectic_form,
    validate_covariance,
    validate_skew_form,
)
from .errors import DimensionError, DomainError, MatrixStructureError, SingularMatrixError

# 2x2 antisymmetric symbol with epsilon_12 = +1.
EPSILON2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def invalid_deformations(theta, eta):
    """Flag theta or eta non-finite or negative, per point for arrays.

    theta*eta < 1 is a separate test: grid points beyond the hyperbola are kept
    as invalid rows, while these inputs are errors.
    """
    return ~(np.isfinite(theta) & np.isfinite(eta)) | (theta < 0) | (eta < 0)


@dataclass(frozen=True)
class NCParams:
    """Planar deformation strengths theta (position) and eta (momentum)."""

    theta: float
    eta: float

    def __post_init__(self):
        if invalid_deformations(self.theta, self.eta):
            raise DomainError(f"theta and eta must be finite and >= 0, got ({self.theta}, {self.eta})")
        if self.theta * self.eta >= 1:
            raise DomainError(
                f"theta*eta = {self.theta * self.eta} violates the domain theta*eta < 1"
            )


@dataclass(frozen=True)
class SubsystemForm:
    """Commutation form of one party: [[Theta, I], [-I, Upsilon]], dimension 2n."""

    n_modes: int
    assembled: np.ndarray


@dataclass(frozen=True)
class CompositeForm:
    """Bipartite commutation form Diag[Omega_A, Omega_B]."""

    part_a: SubsystemForm
    part_b: SubsystemForm
    assembled: np.ndarray

    @property
    def n_a(self) -> int:
        return self.part_a.n_modes

    @property
    def n_b(self) -> int:
        return self.part_b.n_modes


def _check_skew_block(block, n_modes: int, name: str) -> np.ndarray:
    arr = np.asarray(block, dtype=float)
    if arr.shape != (n_modes, n_modes):
        raise DimensionError(f"{name} block must be {n_modes}x{n_modes}, got {arr.shape}")
    if _asymmetric(arr, -1.0):
        raise MatrixStructureError(f"{name} block is not skew-symmetric within tolerance")
    return arr


def build_subsystem_form(n_modes: int, theta, upsilon) -> SubsystemForm:
    """Assemble and validate a subsystem form from its deformation blocks Theta and Upsilon."""
    if n_modes < 1:
        raise DimensionError(f"number of modes must be >= 1, got {n_modes}")
    theta = _check_skew_block(theta, n_modes, "position deformation")
    upsilon = _check_skew_block(upsilon, n_modes, "momentum deformation")
    eye = np.eye(n_modes)
    assembled = validate_skew_form(np.block([[theta, eye], [-eye, upsilon]]))  # raises if singular
    return SubsystemForm(n_modes=n_modes, assembled=assembled)


def build_planar_form(params: NCParams) -> SubsystemForm:
    """Two-mode form with Theta = theta*eps and Upsilon = eta*eps."""
    return build_subsystem_form(2, params.theta * EPSILON2, params.eta * EPSILON2)


def build_composite_form(
    part_a: SubsystemForm, part_b: SubsystemForm
) -> CompositeForm:
    """Stack two subsystem forms into the bipartite block-diagonal form."""
    assembled = _readonly(block_diag(part_a.assembled, part_b.assembled))
    return CompositeForm(part_a=part_a, part_b=part_b, assembled=assembled)


@dataclass(frozen=True)
class DarbouxMap:
    """Block-diagonal linear map S = Diag[S_A, S_B] = ``assembled`` between variable sets.

    Construction checks nothing; :func:`build_darboux_map` checks S J S^T = Omega for the maps it builds.
    """

    s_a: np.ndarray
    s_b: np.ndarray
    assembled: np.ndarray


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


def build_darboux_map(params: NCParams, lambda_scale: float = 1.0) -> DarbouxMap:
    """Planar Darboux map with free gauge parameter lambda; S_A = S_B.

    mu is fixed by lambda*mu = (1 + sqrt(1 - eta*theta)) / 2, which keeps the
    map invertible (det of each block is 1 - eta*theta). lambda and mu are the
    diagonal entries S_A[0, 0] and S_A[2, 2].
    """
    if not math.isfinite(lambda_scale) or lambda_scale <= 0:
        raise DomainError(f"lambda must be > 0, got {lambda_scale}")
    product = (1.0 + math.sqrt(1.0 - params.eta * params.theta)) / 2.0
    mu = product / lambda_scale
    blk = _planar_darboux_block(params, lambda_scale, mu)
    if numerically_singular(blk):
        raise SingularMatrixError(
            f"Darboux block is singular (theta*eta = {params.theta * params.eta})"
        )
    target = build_planar_form(params).assembled
    residual = np.max(np.abs(blk @ standard_symplectic_form(2) @ blk.T - target))
    if residual > MAP_RESIDUAL:
        raise MatrixStructureError(f"constructed map violates S J S^T = Omega by {residual:.3e}")
    return DarbouxMap(s_a=_readonly(blk), s_b=_readonly(blk), assembled=_readonly(block_diag(blk, blk)))


def transform_covariance(dmap: DarbouxMap, sigma_tilde) -> np.ndarray:
    """Push a covariance matrix through the map: Sigma = S Sigma~ S^T."""
    sig = validate_covariance(sigma_tilde)
    if sig.shape[0] != dmap.assembled.shape[0]:
        raise DimensionError(
            f"covariance is {sig.shape[0]}-dimensional but map is {dmap.assembled.shape[0]}-dimensional"
        )
    out = dmap.assembled @ sig @ dmap.assembled.T
    out = 0.5 * (out + out.T)  # exact symmetry despite roundoff
    return validate_covariance(out)
