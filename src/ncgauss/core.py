"""Dense symplectic linear algebra: Williamson spectra and uncertainty checks.

All phase-space matrices are real float64 arrays of even dimension 2n with
hbar = 1. The spectrum of a (covariance, skew form) pair is computed through
the real skew-symmetric matrix sqrt(S) O^-1 sqrt(S), whose Hermitian
counterpart is far better conditioned than the generic complex eigenproblem
for 2i O^-1 S (the latter is kept as a test oracle only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    MatrixStructureError,
    NCGaussError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)

# Dense O(n^3) routines only; the bundled Gaussian family needs just 2n = 8.
MAX_DIM = 64


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by every check in the package."""

    symmetry: float = 1e-12  # per-entry symmetry / skewness / hermiticity
    singularity: float = 1e-12  # 1 / condition number at which a matrix is singular
    positive_definite: float = 1e-12  # smallest eigenvalue must exceed this
    boundary: float = 1e-12  # classification band around nu = 1
    map_residual: float = 1e-10  # per-entry bound for S J S^T = Omega, D^2 = I
    radicand: float = 1e-12  # clamp window for closed-form radicands


DEFAULT_TOL = Tolerances()


def _readonly(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=float)
    out.setflags(write=False)
    return out


def _require_square(mat, what: str, even: bool = True) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{what} must be a square matrix, got shape {arr.shape}")
    dim = arr.shape[0]
    if dim < 1 or dim > MAX_DIM:
        raise DimensionError(f"{what} dimension {dim} outside supported range [1, {MAX_DIM}]")
    if even and dim % 2 != 0:
        raise DimensionError(f"{what} must have even dimension, got {dim}")
    if not np.all(np.isfinite(arr)):
        raise NCGaussError(f"{what} contains non-finite entries")
    return arr


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Assemble square blocks into a block-diagonal matrix."""
    sizes = [np.asarray(b).shape[0] for b in blocks]
    out = np.zeros((sum(sizes), sum(sizes)))
    pos = 0
    for b, size in zip(blocks, sizes):
        out[pos : pos + size, pos : pos + size] = b
        pos += size
    return out


def standard_symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n standard symplectic matrix [[0, I], [-I, 0]]."""
    if n_modes < 1:
        raise DimensionError(f"number of modes must be >= 1, got {n_modes}")
    if 2 * n_modes > MAX_DIM:
        raise DimensionError(f"2n = {2 * n_modes} exceeds supported maximum {MAX_DIM}")
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return _readonly(np.block([[zero, eye], [-eye, zero]]))


def _require_symmetric(mat, tol: Tolerances) -> np.ndarray:
    arr = _require_square(mat, "covariance matrix")
    if np.max(np.abs(arr - arr.T)) > tol.symmetry:
        raise MatrixStructureError("covariance matrix is not symmetric within tolerance")
    return arr


def _require_positive(smallest: float, tol: Tolerances) -> None:
    if smallest <= tol.positive_definite:
        raise NotPositiveDefiniteError(
            f"covariance matrix is not positive-definite (smallest eigenvalue {smallest:.3e})"
        )


def validate_covariance(mat, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Check symmetry and positive-definiteness; return a read-only copy."""
    arr = _require_symmetric(mat, tol)
    _require_positive(np.linalg.eigvalsh(arr)[0], tol)
    return _readonly(arr)


def numerically_singular(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the square matrix A (n x n) is singular to tol.singularity, at any scale.

    Compares the geometric mean of the singular values, g = |det A|^(1/n), with
    their root mean square, s_rms = ||A||_F / sqrt(n): A is singular iff
    g <= eps^((n-1)/n) * s_rms, eps = tol.singularity. As s_rms <= s_1 and
    g^n >= s_1 * s_n^(n-1), a flagged A has (s_n/s_1)^((n-1)/n) <= g/s_1 <= eps^((n-1)/n),
    i.e. cond_2(A) >= 1/eps, and A -> cA changes nothing. An absolute bound on det
    cannot do this: the family's 8x8 form has det = (1 - theta*eta)^4 but cond_2
    only of order 1/(1 - theta*eta). The test is one-sided: one tiny singular
    value can hide in the mean. slogdet keeps det and its root finite up to MAX_DIM.
    """
    dim = mat.shape[0]
    sign, logdet = np.linalg.slogdet(mat)
    if sign == 0:
        return True
    rms = np.linalg.norm(mat) / math.sqrt(dim)
    return logdet / dim <= (dim - 1) / dim * math.log(tol.singularity) + math.log(rms)


def validate_skew_form(mat, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Check skew-symmetry and nonsingularity; return a read-only copy."""
    arr = _require_square(mat, "skew form")
    if np.max(np.abs(arr + arr.T)) > tol.symmetry:
        raise MatrixStructureError("form is not skew-symmetric within tolerance")
    if numerically_singular(arr, tol):
        raise SingularMatrixError("skew form is numerically singular")
    return _readonly(arr)


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Positive Williamson invariants of a (covariance, form) pair, ascending."""

    invariants: tuple[float, ...]

    @property
    def smallest(self) -> float:
        return self.invariants[0]

    def __len__(self) -> int:
        return len(self.invariants)


def validated_root(sigma, form, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (covariance, skew form) pair; return (sqrt(sigma), read-only form).

    The symmetric square root comes from the eigendecomposition that proves
    positive-definiteness. Spectra of one covariance against several forms
    share it through :func:`_root_spectrum`.
    """
    arr = _require_symmetric(sigma, tol)
    w, v = np.linalg.eigh(arr)
    _require_positive(w[0], tol)
    frm = validate_skew_form(form, tol)
    if arr.shape != frm.shape:
        raise DimensionError(
            f"covariance is {arr.shape[0]}-dimensional but form is {frm.shape[0]}-dimensional"
        )
    return (v * np.sqrt(w)) @ v.T, frm


def _root_spectrum(root: np.ndarray, form: np.ndarray) -> SymplecticSpectrum:
    """Williamson invariants from sqrt(sigma) and a form, both already validated."""
    # K = sqrt(S) O^-1 sqrt(S) is real skew; iK is Hermitian with eigenvalues +-nu/2.
    skew = root @ np.linalg.solve(form, root)
    vals = np.linalg.eigvalsh(1j * skew)
    half = len(vals) // 2
    # Pair the +-kappa eigenvalues symmetrically to cancel roundoff.
    invariants = tuple(float(vals[half + j] - vals[half - 1 - j]) for j in range(half))
    if invariants[0] <= 0.0:
        raise NCGaussError("spectrum is not strictly positive; inputs are degenerate")
    return SymplecticSpectrum(invariants)


def nc_williamson_spectrum(sigma, form, tol: Tolerances = DEFAULT_TOL) -> SymplecticSpectrum:
    """Williamson invariants of a covariance matrix with respect to a skew form.

    Returns the n positive values {nu} such that the eigenvalues of
    2i form^-1 sigma are exactly {+nu, -nu}, sorted ascending. With the
    standard form this is the usual symplectic spectrum; with a deformed
    commutation form it is its noncommutative generalization.

    Args:
        sigma: symmetric positive-definite 2n x 2n matrix.
        form: skew-symmetric nonsingular 2n x 2n matrix.
        tol: numerical thresholds.

    Raises:
        DimensionError: mismatched or odd dimensions.
        NotPositiveDefiniteError: sigma fails the spectral test.
        SingularMatrixError: form is singular.
    """
    return _root_spectrum(*validated_root(sigma, form, tol))


def rsup_holds(sigma, form, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Robertson-Schroedinger check: smallest invariant of (sigma, form) >= 1.

    Equivalent to positivity of the Hermitian matrix sigma + (i/2) form, up
    to the boundary band in ``tol``.
    """
    return nc_williamson_spectrum(sigma, form, tol).smallest >= 1.0 - tol.boundary


def hermitian_min_eigenvalue(mat, tol: Tolerances = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of a complex Hermitian matrix."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NCGaussError("matrix contains non-finite entries")
    if np.max(np.abs(arr - arr.conj().T)) > tol.symmetry:
        raise MatrixStructureError("matrix is not Hermitian within tolerance")
    return float(np.linalg.eigvalsh(arr)[0])


def matrix_to_json(mat) -> dict:
    """Encode a real square matrix as {"dim": n, "entries": row-major list}."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    return {"dim": int(arr.shape[0]), "entries": [float(x) for x in arr.ravel()]}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the shared matrix exchange format; returns a read-only array."""
    try:
        dim = int(obj["dim"])
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise NCGaussError(f"malformed matrix object: {exc}") from exc
    if dim < 1:
        raise DimensionError(f"matrix dimension must be >= 1, got {dim}")
    if len(entries) != dim * dim:
        raise DimensionError(f"expected {dim * dim} entries for dim {dim}, got {len(entries)}")
    arr = np.asarray(entries, dtype=float).reshape(dim, dim)
    if not np.all(np.isfinite(arr)):
        raise NCGaussError("matrix contains non-finite entries")
    return _readonly(arr)
