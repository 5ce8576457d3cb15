"""Dense symplectic linear algebra: Williamson spectra and uncertainty checks.

All phase-space matrices are real float64 arrays of even dimension 2n with
hbar = 1. The spectrum of a (covariance, skew form) pair comes from one
Hermitian eigensolve of (i/2) S^-1/2 O S^-1/2, whose eigenvalues are +-1/nu:
no inverse of or solve against the form O, so the smallest invariant, the one
every verdict reads, is good to about 2n eps whatever the conditioning of O. The
generic complex eigenproblem for 2i O^-1 S is kept as a test oracle only.
"""

from __future__ import annotations

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

# Largest entrywise asymmetry (or skew defect) relative to max|A|: room for the
# roundoff of assembled products such as S Sigma S^T, far below any modelling error.
SYMMETRY = 1e-12
# 1 / cond_2 at or below which a generic skew form or a Darboux map counts as singular,
# near enough to rank loss that its inverse keeps about four significant digits
# (see numerically_singular). The spectral kernel takes no inverse of the form.
SINGULARITY = 1e-12
# Band below nu = 1 that still counts as nu >= 1, so that a state on the boundary,
# such as the vacuum (nu = 1 exactly), does not flip on roundoff in the last bits.
BOUNDARY = 1e-12
# Entrywise bound on S J S^T - Omega and on D^2 - I: roundoff in these products grows
# with the conditioning of the maps, while a wrong entry or sign is of order one.
MAP_RESIDUAL = 1e-10


def _readonly(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=float)
    out.setflags(write=False)
    return out


def _require_square(mat, what: str) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{what} must be a square matrix, got shape {arr.shape}")
    dim = arr.shape[0]
    if dim < 1 or dim > MAX_DIM:
        raise DimensionError(f"{what} dimension {dim} outside supported range [1, {MAX_DIM}]")
    if dim % 2 != 0:
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


def _asymmetric(mats: np.ndarray, sign: float = 1.0):
    """Flag per matrix of a stack (..., n, n): max|A - sign A^T| > SYMMETRY * max|A|.

    sign = 1 tests symmetry and sign = -1 skewness. Relative to the largest entry,
    the test reads the same at every scale; a zero matrix passes.
    """
    defect = abs(mats - sign * np.swapaxes(mats, -1, -2)).max(axis=(-2, -1))
    return defect > SYMMETRY * abs(mats).max(axis=(-2, -1))


def _require_symmetric(mat) -> np.ndarray:
    arr = _require_square(mat, "covariance matrix")
    if _asymmetric(arr):
        raise MatrixStructureError("covariance matrix is not symmetric within tolerance")
    return arr


def _require_positive(w: np.ndarray) -> None:
    """Raise unless the ascending eigenvalues w of a symmetric matrix prove it positive-definite.

    A backward-stable symmetric eigensolver returns the exact eigenvalues of A + E
    with ||E||_2 of order dim * eps * ||A||_2, so by Weyl's inequality each computed
    eigenvalue is within about dim * eps * max|w| of the true one. w[0] > dim * eps * w[-1]
    therefore puts the true smallest eigenvalue above zero (w[-1] = ||A||_2 once w[0] > 0),
    and A -> cA changes nothing. An absolute bound cannot do this: it rejects
    1e-13 * I, and at scale 1e5 it accepts a smallest eigenvalue that is pure roundoff.
    """
    if w[0] <= len(w) * np.finfo(float).eps * w[-1]:
        raise NotPositiveDefiniteError(
            f"covariance matrix is not positive-definite (eigenvalues {w[0]:.3e} to {w[-1]:.3e})"
        )


def validate_covariance(mat) -> np.ndarray:
    """Check symmetry and positive-definiteness; return a read-only copy."""
    arr = _require_symmetric(mat)
    _require_positive(np.linalg.eigvalsh(arr))
    return _readonly(arr)


def _raise_first(bad, error: type[NCGaussError], message: str, where=None) -> None:
    """Raise ``error`` for the first flagged entry of a per-matrix check, in row-major order.

    ``bad`` holds one flag per matrix of a stack (a single flag for one matrix);
    ``where(k)`` names the point behind flat index k, and the message ends in it.
    """
    if bad.any():
        raise error(message if where is None else f"{message} at {where(int(np.argmax(bad)))}")


def numerically_singular(mat: np.ndarray):
    """True when the square matrix A (n x n) is singular to SINGULARITY, at any scale.

    Compares the geometric mean of the singular values, g = |det A|^(1/n), with
    their root mean square, s_rms = ||A||_F / sqrt(n): A is singular iff
    g <= eps^((n-1)/n) * s_rms, eps = SINGULARITY. As s_rms <= s_1 and
    g^n >= s_1 * s_n^(n-1), a flagged A has (s_n/s_1)^((n-1)/n) <= g/s_1 <= eps^((n-1)/n),
    i.e. cond_2(A) >= 1/eps. An absolute bound on det cannot do this: the family's
    8x8 form has det = (1 - theta*eta)^4 but cond_2 only of order 1/(1 - theta*eta).
    The test is one-sided: one tiny singular value can hide in the mean. Both sides
    are read off A / max|A|, so A -> cA changes nothing at any float scale: its sum
    of squares lies in [1, n^2], and slogdet keeps det and its root finite up to
    MAX_DIM. The zero matrix stays singular. Returns a numpy bool for one matrix, and for a stack (..., n, n) an
    array with one flag per matrix, from one slogdet call.
    """
    dim = mat.shape[-1]
    scale = abs(mat).max(axis=(-2, -1), keepdims=True)
    unit = mat / np.where(scale > 0.0, scale, 1.0)
    logdet = np.linalg.slogdet(unit)[1]  # -inf when det = 0, so g = 0 below
    rms = np.sqrt((unit * unit).sum(axis=(-2, -1)) / dim)
    return np.exp(logdet / dim) <= SINGULARITY ** ((dim - 1) / dim) * rms


def validate_skew_form(mat) -> np.ndarray:
    """Check skew-symmetry and nonsingularity; return a read-only copy."""
    arr = _require_square(mat, "skew form")
    if _asymmetric(arr, -1.0):
        raise MatrixStructureError("form is not skew-symmetric within tolerance")
    if numerically_singular(arr):
        raise SingularMatrixError("skew form is numerically singular")
    return _readonly(arr)


def inverse_root(sigma) -> np.ndarray:
    """Validate a covariance matrix and return its symmetric inverse square root Sigma^-1/2.

    The root comes from the eigendecomposition that proves positive-definiteness.
    Spectra of one covariance against many forms share it through :func:`_root_spectrum`.
    """
    arr = _require_symmetric(sigma)
    w, v = np.linalg.eigh(arr)
    _require_positive(w)
    return (v / np.sqrt(w)) @ v.T


def validated_root(sigma, form) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (covariance, skew form) pair; return (Sigma^-1/2, read-only form)."""
    root = inverse_root(sigma)
    frm = validate_skew_form(form)
    if root.shape != frm.shape:
        raise DimensionError(
            f"covariance is {root.shape[0]}-dimensional but form is {frm.shape[0]}-dimensional"
        )
    return root, frm


def _root_spectrum(root: np.ndarray, forms: np.ndarray, where=None) -> np.ndarray:
    """Williamson invariants of Sigma^-1/2 against a form or a stack (..., 2n, 2n).

    Returns the invariants, ascending along the last axis of an (..., n) array,
    from one eigvalsh for the whole stack. The eigenvalues of (i/2) S O S,
    S = Sigma^-1/2, are +-1/nu, each to about 2n eps ||S O S|| / 2 = 2n eps / nu_min:
    nu_min is good to about 2n eps relative, nu_k to about 2n eps nu_k / nu_min.
    ``where`` names the point behind a matrix whose S O S overflows or whose smallest
    invariant is not positive.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is not finite, which the check reports
        skew = root @ forms @ root
    _raise_first(~np.isfinite(skew).all(axis=(-2, -1)), NCGaussError,
                 "Sigma^-1/2 form Sigma^-1/2 overflows; inputs are out of range", where)
    vals = np.linalg.eigvalsh(0.5j * skew)
    # Pair the +-1/nu eigenvalues symmetrically to cancel roundoff: nu_k = 2 / (vals[-k] - vals[k-1]).
    # A larger pair that rounds to +-0 gives nu_k = inf, which carries no digits either way;
    # the smallest pair is +-||S O S|| / 2 and never 0.
    with np.errstate(divide="ignore"):
        invariants = 2.0 / (vals[..., ::-1] - vals)[..., : vals.shape[-1] // 2]
    _raise_first(invariants[..., 0] <= 0.0, NCGaussError,
                 "spectrum is not strictly positive; inputs are degenerate", where)
    return invariants


def nc_williamson_spectrum(sigma, form) -> np.ndarray:
    """Williamson invariants of a covariance matrix with respect to a skew form.

    Returns the n positive values {nu} such that the eigenvalues of
    2i form^-1 sigma are exactly {+nu, -nu}, as an ascending 1-D float array. With the
    standard form this is the usual symplectic spectrum; with a deformed
    commutation form it is its noncommutative generalization. The smallest
    invariant is good to about 2n eps relative, nu_k to about 2n eps nu_k / nu_min
    (see :func:`_root_spectrum`).

    Args:
        sigma: symmetric positive-definite 2n x 2n matrix.
        form: skew-symmetric nonsingular 2n x 2n matrix.

    Raises:
        DimensionError: mismatched or odd dimensions.
        NotPositiveDefiniteError: sigma fails the spectral test.
        SingularMatrixError: form is singular.
    """
    return _root_spectrum(*validated_root(sigma, form))


def rsup_holds(sigma, form) -> bool:
    """Robertson-Schroedinger check: smallest invariant of (sigma, form) >= 1.

    Equivalent to positivity of the Hermitian matrix sigma + (i/2) form, up
    to the band BOUNDARY below 1.
    """
    return bool(nc_williamson_spectrum(sigma, form)[0] >= 1.0 - BOUNDARY)

