"""Dense symplectic linear algebra: Williamson spectra and uncertainty checks.

All phase-space matrices are real float64 arrays of even dimension 2n with
hbar = 1. The spectrum of a (covariance, skew form) pair comes from one
Hermitian eigensolve of (i/2) S^-1/2 O S^-1/2, whose eigenvalues are +-1/nu:
no inverse of or solve against the form O, so any skew O is accepted, a singular
one included, and the smallest invariant, the one every verdict reads, does not
depend on the conditioning of O (see :func:`nc_williamson_spectrum`). The
generic complex eigenproblem for 2i O^-1 S is kept as a test oracle only.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionError,
    MatrixStructureError,
    NCGaussError,
    NotPositiveDefiniteError,
)
from .kernel import _uncertainty_holds, inverse_scale

# Dense O(n^3) routines only; the bundled Gaussian family needs just 2n = 8.
MAX_DIM = 64

# Largest entrywise asymmetry (or skew defect) relative to max|A|: room for the
# roundoff of assembled products such as S Sigma S^T, far below any modelling error.
SYMMETRY = 1e-12


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
    the test reads the same at every scale; a zero matrix passes. Scaled exactly below 2^200
    (``kernel.inverse_scale``), no difference overflows up to the largest float.
    """
    mats = mats * inverse_scale(abs(mats).max(axis=(-2, -1), keepdims=True), np)
    defect = abs(mats - sign * np.swapaxes(mats, -1, -2)).max(axis=(-2, -1))
    return defect > SYMMETRY * abs(mats).max(axis=(-2, -1))


def _checked_eigh(mat) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Check a covariance matrix's symmetry and positive-definiteness; return (Sigma, k, w, v).

    w (ascending) and v are the eigh of Sigma/k, for k = 1 / ``kernel.inverse_scale``: a power of two,
    1 below 2^200, so every bit is kept there and up to the largest float no eigenvalue overflows.
    A backward-stable symmetric eigensolver returns the exact eigenvalues of A + E
    with ||E||_2 of order dim * eps * ||A||_2, so by Weyl's inequality each computed
    eigenvalue is within about dim * eps * max|w| of the true one. w[0] > dim * eps * w[-1]
    therefore puts the true smallest eigenvalue above zero (w[-1] = ||A||_2 once w[0] > 0),
    and A -> cA changes nothing. An absolute bound cannot do this: it rejects
    1e-13 * I, and at scale 1e5 it accepts a smallest eigenvalue that is pure roundoff.
    """
    arr = _require_square(mat, "covariance matrix")
    if _asymmetric(arr):
        raise MatrixStructureError("covariance matrix is not symmetric within tolerance")
    unit = inverse_scale(abs(arr).max(), np)
    w, v = np.linalg.eigh(arr * unit)
    k = 1.0 / float(unit)
    if w[0] <= len(w) * np.finfo(float).eps * w[-1]:
        low, high = (x * k for x in w[[0, -1]].tolist())  # Python floats: an overflow is inf, not a warning
        raise NotPositiveDefiniteError(
            f"covariance matrix is not positive-definite (eigenvalues {low:.3e} to {high:.3e})"
        )
    return arr, k, w, v


def validate_covariance(mat) -> np.ndarray:
    """Check symmetry and positive-definiteness; return a read-only copy."""
    return _readonly(_checked_eigh(mat)[0])


def validate_skew_form(mat) -> np.ndarray:
    """Check shape, finiteness and skew-symmetry; return a read-only copy.

    A singular form is accepted: the spectral kernel never inverts it.
    """
    arr = _require_square(mat, "skew form")
    if _asymmetric(arr, -1.0):
        raise MatrixStructureError("form is not skew-symmetric within tolerance")
    return _readonly(arr)


def inverse_root(sigma) -> tuple[np.ndarray, float]:
    """Validate a covariance matrix; return (S, k), S = (Sigma/k)^-1/2 the symmetric inverse square root.

    k is :func:`_checked_eigh`'s power of two, 1 below 2^200, and S comes from the eigendecomposition
    that proves positive-definiteness. Invariants scale with the covariance, so those of Sigma are
    :func:`_root_spectrum` of (S, forms, k); spectra of one covariance against many forms share S.
    """
    _, k, w, v = _checked_eigh(sigma)
    return (v / np.sqrt(w)) @ v.T, k


def validated_root(sigma, form) -> tuple[np.ndarray, np.ndarray, float]:
    """Validate a (covariance, skew form) pair; return (S, read-only form, k), S and k of :func:`inverse_root`."""
    root, k = inverse_root(sigma)
    frm = validate_skew_form(form)
    if root.shape != frm.shape:
        raise DimensionError(
            f"covariance is {root.shape[0]}-dimensional but form is {frm.shape[0]}-dimensional"
        )
    return root, frm, k


def _root_spectrum(root: np.ndarray, forms: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Williamson invariants of Sigma = scale S^-2, S = ``root``, against a form or a stack (..., 2n, 2n).

    Returns the invariants, ascending along the last axis of an (..., n) array, from one eigvalsh for
    the whole stack: those of S^-2 times ``scale``, a power of two (:func:`inverse_root`'s k), which
    keeps S^-2 and its eigensolve in range up to the largest float. Each form O is divided by the power
    of two c of its max|entry| (``inverse_scale``) and its invariants by c, exactly, so no form overflows
    S O S, and below 2^200 (c = 1) every bit is kept. Only an S beyond about 2^400, as of a covariance
    near 1e-310 I, still overflows. An invariant beyond the largest float is inf.
    """
    unit = inverse_scale(abs(forms).max(axis=(-2, -1), keepdims=True), np)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is not finite, which the check reports
        skew = root @ (forms * unit) @ root
    if not np.isfinite(skew).all():
        raise NCGaussError("Sigma^-1/2 form Sigma^-1/2 overflows; inputs are out of range")
    # eigvalsh's root-free QR (LAPACK dsterf) works on squares and can lose the digits of every
    # eigenvalue where entries far below the largest remain: with ratios of 2^-465 to 2^-538 the
    # family's nu_- came out up to 1.7% off, as at (theta, eta, m, n) = (1.6e-162, 3.1e161, 0, 0).
    # An entry below 2^-400 of the largest moves no eigenvalue by more than 2n 2^-400 ||H||: drop it.
    tiny = abs(skew) < 2.0**-400 * abs(skew).max(axis=(-2, -1), keepdims=True)
    vals = np.linalg.eigvalsh(0.5j * np.where(tiny, 0.0, skew))
    # Pair the +-1/nu eigenvalues symmetrically to cancel roundoff: nu_k = 2 / (vals[-k] - vals[k-1]).
    # The values ascend, so each difference is >= +0 and nu_k lies in (0, inf]: a pair that
    # rounds to +-0, as every pair of the zero form does, or to a gap below 2/DBL_MAX gives inf.
    with np.errstate(divide="ignore", over="ignore"):
        invariants = 2.0 / (vals[..., ::-1] - vals)[..., : vals.shape[-1] // 2]
        return invariants * (unit[..., 0] * scale)


def nc_williamson_spectrum(sigma, form) -> np.ndarray:
    """Williamson invariants of a covariance matrix with respect to a skew form.

    Returns the n values {nu} in (0, inf], as an ascending 1-D float array, for which
    the Hermitian pencil sigma + (i/2) x form is singular at x = +-nu: equivalently, the
    eigenvalues of (i/2) sigma^-1/2 form sigma^-1/2 are +-1/nu, and for a nonsingular form
    those of 2i form^-1 sigma are +-nu. With the standard form this is the usual symplectic
    spectrum; with a deformed commutation form it is its noncommutative generalization.
    sigma + (i/2) form >= 0 holds iff the smallest invariant is >= 1, for every skew form.
    A singular form's null pairs give nu = inf (no constraint), so the zero form gives all inf.
    Sigma is checked and rooted as Sigma/k, k a power of two (:func:`inverse_root`), so every
    covariance up to the largest float answers; an invariant beyond the largest float is inf.

    Accuracy. eigh's Sigma^-1/2 is that of a Sigma + E, ||E|| about 2n eps ||Sigma||: a congruence by
    (I + F)^-1/2, ||F|| <= ||Sigma^-1|| ||E||, which moves each 1/nu by at most ||F|| relative
    (Ostrowski). Forming S O S, S = Sigma^-1/2, adds about 2n eps |S| |O| |S|, and ||S||^2 ||O|| <=
    cond(Sigma) ||S O S||; eigvalsh adds 2n eps / nu_min, :func:`_root_spectrum`'s dropped entries
    2n 2^-400 / nu_min. So nu_min is within about 2 (2n) eps cond(Sigma) nu_min, plus 2^-1074 where
    it is subnormal; nu_k within that times nu_k / nu_min. On the family, cond(Sigma) = (1+R)/(1-R)
    and nu_- stays within 1.2 (2n) eps cond(Sigma) nu_- + 2^-1074 of the closed forms.

    Args:
        sigma: symmetric positive-definite 2n x 2n matrix.
        form: skew-symmetric 2n x 2n matrix, singular or not.

    Raises:
        DimensionError: mismatched or odd dimensions.
        MatrixStructureError: sigma is not symmetric or form is not skew-symmetric.
        NotPositiveDefiniteError: sigma fails the spectral test.
        NCGaussError: a non-finite entry, or sigma^-1/2 so large that S O S overflows.
    """
    return _root_spectrum(*validated_root(sigma, form))


def rsup_holds(sigma, form) -> bool:
    """Robertson-Schroedinger check: smallest invariant of (sigma, form) >= 1.

    Equivalent to positivity of the Hermitian matrix sigma + (i/2) form, up
    to the band ``kernel.BOUNDARY`` below 1.
    """
    return bool(_uncertainty_holds(nc_williamson_spectrum(sigma, form)[0]))

