"""Brute-force oracles and test-only helpers, kept independent of the library's numerical routes."""

from dataclasses import dataclass

import numpy as np

from ncgauss import DimensionError, MatrixStructureError, NCGaussError

# Entrywise bound on A - A^H for hermitian_min_eigenvalue.
HERMITIAN_TOL = 1e-12


def brute_force_spectrum(sigma, form):
    """Positive half of eig(2i form^-1 sigma) via the generic complex eigensolver."""
    vals = np.linalg.eigvals(2j * np.linalg.inv(form) @ sigma)
    assert np.max(np.abs(vals.imag)) < 1e-8, "pencil eigenvalues are not real"
    real = np.sort(vals.real)
    return real[len(real) // 2 :]


def random_spd(rng, dim, floor=0.1):
    """Well-conditioned random symmetric positive-definite matrix."""
    a = rng.normal(size=(dim, dim))
    return a @ a.T + floor * np.eye(dim)


def random_skew_nonsingular(rng, dim, min_det=1e-6):
    while True:
        a = rng.normal(size=(dim, dim))
        skew = a - a.T
        if abs(np.linalg.det(skew)) > min_det:
            return skew


def random_symplectic(rng, jay, scale=0.3):
    """exp(jay H) with H symmetric satisfies M jay M^T = jay."""
    from scipy.linalg import expm

    dim = jay.shape[0]
    h = rng.normal(size=(dim, dim), scale=scale)
    h = 0.5 * (h + h.T)
    return expm(jay @ h)


def bisect_decreasing(func, lo, hi, width=1e-10):
    """Root of a sign change from positive (lo) to negative (hi); returns the midpoint."""
    assert func(lo) > 0 > func(hi), "bracket does not straddle the root"
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if func(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), lo, hi


def hermitian_min_eigenvalue(mat):
    """Smallest eigenvalue of a complex Hermitian matrix."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NCGaussError("matrix contains non-finite entries")
    if np.max(np.abs(arr - arr.conj().T)) > HERMITIAN_TOL:
        raise MatrixStructureError("matrix is not Hermitian within tolerance")
    return float(np.linalg.eigvalsh(arr)[0])


@dataclass(frozen=True)
class MirrorReflection:
    """Diag[I_A, I, -I]: flips Bob's momenta, squares to the identity."""

    n_a: int
    n_b: int
    mat: np.ndarray


def mirror_reflection(n_a, n_b):
    """Reflection of Bob's momenta in the (x.., p..) per-party ordering."""
    if n_a < 1 or n_b < 1:
        raise DimensionError(f"mode counts must be >= 1, got ({n_a}, {n_b})")
    diag = np.concatenate([np.ones(2 * n_a + n_b), -np.ones(n_b)])
    return MirrorReflection(n_a=n_a, n_b=n_b, mat=np.diag(diag))
