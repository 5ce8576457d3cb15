"""The generalized criteria: skew forms, Darboux maps, Williamson spectra, uncertainty and PPT.

All phase-space matrices are real float64 arrays of even dimension 2n with hbar = 1, checked for
shape, finiteness and (skew-)symmetry and returned read-only; complex or non-numeric input is
refused, not cast.
Variables are ordered (x_1..x_n, p_1..p_n) inside each party, so a party's
form takes the block layout [[Theta, I], [-I, Upsilon]] with skew
deformation blocks Theta (position-position) and Upsilon (momentum-momentum).
A bipartite form is Diag[Omega_A, Omega_B]; :func:`classify` takes the
two party forms and assembles it. A Darboux map S turns standard commuting
variables into the deformed ones, S J S^T = Omega; it is block-diagonal over the
two parties and not unique.
Every input theta and eta, NCParams' and each point of the family routes, meets one check,
``kernel.admissible_deformations``, with one message.

The spectrum of a (covariance, skew form) pair comes from one Hermitian eigensolve of
(i/2) S^-1/2 O S^-1/2, whose eigenvalues are +-1/nu:
no inverse of or solve against the form O, so any skew O is accepted, a singular
one included, and the smallest invariant, the one every verdict reads, does not
depend on the conditioning of O (see :func:`nc_williamson_spectrum`). The
generic complex eigenproblem for 2i O^-1 S is kept as a test oracle only.

Partial transposition acts on phase space as a mirror reflection of Bob's
momenta. In deformed variables the reflection becomes D = S Lambda S^-1 for a
Darboux map S, and D^-1 Omega D^-T = Diag[Omega_A, -Omega_B] = Omega' for
every such map. Separability is therefore read from the spectrum of
(Sigma, Omega'), which needs no map. The reflected-covariance route
Sigma' = D Sigma D^T is less accurate (D carries the conditioning of S) and
lives in the tests as a reference.
One rule, ``kernel.verdict_from_invariants``, turns the invariants into a verdict:
a ``Verdict`` for a float pair, and for arrays each point's rank, its position in
``tuple(Verdict)``, which the grid tables carry as integer codes.

The bundled family lives here too: the covariance b/2 * [[I4, G^T], [G, I4]] (:func:`build_covariance`)
with a coupling block G parameterized by reals (m, n), R = sqrt(m^2 + n^2) < 1 and b = (1+R)/(1-R),
whose two parties share one planar form, :func:`build_planar_form`. Its spectra depend on |m| and |n|
only, and the closed forms at (|m|, |n|) (``kernel.family_invariants``) decide every point. The dense
8x8 route, :func:`_root_spectrum`'s one eigvalsh per block of points with Sigma^-1/2 in closed form,
is only :func:`dense_spectra`: the cross-check of nu_- and nu'_- for ``eval --verbose`` and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, MatrixStructureError, NCGaussError, NotPositiveDefiniteError
from .kernel import (_BAD_DEFORMATION, Verdict, _checked_points, _uncertainty_holds, admissible_deformations,
                     inverse_scale, validate_couplings, verdict_from_invariants)

# Dense O(n^3) routines only; the bundled Gaussian family needs just 2n = 8.
MAX_DIM = 64

# Largest entrywise asymmetry (or skew defect) relative to max|A|: room for the
# roundoff of assembled products such as S Sigma S^T, far below any modelling error.
SYMMETRY = 1e-12

# 2x2 antisymmetric symbol with epsilon_12 = +1.
EPSILON2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _real(mat, what: str) -> np.ndarray:
    """``mat`` as a float64 array. The one cast of every matrix input: a complex one is refused,
    where numpy would drop its imaginary part with only a ComplexWarning, and so is one whose
    entries are no numbers, such as strings or complex objects, or whose rows are ragged."""
    try:
        arr = np.asarray(mat)
        real = None if np.iscomplexobj(arr) else arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise MatrixStructureError(f"{what} must be real numbers: {exc}") from exc
    if real is None:
        raise MatrixStructureError(f"{what} must be real, got complex entries")
    return real


def _readonly(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=float)
    out.setflags(write=False)
    return out


def _require_square(mat, what: str) -> np.ndarray:
    arr = _real(mat, what)
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
    So the reach is cond(Sigma) < 1/(dim * eps); a w[0] within dim * eps * w[-1] of zero,
    either side, is a matrix that cannot be certified, not one proved indefinite.
    """
    arr = _require_square(mat, "covariance matrix")
    if _asymmetric(arr):
        raise MatrixStructureError("covariance matrix is not symmetric within tolerance")
    unit = inverse_scale(abs(arr).max(), np)
    w, v = np.linalg.eigh(arr * unit)
    k = 1.0 / float(unit)
    bound = len(w) * np.finfo(float).eps
    if w[0] <= bound * w[-1]:
        low, high = (x * k for x in w[[0, -1]].tolist())  # Python floats: an overflow is inf, not a warning
        eigenvalues = f"eigenvalues {low:.3e} to {high:.3e}"
        if 0.0 < w[-1] and -bound * w[-1] <= w[0]:
            raise NotPositiveDefiniteError(
                f"covariance matrix cannot be certified positive-definite ({eigenvalues}): its condition "
                f"number is not below 1/(dim eps) = {1.0 / bound:.3e}"
            )
        raise NotPositiveDefiniteError(f"covariance matrix is not positive-definite ({eigenvalues})")
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


def _root_spectrum(root: np.ndarray, forms: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Williamson invariants of Sigma = scale S^-2, S = ``root``, against a form or a stack (..., 2n, 2n).

    Returns the invariants, ascending along the last axis of an (..., n) array, from one eigvalsh for
    the whole stack: those of S^-2 times ``scale``, a power of two (:func:`inverse_root`'s k), which
    keeps S^-2 and its eigensolve in range up to the largest float. Each form O is divided by the power
    of two c of its max|entry| (``inverse_scale``) and its invariants by c, exactly, so no form overflows
    S O S, and below 2^200 (c = 1) every bit is kept. Only an S beyond about 2^400, as of a covariance
    near 1e-310 I, still overflows. An invariant beyond the largest float is inf.
    """
    if root.shape != forms.shape[-2:]:
        raise DimensionError(
            f"covariance is {root.shape[0]}-dimensional but form is {forms.shape[-1]}-dimensional"
        )
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
    The reach is cond(Sigma) < 1/(2n eps), 5.6e14 at 2n = 8: a covariance beyond it cannot be
    certified positive-definite and raises, as the family's does for 1 - R below about 3.5e-15.

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
        MatrixStructureError: a complex input, sigma is not symmetric or form is not skew-symmetric.
        NotPositiveDefiniteError: sigma fails the spectral test.
        NCGaussError: a non-finite entry, or sigma^-1/2 so large that S O S overflows.
    """
    root, k = inverse_root(sigma)
    return _root_spectrum(root, validate_skew_form(form), k)


def rsup_holds(sigma, form) -> bool:
    """Robertson-Schroedinger check: smallest invariant of (sigma, form) >= 1.

    Equivalent to positivity of the Hermitian matrix sigma + (i/2) form, up
    to the band ``kernel.BOUNDARY`` below 1.
    """
    return bool(_uncertainty_holds(nc_williamson_spectrum(sigma, form)[0]))


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
    arr = _real(block, f"{name} block")
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
    """Push a covariance matrix through the map S: Sigma = S Sigma~ S^T.

    Raises a DomainError where S Sigma~ S^T leaves the float range.
    """
    sig = validate_covariance(sigma_tilde)
    dmap = _require_square(dmap, "Darboux map")
    if dmap.shape != sig.shape:
        raise DimensionError(f"covariance is {sig.shape[0]}-dimensional but map has shape {dmap.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is not finite, which the check reports
        out = dmap @ sig @ dmap.T
        out = 0.5 * out + 0.5 * out.T  # exact symmetry despite roundoff; halved first, the sum cannot overflow
    if not np.isfinite(out).all():
        raise DomainError("the transported covariance S Sigma~ S^T leaves the float range")
    return validate_covariance(out)


def _party_forms(omega_a, omega_b) -> np.ndarray:
    """The stack (Omega, Omega') = (Diag[Omega_A, Omega_B], Diag[Omega_A, -Omega_B]), each party checked
    by ``validate_skew_form`` once."""
    omega_a, omega_b = validate_skew_form(omega_a), validate_skew_form(omega_b)
    return np.stack([block_diag(omega_a, omega_b), block_diag(omega_a, -omega_b)])


def primed_form(omega_a, omega_b) -> np.ndarray:
    """Partial-transpose image Omega' = Diag[Omega_A, -Omega_B] of the parties' checked forms, exactly."""
    return _readonly(_party_forms(omega_a, omega_b)[1])


@dataclass(frozen=True)
class ClassificationResult:
    """Verdict with the invariants it was derived from (None when invalid)."""

    verdict: Verdict
    nu_minus: float | None
    nu_minus_prime: float | None


def classify(sigma, omega_a, omega_b) -> ClassificationResult:
    """Classify a bipartite state by nu_- of (Sigma, Omega) and nu'_- of (Sigma, Omega').

    Omega = Diag[Omega_A, Omega_B] of the two parties' skew forms, each checked by
    ``validate_skew_form``, so a malformed party raises an NCGaussError. Any skew form answers, singular
    (null pairs give nu = inf) or up to the largest float, to ``nc_williamson_spectrum``'s accuracy,
    and so does any Sigma within its reach, cond(Sigma) < 1/(2n eps).

    SEPARABLE_QUANTUM means PPT: the partial transpose is positive (nu'_- >= 1).
    PPT is necessary for separability, and sufficient for 1xN-mode Gaussian
    states (Simon 2000; Werner & Wolf, PRL 86, 3658, 2001). For 2x2-mode input
    such as the bundled family it is not proven sufficient.
    """
    forms = _party_forms(omega_a, omega_b)
    root, k = inverse_root(sigma)
    # Both spectra from one Sigma^-1/2 and one eigvalsh; each row is ascending.
    nu, nu_prime = _root_spectrum(root, forms, k)[:, 0].tolist()
    return ClassificationResult(
        verdict=verdict_from_invariants(nu, nu_prime), nu_minus=nu, nu_minus_prime=nu_prime
    )


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
    """The validated, read-only family covariance matrix Sigma for couplings (m, n), R < 1.

    cond(Sigma) = (1+R)/(1-R) must stay within :func:`_checked_eigh`'s reach, 1/(8 eps): for 1 - R
    below about 3.5e-15 Sigma cannot be certified positive-definite, and a NotPositiveDefiniteError says so.
    """
    r = validate_couplings(m, n)
    return validate_covariance(_covariance_matrix(m, n, (1.0 + r) / (1.0 - r)))


def _family_inverse_root(m: float, n: float, r: float) -> np.ndarray:
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
    """``kernel.family_spectra`` by the dense 8x8 route, with the same checks: the cross-check of nu_- and nu'_-.

    One eigvalsh per block of points. Sigma^-1/2 is in closed form and no form is inverted, so
    neither is checked. nu_- and nu'_- are good to a few eps (1 + 1/(1-R)), the 1/(1-R) from the
    rounded R. The larger nu_k are good only to about 8 eps nu_k / nu_min, so they check nothing
    at ill-conditioned points: at (1e13, 0, -0.3, 0.2) nu_4 comes out near 5e4, not 2.55e13.
    :func:`_root_spectrum` scales each form by the closed forms' power of two, so nothing overflows
    up to the largest float: Sigma^-1/2's entries are at most sqrt 2, and a scaled form's below 2^200.
    """
    thetas, etas, r, todo = _checked_points(thetas, etas, m, n)
    out = np.full((len(thetas), 2, 4), np.nan)
    root = _family_inverse_root(m, n, r)
    for start in range(0, todo.size, _BLOCK):
        block = todo[start : start + _BLOCK]
        ts, es = thetas[block, None, None, None], etas[block, None, None, None]
        out[block] = _root_spectrum(root, ts * _THETA + es * _ETA + _UNIT)
    return out[:, 0], out[:, 1]
