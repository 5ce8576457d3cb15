"""Brute-force oracles and test-only helpers, kept independent of the library's numerical routes.

The reflected-covariance route of partial transposition (``D = S Lambda S^-1``
and ``D Sigma D^T``) and the Darboux-map checks live here as test references:
the library reads separability from ``(Sigma, Omega')`` and needs no map. The
per-row CSV and JSON writers are the references for the column-table writers
of ``ncgauss.scan``.
"""

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as quote

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from ncgauss import DimensionError, MatrixStructureError, NCGaussError
from ncgauss.core import block_diag, dense_spectra, standard_symplectic_form, validate_covariance
from ncgauss.kernel import verdict_from_invariants

# Entrywise bound on A - A^H for hermitian_min_eigenvalue.
HERMITIAN_TOL = 1e-12
# The maps here are built at well-conditioned points: a map counts as singular at cond_2 >= 1e12,
# and S J S^T - Omega and D^2 - I may miss by 1e-10 per entry, far below a wrong entry or sign.
SINGULAR_COND = 1e12
MAP_TOL = 1e-10
EPS = float(np.finfo(float).eps)
PAYLOAD_NAN = np.array(0x7FF8_0000_DEAD_BEEF).view(np.float64).item()  # a quiet NaN with a payload
# Positive floats log-uniform over the whole range, subnormals included.
POSITIVE_FLOATS = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1023))


@st.composite
def admissible_float_points(draw, min_log_slack=-16.0):
    """(theta, eta, m, n) anywhere in the admissible domain: theta 0 or log-uniform over the floats;
    eta 0, log-uniform too, or with 1 - theta*eta log-uniform down to 1e-16; either order; (m, n) in
    any quadrant or on the n axis (m = +-0 exactly), with 1 - R log-uniform down to 10^min_log_slack."""
    theta = draw(st.just(0.0) | POSITIVE_FLOATS)
    gap = draw(st.none() | st.floats(min_value=-16.0, max_value=0.0))
    eta = draw(st.just(0.0) | POSITIVE_FLOATS) if gap is None or theta == 0.0 else (1.0 - 10.0**gap) / theta
    if draw(st.booleans()):
        theta, eta = eta, theta
    radius = 1.0 - 10.0 ** draw(st.floats(min_value=min_log_slack, max_value=0.0))
    angle = draw(st.none() | st.floats(min_value=0.0, max_value=math.pi / 2.0))  # None: the n axis
    m, n = (0.0, radius) if angle is None else (radius * math.cos(angle), radius * math.sin(angle))
    m, n = draw(st.sampled_from([1.0, -1.0])) * m, draw(st.sampled_from([1.0, -1.0])) * n
    assume(eta < math.inf and theta * eta < 1.0 and math.hypot(m, n) < 1.0)
    return theta, eta, m, n


def brute_force_spectrum(sigma, form):
    """Positive half of eig(2i form^-1 sigma) via the generic complex eigensolver."""
    vals = np.linalg.eigvals(2j * np.linalg.inv(form) @ sigma)
    assert np.max(np.abs(vals.imag)) < 1e-8, "pencil eigenvalues are not real"
    real = np.sort(vals.real)
    return real[len(real) // 2 :]


def mp_spectra(theta, eta, m, n, dps=40):
    """Both Williamson spectra of the family at one point, from mpmath at ``dps`` digits.

    The float inputs are read as exact. Sigma and the forms are built entry by
    entry; with Sigma = L L^T the Hermitian i L^T Omega^-1 L has eigenvalues
    +-nu/2, so each spectrum comes from one Hermitian eigensolve (``eighe``),
    whose error is relative to nu_max at ``dps`` digits. Returns two ascending
    lists of four mpf values, for Omega = Diag[P, P] and Omega' = Diag[P, -P].
    """
    import mpmath

    with mpmath.workdps(dps):
        t, e, m, n = (mpmath.mpf(float(v)) for v in (theta, eta, m, n))
        r = mpmath.sqrt(m * m + n * n)
        coupling = [[n, 0, m, 0], [0, n, 0, -m], [m, 0, -n, 0], [0, -m, 0, -n]]
        sigma = mpmath.eye(8) * ((1 + r) / (1 - r) / 2)
        planar = [[0, t, 1, 0], [-t, 0, 0, 1], [-1, 0, 0, e], [0, -1, -e, 0]]
        for i in range(4):
            for j in range(4):
                sigma[4 + i, j] = sigma[j, 4 + i] = sigma[0, 0] * coupling[i][j]
        low = mpmath.cholesky(sigma)
        spectra = []
        for sign in (1, -1):
            form = mpmath.zeros(8)
            for i in range(4):
                for j in range(4):
                    form[i, j], form[4 + i, 4 + j] = planar[i][j], sign * planar[i][j]
            herm = 1j * low.T * mpmath.inverse(form) * low
            spectra.append([2 * v for v in sorted(mpmath.eighe(herm, eigvals_only=True))[4:]])
        return spectra


def mp_closed_forms(theta, eta, m, n, dps=50):
    """nu_- and nu'_- of the family at one point, from the closed forms in mpmath at ``dps`` digits.

    The float inputs are read as exact. With s = theta + eta, q = 1 - R^2, q_n = 1 - n^2 and
    c = q (1 - theta*eta), each invariant is b / (1 - theta*eta) times the square root of the
    smaller root 2 c^2 / (omega + sqrt(omega^2 - 4 c^2)) of x^2 - omega x + c^2, where

        omega_-  = (|theta - eta| + |n| s)^2 + 4 theta eta q + 2c          (Omega)
        omega'_- = ((q_n s + 2|m|)^2 + 4 n^2 q) / q_n + 2c                 (Omega')

    Nothing cancels and mpmath's exponent range is unbounded, so the values are good to
    ``dps`` digits at every float point, theta up to the largest float. Unlike
    :func:`mp_spectra` the error is relative to each invariant, not to nu_max.
    """
    import mpmath

    with mpmath.workdps(dps):
        t, e, m, n = (abs(mpmath.mpf(float(v))) for v in (theta, eta, m, n))
        r = mpmath.sqrt(m * m + n * n)
        s, q, q_n, deficit = t + e, 1 - r * r, 1 - n * n, 1 - t * e
        c = q * deficit
        omegas = (
            (abs(t - e) + n * s) ** 2 + 4 * t * e * q + 2 * c,
            ((q_n * s + 2 * m) ** 2 + 4 * n * n * q) / q_n + 2 * c,
        )
        scale = (1 + r) / ((1 - r) * deficit)
        return tuple(scale * mpmath.sqrt(2 * c * c / (w + mpmath.sqrt(w * w - 4 * c * c))) for w in omegas)


def rounding_of_r(m, n):
    """|r - R| / (1 - R): r = hypot(m, n) as rounded, R = sqrt(m^2 + n^2) to 40 digits; 0 at n = 0.

    r moves b = (1+R)/(1-R) by this much relative, and no route that reads r can undo it.
    """
    import mpmath

    with mpmath.workdps(40):
        radius = mpmath.sqrt(mpmath.mpf(m) ** 2 + mpmath.mpf(n) ** 2)
        return float(abs(math.hypot(m, n) - radius) / (1 - radius))


def closed_tolerance(m, n):
    """4 (eps + |r - R| / (1 - R)): relative bound on the closed forms' nu_- and nu'_- against mpmath."""
    return 4.0 * (EPS + rounding_of_r(m, n))


def dense_tolerance(theta, eta, m, n, nu):
    """16 eps (1 + 2 (1 + max(theta, eta)) nu) + 4 |r - R| / (1 - R): relative bound on the dense
    route's smallest invariant ``nu`` (of Omega or of Omega') against mpmath.

    The kernel's eigenvalues +-1/nu of H = (i/2) S Omega S come from one eigvalsh, good to a
    few eps of ||H|| = 1/nu_min, so nu_min is good to a few eps once H is. Each entry of the
    product S Omega S, sums over 8 x 8 matrices, carries about 16 eps of |S| |Omega| |S|. With
    S = Sigma^-1/2 = d I + k K (``core._family_inverse_root``), |S| = |d| I + |k| |K| has norm
    a- = sqrt(2/(1+R)) <= sqrt(2), and |Omega| has norm at most 1 + max(theta, eta), so relative
    to 1/nu_min that is 16 eps 2 (1 + max(theta, eta)) nu_min. It grows where S's eigenvalues
    a+ << a- make H much smaller than |S| |Omega| |S|: at (0.5, 0.5, -0.999999999999999, 0),
    nu_min = 6e7 and the route is 1.9e-9 off. The last term is :func:`rounding_of_r`.
    Measured worst on 16,500 draws near both boundaries, R up to 1 - 1e-15: 3.9 units of
    eps (1 + 2 (1 + max(theta, eta)) nu) + |r - R| / (1 - R), a quarter of the bound.
    """
    return 16.0 * EPS * (1.0 + 2.0 * (1.0 + max(theta, eta)) * nu) + 4.0 * rounding_of_r(m, n)


def generic_tolerance(m, n):
    """2 (2n) eps cond(Sigma) + :func:`closed_tolerance`, 2n = 8: relative bound on the generic
    route's nu_- and nu'_- (``classify``) against the closed forms, for the family's Sigma, whose
    cond(Sigma) is (1 + R)/(1 - R). The first term is ``nc_williamson_spectrum``'s bound; at R near 1
    it is far above :func:`dense_tolerance`, since eigh's Sigma^-1/2 carries cond(Sigma) and the
    dense route's closed-form root does not. Where the invariants are subnormal, 2^-1074 more.
    """
    r = math.hypot(m, n)
    return 16.0 * EPS * (1.0 + r) / (1.0 - r) + closed_tolerance(m, n)


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


def darboux_map(form):
    """A map S with S J S^T = form, for any nonsingular skew form, from one eigh of the Hermitian i form.

    Each eigenvalue b > 0 of i form has a unit eigenvector v = (u + i w) / sqrt(2), with
    form u = b w and form w = -b u; u and w are orthonormal over all such v. So
    form = sum_k b_k (w_k u_k^T - u_k w_k^T), and S = [x_1..x_n, p_1..p_n] with
    x_k = sqrt(b_k) w_k and p_k = sqrt(b_k) u_k gives S J S^T = sum_k x_k p_k^T - p_k x_k^T = form.
    """
    vals, vecs = np.linalg.eigh(1j * np.asarray(form, dtype=float))
    half = len(vals) // 2
    scaled = vecs[:, half:] * np.sqrt(2.0 * vals[half:])
    return np.hstack([scaled.imag, scaled.real])


def validate_darboux(dmap, omega_a, omega_b):
    """True iff the map is invertible and block-diagonal over the parties, and S J S^T = Omega.

    Omega = Diag[Omega_A, Omega_B] of the two party forms.
    """
    target = block_diag(omega_a, omega_b)
    if dmap.shape != target.shape:
        raise DimensionError(f"map has shape {dmap.shape}, the target form {target.shape}")
    dim_a, n_a, n_b = len(omega_a), len(omega_a) // 2, len(omega_b) // 2
    if np.linalg.cond(dmap) >= SINGULAR_COND or dmap[:dim_a, dim_a:].any() or dmap[dim_a:, :dim_a].any():
        return False
    jay = block_diag(standard_symplectic_form(n_a), standard_symplectic_form(n_b))
    residual = np.max(np.abs(dmap @ jay @ dmap.T - target))
    return bool(residual <= MAP_TOL)


@dataclass(frozen=True)
class PartialTransposeMap:
    """Involution D = Diag[I_A, S_B Lambda_B S_B^-1] acting on covariances."""

    n_a: int
    n_b: int
    mat: np.ndarray


def partial_transpose_map(dmap, n_a, n_b):
    """Build the partial-transpose involution from a block-diagonal map Diag[S_A, S_B]."""
    if n_a < 1 or n_b < 1:
        raise DimensionError(f"mode counts must be >= 1, got ({n_a}, {n_b})")
    if dmap.shape != (2 * (n_a + n_b),) * 2:
        raise DimensionError(f"map of shape {dmap.shape} does not match 2n_a={2 * n_a}, 2n_b={2 * n_b}")
    s_b = dmap[2 * n_a :, 2 * n_a :]
    if np.linalg.cond(s_b) >= SINGULAR_COND:
        raise np.linalg.LinAlgError("S_B is numerically singular")
    lam_b = np.diag(np.concatenate([np.ones(n_b), -np.ones(n_b)]))
    d_b = s_b @ lam_b @ np.linalg.inv(s_b)
    mat = block_diag(np.eye(2 * n_a), d_b)
    residual = np.max(np.abs(mat @ mat - np.eye(mat.shape[0])))
    if residual > MAP_TOL:
        raise MatrixStructureError(f"partial transpose map is not involutive ({residual:.3e})")
    return PartialTransposeMap(n_a=n_a, n_b=n_b, mat=mat)


def partial_transpose_covariance(sigma, pt):
    """Reflected covariance Sigma' = D Sigma D^T."""
    sig = validate_covariance(sigma)
    if sig.shape[0] != pt.mat.shape[0]:
        raise DimensionError(
            f"covariance is {sig.shape[0]}-dimensional but map is {pt.mat.shape[0]}-dimensional"
        )
    out = pt.mat @ sig @ pt.mat.T
    out = 0.5 * (out + out.T)
    return validate_covariance(out)


def int64_split_deficit(thetas, etas):
    """1 - theta*eta on float arrays as the kernel once took it: 1 - fl(theta*eta) less Dekker's error,
    with each factor cut by masking the low 27 bits of its int64 view.

    That cut leaves a low half of 27 bits, so the last product, of the two low halves, can round:
    within a few ulps of the hyperbola the result can be an ulp off 1 - theta*eta correctly
    rounded. The reference for the bits of ``kernel._deficit``, which splits by Veltkamp.
    """
    product = thetas * etas
    th, eh = ((v.view(np.int64) & -(1 << 27)).view(np.float64) for v in (thetas, etas))
    tl, el = thetas - th, etas - eh
    error = ((th * eh - product) + th * el + tl * eh) + tl * el
    return (1.0 - product) - error


def dense_point(theta, eta, m, n):
    """(nu_-, nu'_-) of the dense route at one point: the pair ``eval --verbose`` prints."""
    spectrum, reflected = dense_spectra([theta], [eta], m, n)
    return spectrum[0, 0].item(), reflected[0, 0].item()


def records_self_consistent(rows):
    """Recompute each verdict from the row's invariants (emitted-file sanity); None reads as NaN.

    ``rows`` are dicts with the scan columns, as :func:`table_rows` gives them.
    """
    for row in rows:
        nu, nu_prime = (np.nan if row[key] is None else row[key] for key in ("nu_minus", "nu_minus_prime"))
        if row["verdict"] != verdict_from_invariants(nu, nu_prime):
            return False
    return True


def _cell_values(column):
    """The cells of a table column as Python values: a ``(codes, labels)`` column's labels, and a
    float column's values with None for NaN, a missing cell."""
    if isinstance(column, tuple):
        codes, labels = column
        return [labels[code] for code in codes.tolist()]
    return [None if v != v else v for v in column.tolist()]


def table_rows(table):
    """One dict per row of a column table, keys in column order, None in missing cells."""
    return [dict(zip(table, row)) for row in zip(*map(_cell_values, table.values()))]


def rows_to_csv(rows, fields):
    """Reference CSV writer, one row at a time: a header of ``fields``, one line per row.

    None becomes an empty cell, strings pass through, and numbers are written
    with 12 significant digits. A column table goes in as :func:`table_rows`, a
    ``ScanRecord`` as ``record._asdict()``.
    """
    lines = [",".join(fields)]
    for row in rows:
        values = [row[field] for field in fields]
        lines.append(",".join(
            ["" if v is None else v if isinstance(v, str) else "%.12g" % v for v in values]
        ))
    return "\n".join(lines) + "\n"


# json.dumps spells the non-finite floats this way; repr does not.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(v):
    text = repr(float("%.12g" % v))
    return _JSON_NONFINITE.get(text, text)


def rows_to_json(rows, fields):
    """Reference JSON writer, one row at a time: one object per row, keys in ``fields`` order.

    None omits the key, strings are JSON-encoded, and numbers are rounded to
    12 significant digits, as ``json.dumps(objects, indent=2)`` writes them.
    """
    keys = [f"    {quote(field)}: " for field in fields]
    objs = []
    for row in rows:
        values = [row[field] for field in fields]
        items = [
            key + (quote(v) if isinstance(v, str) else _json_number(v))
            for key, v in zip(keys, values) if v is not None
        ]
        objs.append("  {\n" + ",\n".join(items) + "\n  }" if items else "  {}")
    return "[\n" + ",\n".join(objs) + "\n]\n" if objs else "[]\n"
