"""The numpy-free point path and the family's grid routes: the closed-form kernel, the input rules
and the verdict rule.

Each is one text for Python floats and numpy arrays: a number, a numpy scalar included, runs on
math's primitives and an array on numpy's (:func:`_primitives`), imported only then, and picked
once per kernel call. So ``eval`` loads no numpy, and a grid gets the bits of its points. The
kernel is total: scaled by a power of two (:func:`inverse_scale`), every admissible float point,
theta and eta up to the largest float, gets finite positive invariants, and no closed form can abort.

The family's Williamson spectra (``core.build_covariance``) before and after partial transposition
depend on |m| and |n| only. So one branch-free kernel (:func:`_closed_forms`), free of cancellation
for the smallest invariants, decides every quadrant: :func:`family_invariants` (scan, fig2),
:func:`point_invariants` (eval) and :func:`family_spectra` (fig1) run it at (|m|, |n|) and take no
root of Sigma, no inverse of a form and no eigensolve. The grid routes import numpy inside: the
points' (:func:`_grid_columns`) and the maps' (:func:`_grid_keys`, on lists :func:`_list_keys`),
which run the kernel once per unordered pair (theta, eta) of a grid's axes, since the closed forms
read only max(theta, eta) and min(theta, eta). Every route checks theta and eta
(:func:`admissible_deformations`), a grid's once per axis value, then the couplings
(:func:`validate_couplings`); the CLI passes its numbers on unchecked, so these are its messages.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import accumulate, chain, repeat
from types import SimpleNamespace

from .errors import DimensionError, DomainError

_BAD_DEFORMATION = "theta and eta must be finite and >= 0"
# Band below nu = 1 that still counts as nu >= 1, so that a state on the boundary,
# such as the vacuum (nu = 1 exactly), does not flip on roundoff in the last bits.
BOUNDARY = 1e-12


def admissible_deformations(theta, eta):
    """True where theta and eta are finite and >= 0, a bool for floats and per point for arrays;
    callers raise with ``_BAD_DEFORMATION`` where not. Positive, as ``~`` of a Python bool is an int.

    theta*eta < 1 is a separate test: grid points beyond the hyperbola are kept
    as invalid rows, while these inputs are errors.
    """
    return (0.0 <= theta) & (theta < math.inf) & (0.0 <= eta) & (eta < math.inf)


def validate_couplings(m: float, n: float) -> float:
    """Require finite couplings with R = sqrt(m^2 + n^2) < 1; return R."""
    if not (math.isfinite(m) and math.isfinite(n)):
        raise DomainError(f"m and n must be finite, got ({m}, {n})")
    r = math.hypot(m, n)
    if r >= 1.0:
        raise DomainError(f"R = sqrt(m^2 + n^2) = {r} must be < 1")
    return r


# Two-argument min and max as conditionals: the builtins' very results, the first argument on a tie and
# NaN where they put it, at about half the cost of a call of either.
_FLOAT_PRIMITIVES = SimpleNamespace(sqrt=math.sqrt, minimum=lambda a, b: b if b < a else a,
                                    maximum=lambda a, b: b if b > a else a, frexp=math.frexp, ldexp=math.ldexp)


def _primitives(x):
    """The kernel's few primitives: numpy's for an array, math's (and min, max) for a number. Only an
    array, 0-d included, defines ``__array_function__``: no float or numpy scalar does."""
    if hasattr(x, "__array_function__"):
        import numpy
        return numpy
    return _FLOAT_PRIMITIVES


def inverse_scale(big, xp):
    """1/k, k = 2^max(e - 200, 0) for the binary exponent e of ``big`` >= 0, from ``xp``'s frexp, ldexp
    and minimum (numpy's, or math's with ``min``). Exact short of the subnormal range; k = 1 below 2^200."""
    return xp.ldexp(1.0, xp.minimum(200 - xp.frexp(big)[1], 0))


def _high_half(x):
    """Veltkamp's split: the high 26 bits of x, with x less them exact in 26 more."""
    c = 134217729.0 * x
    return c - (c - x)


def _deficit(big, small):
    """1 - big*small to about an ulp near the hyperbola too: 1 - fl(big*small) less Dekker's exact error.

    Veltkamp's split (:func:`_high_half`) halves each factor exactly, by plain arithmetic; as a
    function its temporaries are freed on return, and on arrays fewer live temporaries measured
    faster. The kernel passes max(theta, eta)/k and min(theta, eta) k (:func:`inverse_scale`):
    the product keeps its value, and the larger stays below 2^200, so 134217729 x cannot overflow.
    """
    product = big * small
    bh, sh = _high_half(big), _high_half(small)
    bl, sl = big - bh, small - sh
    error = ((bh * sh - product) + bh * sl + bl * sh) + bl * sl
    return (1.0 - product) - error


def _invariant(gap, c, r: float, sqrt):
    """b / (1 - theta*eta) times the square root of the smaller root of x^2 - 2(gap + c) x + c^2,
    with the kernel's ``sqrt``."""
    return (1.0 + r) ** 2 / sqrt(gap + c + sqrt(gap * (gap + 2.0 * c)))


def _closed_forms(theta, eta, m: float, n: float, r: float):
    """nu_-, nu'_-, their pencils' gaps g = omega/2 - c over k^2, c and 1/k, at the points (theta, eta).

    theta and eta are Python floats or equal-shape arrays: one text for both, whose few
    primitives come from math or numpy (:func:`_primitives`), so a point and a grid get the
    same bits. Each invariant is b / (1 - theta*eta) times the square root of the smaller root
    of a pencil x^2 - omega x + c^2, c = (1-R^2)(1 - theta*eta): (1+R)^2 / sqrt(g + c + sqrt(g (g + 2c))).
    With s = theta + eta, q = (1-R)(1+R), q_n = (1-|n|)(1+|n|) and c from :func:`_deficit`,

        g_- = (|theta - eta| + n s)^2 / 2 + 2 theta eta q              (Omega, nu_-)
        g_+ = ((q_n s + 2m)^2 / 2 + 2 n^2 q) / q_n                     (Omega', nu'_-)

    The signs pick the pencil, n's for Omega and m's for Omega'. (|m|, |n|) gives
    the smallest invariants: every term is non-negative, so nothing cancels, also
    where a gap vanishes, near the hyperbola and as R -> 1. (-|m|, -|n|) gives the
    second ones, where (1+n)(max - min) + 2n min of theta and eta keeps Omega's
    difference exact at theta = 0 or eta = 0, and the lift q_n s - 2|m| of Omega', which cancels as
    |m| -> 1, is (s - 2|m|) - n^2 s plus the rounding of s: no rounded q_n and no rounded s
    enters the difference. The forms are symmetric in theta and eta, so the kernel runs on
    max(theta, eta)/k, min(theta, eta)/k, 2m/k and c/k^2, k from :func:`inverse_scale`, and
    divides each invariant by k: a power of two scales exactly, so nothing overflows at any
    float point, and below 2^200, where k = 1, every bit is that of the unscaled forms. On
    floats nothing warns or raises either: no root or quotient meets a negative or zero operand.
    """
    xp = _primitives(theta)
    big, small = xp.maximum(theta, eta), xp.minimum(theta, eta)
    q = (1.0 - r) * (1.0 + r)
    q_n = (1.0 - abs(n)) * (1.0 + abs(n))
    unit = inverse_scale(big, xp)
    big = big * unit
    c = q * _deficit(big, small / unit)
    small, c_k = small * unit, c * unit * unit
    split = (1.0 + n) * (big - small) + 2.0 * n * small
    total = big + small
    if m < 0.0:  # the second pencil; Knuth's two-sum gives the rounding of s
        late = total - big
        lift = ((total + 2.0 * m * unit) - n * n * total) + ((big - (total - late)) + (small - late))
    else:
        lift = q_n * total + 2.0 * m * unit
    gap_minus = split * split / 2.0 + 2.0 * big * small * q
    gap_plus = (lift * lift / 2.0 + 2.0 * n * n * q * unit * unit) / q_n
    nu, nu_prime = _invariant(gap_minus, c_k, r, xp.sqrt) * unit, _invariant(gap_plus, c_k, r, xp.sqrt) * unit
    return nu, nu_prime, gap_minus, gap_plus, c, unit


def _point_name(theta: float, eta: float, m: float, n: float) -> str:
    return f"(theta, eta, m, n) = ({float(theta)!r}, {float(eta)!r}, {float(m)!r}, {float(n)!r})"


def _checked_points(thetas, etas, m: float, n: float) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The points as 1-D float arrays, each checked by :func:`admissible_deformations`; also R
    and the indices of the points in the domain theta*eta < 1."""
    import numpy as np
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


def _invariants(theta, eta, m: float, n: float, r: float):
    """nu_- and nu'_- at points with theta*eta < 1, floats or arrays: the kernel at (|m|, |n|)."""
    return _closed_forms(theta, eta, abs(m), abs(n), r)[:2]


def _spectra(theta, eta, m: float, n: float, r: float) -> list:
    """The spectra of (Sigma, Omega) and (Sigma, Omega'), ascending, as eight floats or arrays at points
    with theta*eta < 1: one text for both, as :func:`_closed_forms`. Each form has two pencils
    x^2 - omega x + c^2 with roots nu_k and b(1+R)^2 / ((1 - theta*eta) nu_k)."""
    nu_1, nup_1, *_, c, _ = _closed_forms(theta, eta, abs(m), abs(n), r)
    nu_2, nup_2 = _closed_forms(theta, eta, -abs(m), -abs(n), r)[:2]
    product = (1.0 + r) ** 4 / c  # nu_1 nu_4 = nu_2 nu_3 = b (1+R)^2 / (1 - theta*eta)
    maximum = _primitives(theta).maximum  # a running maximum: roundoff can swap equal roots
    return [nu for low, high in ((nu_1, nu_2), (nup_1, nup_2))
            for nu in accumulate((low, high, product / high, product / low), maximum)]


def _grid_columns(thetas, etas, m: float, n: float, kernel, width: int) -> np.ndarray:
    """The ``width`` columns of ``kernel`` (:func:`_invariants`, :func:`_spectra`) at the points, as the
    rows of one array, NaN where theta*eta >= 1; the inputs are checked, naming the first failing point."""
    import numpy as np
    thetas, etas, r, todo = _checked_points(thetas, etas, m, n)
    out = np.full((width, len(thetas)), np.nan)
    with np.errstate(over="ignore"):  # nu_3 and nu_4 beyond the float range are inf
        for row, values in zip(out, kernel(thetas[todo], etas[todo], m, n, r)):
            row[todo] = values
    return out


def _checked_axes(thetas: list, etas: list, m: float, n: float) -> float:
    """Check each value of a grid's axes, lists of floats, once (:func:`admissible_deformations`), then
    the couplings; return R. Row 0 and then column 0 hold every axis value, so their first failing
    point is the grid's first in row-major order, which is named, as :func:`_checked_points` names it."""
    for theta, eta in chain(zip(repeat(thetas[0]), etas), zip(thetas, repeat(etas[0]))):
        if not admissible_deformations(theta, eta):
            raise DomainError(f"{_BAD_DEFORMATION} at {_point_name(theta, eta, m, n)}")
    return validate_couplings(m, n)


def _grid_keys(thetas, etas, m: float, n: float, kernel, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``width`` columns of ``kernel`` on the grid of the axes ``thetas`` (outer) and ``etas``
    (inner), float arrays, keyed by the points' unordered pairs: each row's key, and the rows of one
    array of a value per key. Every point with theta*eta >= 1 shares the last key, NaN.

    :func:`_closed_forms` reads a point only as max(theta, eta) and min(theta, eta), so ``kernel`` runs
    once per key. A pair's key is its first row in row-major order: that of the first theta and eta
    holding the point's values, or of the mirror point where both values lie on the other axis too.
    So keys are row numbers, compacted with no sort. The positions merge 0.0 with -0.0, which is
    exact too: a zero enters the closed forms only through products, squares and sums with a nonzero
    term, so its sign reaches no output. The axes are checked by :func:`_checked_axes`.
    """
    import numpy as np
    theta_list, eta_list = thetas.tolist(), etas.tolist()
    r = _checked_axes(theta_list, eta_list, m, n)
    inner, size = len(eta_list), len(theta_list) * len(eta_list)
    theta_at, eta_at = (dict(zip(reversed(values), reversed(range(len(values))))) for values in (theta_list, eta_list))

    def first(values, at, absent=0):  # each value's first position on an axis, else ``absent``
        return np.array([at.get(value, absent) for value in values])

    direct = np.add.outer(first(theta_list, theta_at) * inner, first(eta_list, eta_at))
    # A value absent from the other axis puts the mirror point past the grid.
    mirror = np.add.outer(first(theta_list, eta_at, size), first(eta_list, theta_at, len(theta_list)) * inner)
    rows = np.minimum(direct, mirror).ravel()
    keys = np.flatnonzero(rows == np.arange(size))  # a pair's first row is its own
    outer = keys // inner
    thetas, etas = thetas[outer], etas[keys - outer * inner]
    with np.errstate(over="ignore"):  # theta*eta beyond the float range is inf, off the domain
        inside = thetas * etas < 1.0
    count = np.count_nonzero(inside)
    slot = np.full(size, count)  # the missing key, but at the keys in the domain
    slot[keys[inside]] = np.arange(count)
    out = np.full((width, count + (count < keys.size)), np.nan)
    with np.errstate(over="ignore"):  # nu_3 and nu_4 beyond the float range are inf
        for row, values in zip(out, kernel(thetas[inside], etas[inside], m, n, r)):
            row[:count] = values
    return slot[rows], out


def _list_keys(thetas: list, etas: list, m: float, n: float, kernel, width: int) -> tuple[list, list]:
    """:func:`_grid_keys` on lists of floats, as lists: the same checks, and ``kernel`` run on floats,
    so every bit is the array's. The keys are the pairs (max, min) of theta and eta, merged by a dict,
    which merges 0.0 with -0.0 as :func:`_grid_keys` does."""
    r = _checked_axes(thetas, etas, m, n)
    pairs = [(eta, theta) if theta < eta else (theta, eta) for theta in thetas for eta in etas]
    distinct = dict.fromkeys(pairs)
    inside = [pair for pair in distinct if pair[0] * pair[1] < 1.0]
    position = dict(zip(inside, range(len(inside))))
    keys = [kernel(*pair, m, n, r) for pair in inside] + [(math.nan,) * width] * (len(inside) < len(distinct))
    return list(map(position.get, pairs, repeat(len(inside), len(pairs)))), [list(column) for column in zip(*keys)]


def family_spectra(thetas, etas, m: float, n: float) -> tuple[np.ndarray, np.ndarray]:
    """Williamson spectra of (Sigma, Omega) and (Sigma, Omega') at the points (thetas[k], etas[k]).

    Returns two (N, 4) arrays, ascending along each row, with NaN rows where theta*eta >= 1: the
    closed forms of :func:`_spectra` in every quadrant. No root of Sigma or inverse of a form is
    taken; the inputs are checked, naming the first failing point. nu_3 and nu_4 are inf only
    where they exceed the float range.
    """
    spectra = _grid_columns(thetas, etas, m, n, _spectra, 8)
    return spectra[:4].T, spectra[4:].T


def family_invariants(thetas, etas, m: float, n: float) -> tuple[np.ndarray, np.ndarray]:
    """Smallest invariants nu_- and nu'_- at the points (thetas[k], etas[k]).

    Returns two float arrays, NaN where theta*eta >= 1. The closed forms decide every
    point in every quadrant: they depend on |m| and |n| only, so the kernel runs at
    (|m|, |n|) (see :func:`_closed_forms`), and answer at every admissible
    float point. A failing input check raises for the first failing point, naming its
    (theta, eta, m, n) with the couplings as given.
    """
    nu, nu_prime = _grid_columns(thetas, etas, m, n, _invariants, 2)
    return nu, nu_prime


def point_invariants(theta: float, eta: float, m: float, n: float) -> tuple[float, float]:
    """:func:`family_invariants` at one point of Python floats, as floats: the same checks with the
    same messages, and the same kernel text run on floats, so every bit is the grid's.

    Floats need no ``errstate``: theta*eta beyond the float range is inf, with no warning.
    """
    if not admissible_deformations(theta, eta):
        raise DomainError(f"{_BAD_DEFORMATION} at {_point_name(theta, eta, m, n)}")
    r = validate_couplings(m, n)
    if not theta * eta < 1.0:
        return math.nan, math.nan
    return _invariants(theta, eta, m, n, r)


class Verdict(str, Enum):
    """A point's verdict, in rank order; each value is the label the scan and eval outputs print."""

    INVALID_DOMAIN = "invalid"
    NON_QUANTUM = "nonquantum"
    ENTANGLED_QUANTUM = "entangled"
    SEPARABLE_QUANTUM = "separable"


# Built once: tuple(Verdict) iterates the enum, about 2 us, several times the rule's own cost.
_BY_RANK = tuple(Verdict)


def _uncertainty_holds(nu):
    """nu >= 1 up to the band BOUNDARY below 1, per entry: the one test of rsup_holds and the verdict."""
    return nu >= 1.0 - BOUNDARY


def verdict_from_invariants(nu, nu_prime):
    """Two-stage verdict: quantum iff nu_- >= 1, then separable (PPT) iff nu'_- >= 1.

    A NaN in either invariant (the family's value where theta*eta >= 1) gives
    INVALID_DOMAIN. Ties within BOUNDARY of 1 resolve toward >=. Takes a float pair (numpy
    scalars and 0-d arrays too), giving a Verdict, or two arrays of one shape, giving an integer
    array of that shape: each verdict's rank, its position in ``tuple(Verdict)``.
    """
    valid = (nu == nu) & (nu_prime == nu_prime)  # False where either is NaN
    quantum, separable = _uncertainty_holds(nu), _uncertainty_holds(nu_prime)
    rank = valid * (1 + quantum * (1 + separable))
    return rank if hasattr(rank, "__array_function__") else _BY_RANK[rank]  # the test of _primitives
