"""The numpy-free point path: the closed-form kernel, the input rules and the verdict rule.

Each is one text for Python floats and numpy arrays: a number, a numpy scalar included, runs on
math's primitives and an array on numpy's (:func:`_primitives`), imported only then. So ``eval``
loads no numpy, and a grid (``family``) gets the bits of its points. The kernel is total: scaled by
a power of two (:func:`inverse_scale`), every admissible float point, theta and eta up to the
largest float, gets finite positive invariants, and no closed form can abort.
"""

from __future__ import annotations

import math
from enum import Enum
from types import SimpleNamespace

from .errors import DomainError

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


_FLOAT_PRIMITIVES = SimpleNamespace(sqrt=math.sqrt, minimum=min, maximum=max, frexp=math.frexp, ldexp=math.ldexp)


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


def _invariant(gap, c, r: float):
    """b / (1 - theta*eta) times the square root of the smaller root of x^2 - 2(gap + c) x + c^2."""
    sqrt = _primitives(gap).sqrt
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
    nu, nu_prime = _invariant(gap_minus, c_k, r) * unit, _invariant(gap_plus, c_k, r) * unit
    return nu, nu_prime, gap_minus, gap_plus, c, unit


def _point_name(theta: float, eta: float, m: float, n: float) -> str:
    return f"(theta, eta, m, n) = ({float(theta)!r}, {float(eta)!r}, {float(m)!r}, {float(n)!r})"


def point_invariants(theta: float, eta: float, m: float, n: float) -> tuple[float, float]:
    """``family.family_invariants`` at one point of Python floats, as floats: the same checks with the
    same messages, and the same kernel text run on floats, so every bit is the grid's.

    Floats need no ``errstate``: theta*eta beyond the float range is inf, with no warning.
    """
    if not admissible_deformations(theta, eta):
        raise DomainError(f"{_BAD_DEFORMATION} at {_point_name(theta, eta, m, n)}")
    r = validate_couplings(m, n)
    if not theta * eta < 1.0:
        return math.nan, math.nan
    return _closed_forms(theta, eta, abs(m), abs(n), r)[:2]


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
