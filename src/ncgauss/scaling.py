"""The power of two by which the closed-form and spectral kernels scale; numpy-free for a float-only path."""


def inverse_scale(big, xp):
    """1/k, k = 2^max(e - 200, 0) for the binary exponent e of ``big`` >= 0, from ``xp``'s frexp, ldexp
    and minimum (numpy's, or math's with ``min``). Exact short of the subnormal range; k = 1 below 2^200."""
    return xp.ldexp(1.0, xp.minimum(200 - xp.frexp(big)[1], 0))
