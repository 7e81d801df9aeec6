"""Closed-form exact counts: Gaussian binomials, polar-space k-space counts,
the fixed-intersection subspace count, and the design ratio lambda.

Everything is arbitrary-precision integer arithmetic.  Half-integer values of
the polar parameter e (Hermitian families) are handled by working with doubled
exponents over sqrt(p), so no intermediate ever leaves the integers.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

# below this many bits an int goes to Decimal directly
_DECIMAL_LEAF_BITS = 128


def decimal_string(value: int | Fraction) -> str:
    """Exact decimal text of an integer, or of a fraction as "num/den" (just
    "num" when the denominator is 1), at any size.  ``format`` refuses
    integers longer than sys.get_int_max_str_digits() (4300 digits by
    default); only those go through ``_big_int_decimal``, which has no such
    limit.  Both write a bool as its integer, unlike ``str``."""
    if type(value) is not int and isinstance(value, Fraction):
        if value.denominator == 1:
            return decimal_string(value.numerator)
        return f"{decimal_string(value.numerator)}/{decimal_string(value.denominator)}"
    try:
        return format(value, "d")
    except ValueError:
        return str(_big_int_decimal(value))


def _big_int_decimal(value: int) -> decimal.Decimal:
    """Decimal(value) in subquadratic time: split the bits in halves,
    convert each, and join them as lo + hi * 2^w in exact Decimal
    arithmetic, whose big products are fast.  ``Decimal(value)`` itself is
    quadratic in the number of digits.  The scheme is that of CPython 3.12's
    ``_pylong.int_to_decimal``."""
    powers: dict[int, decimal.Decimal] = {}

    def power_of_two(w: int) -> decimal.Decimal:
        if w not in powers:
            if w <= _DECIMAL_LEAF_BITS:
                powers[w] = decimal.Decimal(2) ** w
            elif w - 1 in powers:
                powers[w] = powers[w - 1] * 2
            else:
                half = w >> 1
                # the smaller half first, so that w - half may reuse it
                powers[w] = power_of_two(half) * power_of_two(w - half)
        return powers[w]

    def convert(n: int, w: int) -> decimal.Decimal:
        if w <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(n)
        half = w >> 1
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, w - half) * power_of_two(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        magnitude = convert(abs(value), abs(value).bit_length())
        return -magnitude if value < 0 else magnitude


@lru_cache(maxsize=256)
def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-subspaces of F_p^n; 0 when k is out of range.  Memoised
    on the 256 most recently used (n, k, p): a sweep of bound reports asks
    for the same few again and again.  Invalid input raises on every call,
    since the cache stores no exception."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if p < 2:
        raise ValueError("p must be at least 2")
    if k > n:
        return 0
    k = min(k, n - k)
    # after step j, result = [n-k+j j]_p, over running powers p^j, p^(n-k+j)
    result, low, high = 1, 1, p ** (n - k)
    for _ in range(k):
        low *= p
        high *= p
        result = result * (high - 1) // (low - 1)
    return result


def power_half(p: int, twice_exponent: int) -> int:
    """p**(twice_exponent/2), exact; needs square p when the exponent is odd."""
    if twice_exponent < 0:
        raise ValueError("negative exponent would leave the integers")
    if twice_exponent % 2 == 0:
        return p ** (twice_exponent // 2)
    s = isqrt(p)
    if s * s != p:
        raise ValueError(f"half-integer exponent needs a square order, got p={p}")
    return s**twice_exponent


class CountExpression(NamedTuple):
    """A count together with the factors it was assembled from."""

    value: int
    factors: tuple[int, ...]


def polar_count_expr(space, k: int) -> CountExpression:
    """Factored count of totally isotropic k-spaces in a rank-n polar space."""
    if not 0 <= k <= space.n:
        raise ValueError(f"k must lie in 0..{space.n}")
    return polar_count_through_expr(space, 0, k)


def polar_count(space, k: int) -> int:
    """Number of totally isotropic k-spaces."""
    return polar_count_expr(space, k).value


@lru_cache(maxsize=256)
def polar_count_through_expr(space, t: int, k: int) -> CountExpression:
    """Factored count of isotropic k-spaces containing a fixed isotropic
    t-space.  Memoised on the 256 most recently used (space, t, k): a sweep
    of bound reports over n asks for the same counts again and again.
    Invalid input raises on every call, since the cache stores no
    exception."""
    if not 0 <= t <= k <= space.n:
        raise ValueError(f"need 0 <= t <= k <= {space.n}")
    p, rank, r = space.p, space.n - t, k - t
    gauss = value = gaussian_binomial(rank, r, p)
    # the factors p^(rank - i + e) + 1 for i = r-1, .., 0, from one running
    # power of p that starts at the smallest exponent
    plus = []
    power = power_half(p, 2 * (rank - r + 1) + space.twice_e) if r else 0
    for _ in range(r):
        plus.append(power + 1)
        value *= power + 1
        power *= p
    return CountExpression(value=value, factors=(gauss, *reversed(plus)))


def polar_count_through(space, t: int, k: int) -> int:
    return polar_count_through_expr(space, t, k).value


def fixed_intersection_count(p: int, k: int, t: int, ell: int, j: int) -> int:
    """Number of k-subspaces U of a (k+t)-space W with V' <= U and
    dim(U cap V) = j, where V, V' <= W are t-spaces with dim(V cap V') = ell."""
    if not (0 <= ell <= t <= k):
        raise ValueError("need 0 <= ell <= t <= k")
    b1 = gaussian_binomial(t - ell, j - ell, p) if j >= ell else 0
    b2 = gaussian_binomial(k + ell - t, j, p)
    if b1 == 0 or b2 == 0:
        return 0
    return p ** ((t - j) * (k - t - j + ell)) * b1 * b2


def lambda_ratio(space, t: int, k: int, n_blocks: int) -> Fraction:
    """lambda = N * (#k-spaces through a t-space) / (#k-spaces): the exact
    design parameter of a hypothetical block set of size n_blocks."""
    if n_blocks < 0:
        raise ValueError("block count must be nonnegative")
    return Fraction(n_blocks * polar_count_through(space, t, k), polar_count(space, k))
