"""Closed-form exact counts: Gaussian binomials, polar-space k-space counts,
the fixed-intersection subspace count, and the design ratio lambda.

Everything is arbitrary-precision integer arithmetic.  Half-integer values of
the polar parameter e (Hermitian families) are handled by working with doubled
exponents over sqrt(p), so no intermediate ever leaves the integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import isqrt


def decimal_string(value: int | Fraction) -> str:
    """Exact decimal text of an integer, or of a fraction as "num/den" (just
    "num" when the denominator is 1), at any size.  ``format`` refuses
    integers longer than sys.get_int_max_str_digits() (4300 digits by
    default); only those go through Decimal, which has no such limit.  Both
    write a bool as its integer, unlike ``str``."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return decimal_string(value.numerator)
        return f"{decimal_string(value.numerator)}/{decimal_string(value.denominator)}"
    try:
        return format(value, "d")
    except ValueError:
        return str(Decimal(value))


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-subspaces of F_p^n; 0 when k is out of range."""
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


@dataclass(frozen=True)
class CountExpression:
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


def polar_count_through_expr(space, t: int, k: int) -> CountExpression:
    """Factored count of isotropic k-spaces containing a fixed isotropic
    t-space."""
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
