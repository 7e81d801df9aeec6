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
    "num" when the denominator is 1), matching ``str`` at any size: ``str``
    refuses integers longer than sys.get_int_max_str_digits() (4300 digits by
    default), while converting through Decimal has no such limit."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return decimal_string(value.numerator)
        return f"{decimal_string(value.numerator)}/{decimal_string(value.denominator)}"
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
    result = 1
    for j in range(1, k + 1):
        result = result * (p ** (n - j + 1) - 1) // (p**j - 1)
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
    factors = [gaussian_binomial(space.n, k, space.p)]
    for i in range(k):
        factors.append(power_half(space.p, 2 * (space.n - i) + space.twice_e) + 1)
    value = 1
    for f in factors:
        value *= f
    return CountExpression(value=value, factors=tuple(factors))


def polar_count(space, k: int) -> int:
    """Number of totally isotropic k-spaces."""
    return polar_count_expr(space, k).value


def polar_count_through_expr(space, t: int, k: int) -> CountExpression:
    """Factored count of isotropic k-spaces containing a fixed isotropic
    t-space."""
    if not 0 <= t <= k <= space.n:
        raise ValueError(f"need 0 <= t <= k <= {space.n}")
    factors = [gaussian_binomial(space.n - t, k - t, space.p)]
    for i in range(k - t):
        factors.append(power_half(space.p, 2 * (space.n - t - i) + space.twice_e) + 1)
    value = 1
    for f in factors:
        value *= f
    return CountExpression(value=value, factors=tuple(factors))


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


@dataclass(frozen=True)
class LambdaRatio:
    """lambda = N * (#k-spaces through a t-space) / (#k-spaces), two ways."""

    value: Fraction
    simplified: Fraction
    consistent: bool


def lambda_ratio(space, t: int, k: int, n_blocks: int) -> LambdaRatio:
    """Exact design parameter for a hypothetical block set of size n_blocks,
    plus the simplified closed form and their (always-true) equality flag."""
    if n_blocks < 0:
        raise ValueError("block count must be nonnegative")
    value = Fraction(n_blocks * polar_count_through(space, t, k), polar_count(space, k))
    denom = gaussian_binomial(space.n, t, space.p)
    for i in range(t):
        denom *= power_half(space.p, 2 * (space.n - i) + space.twice_e) + 1
    simplified = Fraction(n_blocks * gaussian_binomial(k, t, space.p), denom)
    return LambdaRatio(
        value=value, simplified=simplified, consistent=value == simplified
    )
