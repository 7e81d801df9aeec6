import hashlib
import random
import sys
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import pytest

from oracles import naive_all_subspaces
from polardesign.counting import (
    CountExpression,
    decimal_string,
    gaussian_binomial,
    lambda_ratio,
    fixed_intersection_count,
    polar_count,
    polar_count_expr,
    polar_count_through,
    polar_count_through_expr,
    power_half,
)
from polardesign.fields import make_field
from polardesign.geometry import standard_polar_space

ALL_SMALL_SPACES = [
    standard_polar_space(fam, n, q)
    for fam in ("2A-odd", "2A-even", "B", "C", "D", "2D")
    for n, q in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]
]


def test_gaussian_binomial_basics():
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 4, 2) == 0
    with pytest.raises(ValueError):
        gaussian_binomial(-1, 0, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(2, 1, 1)


def test_gaussian_binomial_against_enumeration():
    # frozen from the brute-force subspace count of F_2^4
    assert len(naive_all_subspaces(make_field(2), 4, 2)) == 35
    assert gaussian_binomial(4, 2, 2) == 35
    assert len(naive_all_subspaces(make_field(3), 4, 2)) == gaussian_binomial(4, 2, 3)


def test_gaussian_binomial_symmetry_and_recurrence():
    for p in (2, 3, 4, 5):
        for n in range(9):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, p) == gaussian_binomial(n, n - k, p)
                if n and k:
                    assert gaussian_binomial(n, k, p) == gaussian_binomial(
                        n - 1, k - 1, p
                    ) + p**k * gaussian_binomial(n - 1, k, p)


def test_gaussian_binomial_sandwich_bound():
    for p in (2, 3, 4, 5):
        for n in range(41):
            for k in range(n + 1):
                value = gaussian_binomial(n, k, p)
                assert p ** (k * (n - k)) <= value <= 4 * p ** (k * (n - k))


def test_power_half():
    assert power_half(4, 3) == 8
    assert power_half(3, 4) == 9
    with pytest.raises(ValueError):
        power_half(3, 5)


def test_polar_count_examples():
    assert polar_count(standard_polar_space("C", 2, 2), 1) == 15
    assert polar_count(standard_polar_space("B", 3, 3), 3) == 1120
    expr = polar_count_expr(standard_polar_space("B", 3, 3), 3)
    assert expr.factors == (1, 28, 10, 4)
    for space in ALL_SMALL_SPACES:
        assert polar_count(space, 0) == 1


def test_polar_count_through_examples():
    assert polar_count_through(standard_polar_space("C", 2, 2), 1, 2) == 3
    assert polar_count_through(standard_polar_space("C", 3, 2), 1, 3) == 15
    for space in ALL_SMALL_SPACES:
        for t in range(space.n + 1):
            assert polar_count_through(space, t, t) == 1


def test_count_expression_invariant():
    for space in ALL_SMALL_SPACES:
        for k in range(space.n + 1):
            expr = polar_count_expr(space, k)
            assert isinstance(expr, CountExpression)
            prod = 1
            for f in expr.factors:
                prod *= f
            assert prod == expr.value
            for t in range(k + 1):
                through = polar_count_through_expr(space, t, k)
                prod = 1
                for f in through.factors:
                    prod *= f
                assert prod == through.value


def test_fixed_intersection_examples():
    assert fixed_intersection_count(2, 2, 1, 0, 0) == 2
    assert fixed_intersection_count(2, 2, 1, 0, 1) == 1
    for p in (2, 3, 4):
        for k in range(1, 6):
            for t in range(1, k + 1):
                assert fixed_intersection_count(p, k, t, t, t) == gaussian_binomial(k, t, p)


def test_fixed_intersection_out_of_range_is_zero():
    assert fixed_intersection_count(2, 3, 2, 0, 3) == 0  # j > k + ell - t
    with pytest.raises(ValueError):
        fixed_intersection_count(2, 2, 3, 0, 1)  # t > k


def test_product_bound_five_halves():
    # prod(1 + p^-(n-i+e)) < 5/2 whenever t + k <= n (so t <= n/2)
    for space in ALL_SMALL_SPACES:
        for t in range(1, space.n // 2 + 1):
            prod = Fraction(1)
            for i in range(t):
                prod *= 1 + Fraction(1, power_half(space.p, 2 * (space.n - i) + space.twice_e))
            assert prod < Fraction(5, 2)


def test_lambda_ratio_examples():
    sp = standard_polar_space("C", 2, 2)
    assert lambda_ratio(sp, 1, 2, 5) == 1
    sp = standard_polar_space("C", 3, 2)
    assert lambda_ratio(sp, 1, 3, 9) == Fraction(9 * 15, 135) == 1
    assert lambda_ratio(sp, 1, 2, 0) == 0
    with pytest.raises(ValueError):
        lambda_ratio(sp, 1, 2, -1)


def test_lambda_ratio_simplification_everywhere():
    # double counting of (t-space, k-space) incident pairs:
    # |X| [k t]_p = #t-spaces * #k-spaces through one, and #t-spaces is
    # [n t]_p prod_{i<t} (p^(n-i+e) + 1), so lambda = N [k t]_p / #t-spaces
    for space in ALL_SMALL_SPACES:
        for t in range(space.n + 1):
            for k in range(t, space.n + 1):
                tspaces = gaussian_binomial(space.n, t, space.p)
                for i in range(t):
                    tspaces *= power_half(space.p, 2 * (space.n - i) + space.twice_e) + 1
                want = Fraction(7 * gaussian_binomial(k, t, space.p), tspaces)
                assert lambda_ratio(space, t, k, 7) == want


# prime powers up to 32; the Hermitian families (field order q^2) at the squares
_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


def test_through_counts_are_pinned():
    # value and factors of every count through a t-space: all six families,
    # field order <= 32, n <= 23, 0 <= t <= k <= min(n, 8)
    digest = hashlib.sha256()
    for p in _ORDERS:
        for family in ("2A-odd", "2A-even", "B", "C", "D", "2D"):
            if family.startswith("2A"):
                if isqrt(p) ** 2 != p:
                    continue
                q = isqrt(p)
            else:
                q = p
            for n in range(1, 24):
                space = standard_polar_space(family, n, q)
                for k in range(min(n, 8) + 1):
                    for t in range(k + 1):
                        expr = polar_count_through_expr(space, t, k)
                        line = [family, p, n, t, k, expr.value, *expr.factors]
                        digest.update(" ".join(map(str, line)).encode() + b"\n")
    assert digest.hexdigest() == (
        "8f5b7e349cb42262f7d78039959e5a3203813ff7e78932a646fa042400f7bc6e"
    )


def _repdigit(digits: int) -> int:
    return 7 * (10**digits - 1) // 9  # 77...7


@pytest.mark.parametrize("limit", [4300, 640])
def test_decimal_string_matches_decimal_across_the_digit_limit(limit):
    # Decimal text of each integer, and of a fraction's parts, is the oracle;
    # values sit just under, at and just over sys.get_int_max_str_digits()
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        ints = [0, 1, -1, True, False]  # str(True) would be "True"
        for digits in (limit - 1, limit, limit + 1, 4299, 4300, 4301):
            ints += [_repdigit(digits), -_repdigit(digits)]
        for value in ints:
            assert decimal_string(value) == str(Decimal(value))
        big, small = _repdigit(limit + 1), 3
        for value in (Fraction(big, small), Fraction(-small, big), Fraction(big, big + 1)):
            want = f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"
            assert decimal_string(value) == want
        assert decimal_string(Fraction(-big, 1)) == str(Decimal(-big))
    finally:
        sys.set_int_max_str_digits(old)


def test_count_memo_gives_the_same_values_cold_and_warm():
    # all six families at small ranks, every (t, k): the cleared cache, the
    # warm cache and the undecorated function agree
    keys = [
        (space, t, k) for space in ALL_SMALL_SPACES for k in range(space.n + 1) for t in range(k + 1)
    ]
    polar_count_through_expr.cache_clear()
    cold = [polar_count_through_expr(*key) for key in keys]
    warm = [polar_count_through_expr(*key) for key in keys]
    assert cold == warm == [polar_count_through_expr.__wrapped__(*key) for key in keys]


def test_invalid_count_raises_on_every_call():
    # the memo stores no exception, so a repeated bad call raises again
    space = standard_polar_space("C", 3, 2)
    for t, k in ((2, 1), (0, 4), (-1, 1)):
        for _ in range(2):
            with pytest.raises(ValueError):
                polar_count_through_expr(space, t, k)


def test_gaussian_binomial_memo_gives_the_same_values_cold_and_warm():
    # every (n, k, p) a bound report or a count asks for at small sizes, k
    # past n included: the cleared cache, the warm cache and the undecorated
    # function agree
    keys = [(n, k, p) for p in (2, 3, 4, 5, 7, 9, 32) for n in range(9) for k in range(n + 2)]
    gaussian_binomial.cache_clear()
    cold = [gaussian_binomial(*key) for key in keys]
    warm = [gaussian_binomial(*key) for key in keys]
    assert cold == warm == [gaussian_binomial.__wrapped__(*key) for key in keys]


def test_invalid_gaussian_binomial_raises_on_every_call():
    # the memo stores no exception, so a repeated bad call raises again
    for key in ((-1, 0, 2), (2, -1, 2), (2, 1, 1), (3, 1, 0)):
        for _ in range(2):
            with pytest.raises(ValueError):
                gaussian_binomial(*key)


def test_decimal_string_matches_decimal_on_random_ints():
    # the divide-and-conquer conversion against Decimal's own, both signs,
    # up to 40,000 bits, and on each side of the 4300-digit limit
    rng = random.Random(22)
    values = [rng.getrandbits(rng.randrange(1, 40_001)) for _ in range(40)]
    values += [10**4299, 10**4300 - 1, 10**4300, 10**4300 + 1, 2**40_000 - 1]
    for value in values:
        for signed in (value, -value):
            assert decimal_string(signed) == str(Decimal(signed))
