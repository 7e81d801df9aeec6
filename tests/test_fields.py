import copy
import os
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest

from polardesign.fields import (
    FIELD_ORDER_CAP,
    make_field,
    prime_power_split,
    verify_field_axioms,
    verify_spread_tables,
)

ALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def test_prime_power_split():
    assert prime_power_split(8) == (2, 3)
    assert prime_power_split(9) == (3, 2)
    assert prime_power_split(7) == (7, 1)
    assert prime_power_split(6) is None
    assert prime_power_split(12) is None
    assert prime_power_split(1) is None


def _split_by_trial_division(p):
    if p < 2:
        return None
    ell = next((f for f in range(2, isqrt(p) + 1) if p % f == 0), p)
    m, r = p, 0
    while m % ell == 0:
        m //= ell
        r += 1
    return (ell, r) if m == 1 else None


def test_prime_power_split_agrees_with_trial_division():
    mismatches = [p for p in range(200_000) if prime_power_split(p) != _split_by_trial_division(p)]
    assert mismatches == []


def test_prime_power_split_on_large_orders():
    # 399165290221 * 798330580441 is a strong pseudoprime to every prime base
    # up to 37; the base 41 proves it composite
    assert prime_power_split(318665857834031151167461) is None
    big = 100000000000000000039
    assert prime_power_split(big) == (big, 1)
    assert prime_power_split(big**2) == (big, 2)
    assert prime_power_split(3**40) == (3, 40)
    assert prime_power_split(big * 3) is None


def test_prime_power_split_refuses_roots_above_the_witness_bound():
    # 2^89 - 1 is prime, so every base passes, but the bases decide primality
    # only below 3.317 * 10^24
    with pytest.raises(ValueError, match="proves primality only below 3317044064679887385961981"):
        prime_power_split(2**89 - 1)
    assert prime_power_split(2**100) == (2, 100)


@pytest.mark.parametrize("p", ALL_ORDERS)
def test_axioms_exhaustive(p):
    verify_field_axioms(make_field(p))


def test_spread_check_rejects_a_corrupted_unspread_entry():
    # 1 + 2 in F_9: spread codes 1 and 2 in radix 5 sum to 3, which must
    # unspread to the code of the field sum
    field = copy.copy(make_field(9))
    s = field.spread_table[1] + field.spread_table[2]
    bad = bytearray(field.unspread_table)
    bad[s] = field.add(bad[s], 1)
    field.unspread_table = bytes(bad)
    with pytest.raises(AssertionError, match=r"F_9: spread addition fails at \(1, 2\)"):
        verify_spread_tables(field)


def test_axiom_check_rejects_a_ring_under_python_O():
    # Z/4 is no field (2 has no inverse); the check must not be an assert,
    # which -O strips
    script = (
        "from polardesign.fields import FieldTable, verify_field_axioms\n"
        "add = bytes((a + b) % 4 for a in range(4) for b in range(4))\n"
        "mul = bytes(a * b % 4 for a in range(4) for b in range(4))\n"
        "verify_field_axioms(FieldTable(4, 2, 2, None, add, mul))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode != 0
    assert "AssertionError: F_4: multiplicative inverse fails at (2,)" in run.stderr


@pytest.mark.parametrize("bad", [0, 1, 6, 10, 12, 15, 33, 64])
def test_invalid_orders_rejected(bad):
    with pytest.raises(ValueError):
        make_field(bad)


def test_cap_is_enforced():
    with pytest.raises(ValueError):
        make_field(FIELD_ORDER_CAP + 5)  # 37 is prime but over the cap


def test_characteristic_two():
    f2 = make_field(2)
    assert f2.add(1, 1) == 0


def test_f4_multiplicative_orders():
    f4 = make_field(4)
    for a in (2, 3):
        assert f4.mul(a, a) != 1
        assert f4.mul(a, f4.mul(a, a)) == 1  # a^3 = 1


def test_f4_structure():
    f4 = make_field(4)
    # modulus is x^2 + x + 1, so x * x = x + 1: codes 2 * 2 = 3
    assert f4.modulus == (1, 1, 1)
    assert f4.mul(2, 2) == 3


def test_f9_modulus_is_x2_plus_1():
    f9 = make_field(9)
    assert f9.modulus == (1, 0, 1)


@pytest.mark.parametrize("p", ALL_ORDERS)
def test_frobenius_is_homomorphism(p):
    field = make_field(p)
    ell = field.characteristic
    frob = [1] * p
    for a in range(p):
        for _ in range(ell):
            frob[a] = field.mul(frob[a], a)
    for a in range(p):
        for b in range(p):
            assert frob[field.add(a, b)] == field.add(frob[a], frob[b])
            assert frob[field.mul(a, b)] == field.mul(frob[a], frob[b])


@pytest.mark.parametrize("p", [4, 9, 16, 25])
def test_conjugation_is_involution_with_fixed_subfield(p):
    field = make_field(p)
    q = field.characteristic ** (field.degree // 2)
    assert q * q == p
    fixed = 0
    for a in range(p):
        assert field.conjugate(field.conjugate(a)) == a
        if field.conjugate(a) == a:
            fixed += 1
    assert fixed == q


@pytest.mark.parametrize("p", [4, 9, 16, 25])
def test_conjugation_is_field_automorphism(p):
    field = make_field(p)
    for a in range(p):
        for b in range(p):
            assert field.conjugate(field.add(a, b)) == field.add(
                field.conjugate(a), field.conjugate(b)
            )
            assert field.conjugate(field.mul(a, b)) == field.mul(
                field.conjugate(a), field.conjugate(b)
            )


def test_conjugation_fixes_identities():
    field = make_field(9)
    assert field.conjugate(0) == 0
    assert field.conjugate(1) == 1


def test_f4_conjugate_of_generator():
    f4 = make_field(4)
    a = 2  # the polynomial x
    assert f4.conjugate(a) == f4.mul(a, a) == f4.add(a, 1)


@pytest.mark.parametrize("p", [2, 3, 8, 27])
def test_conjugation_rejected_for_odd_degree(p):
    field = make_field(p)
    with pytest.raises(ValueError):
        field.conjugate(1)
    assert not field.has_conjugation


def test_division_and_inverse():
    for p in (5, 8, 9):
        field = make_field(p)
        for a in range(1, p):
            assert field.mul(a, field.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            field.inv(0)

