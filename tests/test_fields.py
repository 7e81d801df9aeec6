import copy
import hashlib
import os
import random
import re
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest
from oracles import reference_field_axioms

from polardesign import fields, geometry
from polardesign.fields import (
    FIELD_ORDER_CAP,
    FieldTable,
    make_field,
    prime_power_split,
    verify_field_axioms,
    verify_spread_tables,
)
from polardesign.geometry import standard_polar_space

SRC = str(Path(__file__).resolve().parent.parent / "src")

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
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode != 0
    assert "AssertionError: F_4: multiplicative inverse fails at (2,)" in run.stderr


def _verdict(check, field):
    try:
        check(field)
    except AssertionError as exc:
        return str(exc)
    return None


def _corrupted(field, *changes):
    """``field`` rebuilt through FieldTable with each change (which, i,
    value) setting entry i of its add or mul table to ``value``, so its neg,
    inv and conj tables follow."""
    tables = {"add": bytearray(field.add_table), "mul": bytearray(field.mul_table)}
    for which, i, value in changes:
        tables[which][i] = value
    return FieldTable(
        field.order, field.characteristic, field.degree, field.modulus,
        bytes(tables["add"]), bytes(tables["mul"]),
    )


def _single_entry_corruptions(p):
    field = make_field(p)
    for which in ("add", "mul"):
        table = getattr(field, f"{which}_table")
        for i in range(p * p):
            for value in range(p):
                if value != table[i]:
                    yield which, i, value


def _axioms_named(verdicts):
    return {re.sub(r"^F_\d+: (.*) fails at .*$", r"\1", v) for v in verdicts if v}


@pytest.mark.parametrize("p", [4, 8])
def test_axiom_check_agrees_with_the_reference_on_every_single_entry_corruption(p):
    field = make_field(p)
    assert _verdict(verify_field_axioms, field) is None is _verdict(reference_field_axioms, field)
    verdicts = []
    for which, i, value in _single_entry_corruptions(p):
        bad = _corrupted(field, (which, i, value))
        verdict = _verdict(verify_field_axioms, bad)
        assert verdict == _verdict(reference_field_axioms, bad), (which, i, value)
        verdicts.append(verdict)
    assert all(verdicts)  # no single-entry change leaves a field
    # the corruptions reach the pair and triple checks, not only the first loop
    assert {
        "additive commutativity",
        "multiplicative commutativity",
        "multiplicative associativity",
        "distributivity",
    } <= _axioms_named(verdicts)


@pytest.mark.parametrize("p", [9, 25])
def test_axiom_check_agrees_with_the_reference_on_sampled_corruptions(p):
    field = make_field(p)
    everything = list(_single_entry_corruptions(p))
    sample = random.Random(p).sample(everything, 300)
    # the diagonal corruptions pass both commutativity checks, so the
    # associativity blocks decide many of them
    sample += [(w, i, v) for w, i, v in everything if i % (p + 1) == 0][::p]
    changes = [[change] for change in sample]
    # both tables changed at one entry, so two axioms can first fail at one
    # place, where the scan names the one it tests first
    add, mul = field.add_table, field.mul_table
    changes += [[("add", i, (add[i] + 1) % p), ("mul", i, (mul[i] + 1) % p)] for _, i, _ in sample]
    verdicts = []
    for change in changes:
        bad = _corrupted(field, *change)
        verdict = _verdict(verify_field_axioms, bad)
        assert verdict == _verdict(reference_field_axioms, bad), change
        verdicts.append(verdict)
    assert all(verdicts)
    assert {"additive associativity", "multiplicative associativity"} <= _axioms_named(verdicts)


def test_axiom_check_refuses_codes_outside_the_field():
    add = bytearray(make_field(5).add_table)
    add[7] = 5
    bad = FieldTable(5, 5, 1, None, bytes(add), make_field(5).mul_table)
    with pytest.raises(AssertionError, match=r"^F_5: the tables are not 5 x 5 codes below 5$"):
        verify_field_axioms(bad)


# sha256 of every table of the 18 fields, taken when make_field still built
# them with the per-triple axiom scan
FIELD_TABLES_DIGEST = "cf31856c8ee70d6c00c749f86ad21fe8e563b15ae6bfdc5809032a98ff35368b"


def test_field_tables_are_pinned():
    digest = hashlib.sha256()
    for p in ALL_ORDERS:
        field = make_field(p)
        for name, data in (
            ("add", field.add_table),
            ("mul", field.mul_table),
            ("neg", field.neg_table),
            ("inv", field.inv_table),
            ("conj", field.conj_table or b""),
            ("scale", b"".join(field.scale_tables)),
            ("spread", field.spread_table),
            ("unspread", field.unspread_table),
        ):
            digest.update(f"{p} {name} {len(data)}\n".encode())
            digest.update(data)
    assert digest.hexdigest() == FIELD_TABLES_DIGEST


def test_polar_space_builds_its_field_on_first_read():
    space = standard_polar_space.__wrapped__("C", 2, 32)
    assert "field" not in vars(space)
    assert space.field is make_field(32)
    assert vars(space)["field"] is space.field


@pytest.mark.parametrize(
    "family, q, message",
    [
        ("C", 33, "field order 33 exceeds the desk-scale cap 32"),
        ("2A-odd", 7, "field order 49 exceeds the desk-scale cap 32"),
        ("B", 6, "6 is not a prime power"),
        ("2A-even", 6, "field order 36 exceeds the desk-scale cap 32"),
        ("2A-odd", -2, "base order q must be a prime power at least 2, not -2"),
    ],
)
def test_polar_space_refuses_bad_orders_without_tables(monkeypatch, family, q, message):
    def refuse(p):
        raise RuntimeError(f"built the table of F_{p}")

    if "cap" in message:  # the cap is checked before factoring

        def no_split(p):
            raise RuntimeError(f"factored {p}")

        monkeypatch.setattr(fields, "prime_power_split", no_split)
    monkeypatch.setattr(fields, "make_field", refuse)
    monkeypatch.setattr(geometry, "make_field", refuse)
    with pytest.raises(ValueError, match=re.escape(message)):
        standard_polar_space.__wrapped__(family, 2, q)


def test_counting_paths_build_no_field_table():
    # a fresh interpreter, so no space in standard_polar_space's cache has
    # read its field yet
    script = """
import contextlib, io
from polardesign import cli, fields, geometry, klp

def refuse(p):
    raise RuntimeError(f"built the table of F_{p}")

fields.make_field = geometry.make_field = refuse
runs = [
    ["count", "--family", "C", "--q", "32", "--n", "20", "--k", "3"],
    ["count", "--family", "2D", "--q", "32", "--n", "20", "--k", "3", "--t", "1"],
    ["count", "--family", "2A-odd", "--q", "5", "--n", "20", "--k", "3"],
    ["klp-report", "--family", "D", "--q", "32", "--n", "23", "--t", "3", "--k", "7"],
    ["klp-report", "--family", "2A-odd", "--q", "5", "--n", "60", "--t", "3", "--k", "7"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
for family in ("2A-odd", "2A-even", "B", "C", "D", "2D"):
    q = 5 if family.startswith("2A") else 32
    klp.feasibility_report(geometry.standard_polar_space(family, 23, q), 3, 7)
try:
    geometry.standard_polar_space("C", 2, 2).field
except RuntimeError as exc:
    print(exc)
"""
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    # the patch is live: a read of a field does reach it
    assert run.stdout == "built the table of F_2\n"


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


# the modulus of every extension field, little-endian with its leading 1:
# the first x^r + low, low by code 0, 1, 2, .., that is irreducible
EXTENSION_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
}


@pytest.mark.parametrize("p", sorted(EXTENSION_MODULI))
def test_extension_field_moduli(p):
    assert make_field(p).modulus == EXTENSION_MODULI[p]


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

