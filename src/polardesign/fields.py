"""Exact arithmetic tables for small finite fields F_p, p a prime power <= 32.

Elements are integer codes 0..p-1.  For prime p the code is the residue; for
p = ell^r the code is the base-ell digit encoding of a polynomial in the basis
1, x, .., x^(r-1) modulo a monic irreducible polynomial of degree r over
F_ell.  That modulus is the first of x^r + low, for low the polynomial whose
code is m = 0, 1, 2, .., whose mul table gives every nonzero code an inverse:
a reducible modulus leaves a zero divisor, which has none, so the table's
rows decide irreducibility.  0 and 1 always encode the additive and
multiplicative identities, so all tables are reproducible.

``field_order_split`` refuses an order that names no field at desk scale
without building anything; ``make_field`` builds and checks the tables, so a
caller that only needs the order valid (the closed-form counts, say) calls
the first and leaves the tables to first use.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

FIELD_ORDER_CAP = 32


# Miller-Rabin with these bases decides primality of every m below the
# bound (Sorenson and Webster 2015); a larger m that no base proves composite
# is left undecided.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    for b in _WITNESSES:
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _WITNESSES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False  # b witnesses that m is composite
    if m >= _WITNESS_BOUND:
        raise ValueError(f"Miller-Rabin proves primality only below {_WITNESS_BOUND}, not for {m}")
    return True


def _iroot(m: int, r: int) -> int:
    """floor(m^(1/r)) for m >= 1, by integer Newton iteration from above."""
    x = 1 << -(-m.bit_length() // r)
    while True:
        y = ((r - 1) * x + m // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def prime_power_split(p: int):
    """Return (characteristic, degree) if p is a prime power, else None.
    Raises ValueError when an integer root of p at or above the Miller-Rabin
    bound passes every base, since its primality is then undecided."""
    if p < 2:
        return None
    for r in range(1, p.bit_length()):  # ell >= 2 needs ell^r <= p
        ell = _iroot(p, r)
        if ell**r == p and _is_prime(ell):
            return ell, r
    return None


def _mul_table(reps, add, modulus, ell):
    """The mul table of F_ell[x] / (modulus) on the digit tuples ``reps`` of
    the codes, built row by row, or None at the first row of a nonzero code
    that holds no 1: that code has no inverse, so the modulus is reducible.
    Row a is linear in b: its entries at the codes below ell^(i+1) are those
    below ell^i plus each multiple of a x^i, sums read off the add table."""
    p, mul = len(reps), bytearray()
    for a, u in enumerate(reps):
        row = [0]
        for _ in range(len(u)):  # u = a x^i and row = a b for the codes b below ell^i
            step, multiples = _code(u, ell), [0]
            while len(multiples) < ell:
                multiples.append(add[multiples[-1] * p + step])
            row = [add[x * p + m] for m in multiples for x in row]
            # u x: u shifted up one place, less its top digit times the modulus
            u = [(y - u[-1] * f) % ell for y, f in zip((0, *u[:-1]), modulus)]
        if a and 1 not in row:
            return None
        mul += bytes(row)
    return bytes(mul)


def _digits(code: int, ell: int, r: int):
    out = []
    for _ in range(r):
        out.append(code % ell)
        code //= ell
    return tuple(out)


def _code(digits, ell: int) -> int:
    c = 0
    for d in reversed(digits):
        c = c * ell + d
    return c


class FieldTable:
    """Immutable lookup tables for one finite field; safe to share."""

    def __init__(self, p: int, char: int, degree: int, modulus, add, mul):
        self.order = p
        self.characteristic = char
        self.degree = degree
        self.modulus = modulus  # little-endian incl. leading 1; None for prime fields
        self.add_table = add  # bytes of length p*p, row-major
        self.mul_table = mul
        neg = bytearray(p)
        for a in range(p):
            for b in range(p):
                if add[a * p + b] == 0:
                    neg[a] = b
                    break
        self.neg_table = bytes(neg)
        inv = bytearray(p)
        for a in range(1, p):
            for b in range(1, p):
                if mul[a * p + b] == 1:
                    inv[a] = b
                    break
        self.inv_table = bytes(inv)
        if degree % 2 == 0:
            q = char ** (degree // 2)
            self.conj_table = bytes(self._pow(a, q) for a in range(p))
        else:
            self.conj_table = None
        # 256-byte tables for bytes.translate, so whole vectors of codes are
        # scaled and added in C.  scale_tables[c] maps a code x to c * x.
        # spread writes each base-ell digit of a code in radix 2*ell - 1, so
        # the integer sum of two spread codes carries in no digit and stays
        # below (2*ell - 1)^degree, at most 243 for p <= 32; unspread maps
        # such a sum back to the code of the field sum.
        pad = bytes(256 - p)
        self.scale_tables = tuple(mul[c * p : c * p + p] + pad for c in range(p))
        radix = 2 * char - 1
        self.spread_table = bytes(_code(_digits(a, char, degree), radix) for a in range(p)) + pad
        self.unspread_table = bytes(
            _code([x % char for x in _digits(s, radix, degree)], char) for s in range(256)
        )

    def _pow(self, a: int, e: int) -> int:
        r, b = 1, a
        while e:
            if e & 1:
                r = self.mul_table[r * self.order + b]
            b = self.mul_table[b * self.order + b]
            e >>= 1
        return r

    def add(self, a: int, b: int) -> int:
        return self.add_table[a * self.order + b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a * self.order + b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.inv_table[a]

    @property
    def has_conjugation(self) -> bool:
        return self.conj_table is not None

    def conjugate(self, a: int) -> int:
        """The involution a -> a^q on a field of order q^2."""
        if self.conj_table is None:
            raise ValueError(f"F_{self.order} has no conjugation (non-square order)")
        return self.conj_table[a]

    def __repr__(self):
        return f"FieldTable(order={self.order})"


@lru_cache(maxsize=None)
def field_order_split(p: int) -> tuple[int, int]:
    """(characteristic, degree) of F_p; ValueError unless p is a prime power
    at most ``FIELD_ORDER_CAP``.  Builds no table.  Memoized: only the
    valid orders are cached, at most one per prime power up to the cap, and
    a refused order raises again on every call."""
    if p > FIELD_ORDER_CAP:  # before factoring, whose cost grows with p
        raise ValueError(f"field order {p} exceeds the desk-scale cap {FIELD_ORDER_CAP}")
    split = prime_power_split(p)
    if split is None:
        raise ValueError(f"{p} is not a prime power")
    return split


@lru_cache(maxsize=None)
def make_field(p: int) -> FieldTable:
    """Build (and memoize) the arithmetic table for F_p, 2 <= p <= 32, and
    check it: the field axioms and the spread tables, both exhaustively.
    Refuses a bad order as ``field_order_split`` does."""
    ell, r = field_order_split(p)
    if r == 1:
        add = bytes((a + b) % p for a in range(p) for b in range(p))
        mul = bytes((a * b) % p for a in range(p) for b in range(p))
        table = FieldTable(p, ell, 1, None, add, mul)
    else:
        reps = [_digits(c, ell, r) for c in range(p)]
        add = bytes(_code([(x + y) % ell for x, y in zip(a, b)], ell) for a in reps for b in reps)
        for m in range(p):  # an irreducible x^r + low exists, so one is kept
            modulus = _digits(m, ell, r) + (1,)
            mul = _mul_table(reps, add, modulus, ell)
            if mul is not None:
                break
        table = FieldTable(p, ell, r, modulus, add, mul)
    verify_field_axioms(table)
    verify_spread_tables(table)
    return table


def verify_field_axioms(field: FieldTable) -> None:
    """Exhaustive check of the field axioms on the add and mul tables, read as
    rows add[a][b] = a + b; raises AssertionError naming the first axiom that
    fails and the elements it fails at.  First means first in a scan over
    each element, then each pair (a, b), then each triple (a, b, c), that
    tests every axiom at one place before it moves on.

    Every pair and triple is checked, in O(p^2) Python steps: commutativity
    compares each table with its transpose, and for each a the p*p-byte
    blocks over (b, c) of (a+b)+c and a+(b+c), (ab)c and a(bc), a(b+c) and
    ab+ac are built by joining table rows and by ``bytes.translate`` through
    256-byte rows, then compared whole; a mismatch is placed at the first
    byte that differs.  Tables that are not p*p codes below p are refused
    before any axiom is checked."""
    p, els = field.order, range(field.order)
    addt, mult = field.add_table, field.mul_table
    if len(addt) != p * p or len(mult) != p * p or max(addt + mult, default=0) >= p:
        raise AssertionError(f"F_{p}: the tables are not {p} x {p} codes below {p}")
    add = [addt[a * p : a * p + p] for a in els]
    mul = [mult[a * p : a * p + p] for a in els]

    def holds(ok, axiom, *at):
        if not ok:
            raise AssertionError(f"F_{p}: {axiom} fails at {at}")

    for a in els:
        holds(add[a][0] == a and mul[a][1] == a and mul[a][0] == 0, "identities", a)
        holds(add[a][field.neg(a)] == 0, "additive inverse", a)
        if a:
            holds(mul[a][field.inv(a)] == 1, "multiplicative inverse", a)

    def first_failure(at, *compares):
        # compares are (axiom, left, right) over the places b * p + c; the
        # first differing place fails, the earlier axiom on a tie
        failure = None
        for axiom, left, right in compares:
            if left != right:
                i = next(i for i, (x, y) in enumerate(zip(left, right)) if x != y)
                if failure is None or i < failure[0]:
                    failure = i, axiom
        if failure is not None:
            i, axiom = failure
            raise AssertionError(f"F_{p}: {axiom} fails at {at + divmod(i, p)}")

    def transpose(table):
        return b"".join(table[c::p] for c in els)

    first_failure(
        (),
        ("additive commutativity", addt, transpose(addt)),
        ("multiplicative commutativity", mult, transpose(mult)),
    )
    pad = bytes(256 - p)
    add_rows = [row + pad for row in add]  # translate tables x -> a + x
    mul_rows = [row + pad for row in mul]  # and x -> a * x
    for a in els:
        plus_a, times_a = add[a], mul[a]
        first_failure(
            (a,),
            (
                "additive associativity",
                b"".join(map(add.__getitem__, plus_a)),  # (a + b) + c
                addt.translate(add_rows[a]),  # a + (b + c)
            ),
            (
                "multiplicative associativity",
                b"".join(map(mul.__getitem__, times_a)),  # (ab)c
                mult.translate(mul_rows[a]),  # a(bc)
            ),
            (
                "distributivity",
                addt.translate(mul_rows[a]),  # a(b + c)
                b"".join(times_a.translate(add_rows[x]) for x in times_a),  # ab + ac
            ),
        )


def verify_spread_tables(field: FieldTable) -> None:
    """Exhaustive check that whole-vector addition through the spread
    tables is field addition: for every pair a, b the sum of the spread codes
    fits in one byte and unspreads to a + b.  Raises AssertionError naming
    the order and the first pair it fails at."""
    p, spread, unspread = field.order, field.spread_table, field.unspread_table
    for a, b in product(range(p), repeat=2):
        s = spread[a] + spread[b]
        if s > 255 or unspread[s] != field.add_table[a * p + b]:
            raise AssertionError(f"F_{p}: spread addition fails at {(a, b)}")
