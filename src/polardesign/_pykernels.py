"""F_p matrix kernels: the hot loops of enumeration and subspace products.

Matrices are row-major bytes of field codes.  ``rref`` takes the
``FieldTable`` and reads its flat lookup tables once at entry (add/mul of
length p*p, neg/inv of length p); ``nullspace`` reads a basis off one
``rref``.  ``products`` and ``extend_level`` scale and add whole byte
strings of codes with its 256-byte translate tables: ``products`` one string
per row combination over a whole batch of bases, ``extend_level`` one string
per column of the first rows of a group of level members that agree on their
other rows, or at level 0 per slice of the points of perp(S) / S.
``extend_level`` takes the ``FormEvaluator``, which carries the field, and
reads the form only through its ``pairing_row`` and ``is_isotropic_vector``;
it needs the complete level of a walk, every totally isotropic space of one
dimension that contains the walk's start, each by its word.  ``_records``
is the one cutter of a string into fixed-size records: a level, a column of
t-subspaces or a slice of points.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, compress
from struct import iter_unpack, unpack

_SLICE_POINTS = 1 << 14  # the most points of perp(S) / S built in one string
_CUT_RECORDS = 64  # records per struct item in _records
_ZERO_TO_ONE = bytes([1]) + bytes(255)  # translate table: 1 for 0, 0 for the rest


def _records(mats, size):
    """The ``size``-byte records of the string ``mats``, in order, as a
    list.  ``struct`` cuts _CUT_RECORDS records per item, so it makes no
    tuple per record, and it caches the format per record size."""
    whole = len(mats) - len(mats) % (size * _CUT_RECORDS)
    items = iter_unpack(f"{size}s" * _CUT_RECORDS, memoryview(mats)[:whole])
    records = list(chain.from_iterable(items))
    records += unpack(f"{size}s" * ((len(mats) - whole) // size), mats[whole:])
    return records


def rref(mat, rows, cols, field):
    """Reduced row echelon form.  Returns (bytes, pivot columns); zero rows
    trail, so the rank is the number of pivots."""
    p, addt, mult = field.order, field.add_table, field.mul_table
    negt, invt = field.neg_table, field.inv_table
    a = list(mat)
    pivots = []
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        piv = -1
        for r in range(rank, rows):
            if a[r * cols + col]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            rb, pb = rank * cols, piv * cols
            for c in range(col, cols):
                a[rb + c], a[pb + c] = a[pb + c], a[rb + c]
        base = rank * cols
        s = invt[a[base + col]]
        if s != 1:
            for c in range(col, cols):
                a[base + c] = mult[a[base + c] * p + s]
        for r in range(rows):
            if r == rank:
                continue
            f = a[r * cols + col]
            if f:
                nf = negt[f]
                rb = r * cols
                for c in range(col, cols):
                    a[rb + c] = addt[a[rb + c] * p + mult[a[base + c] * p + nf]]
        pivots.append(col)
        rank += 1
    return bytes(a), pivots


def _add_strings(x, y, field):
    """The field sum of two equal-length strings of codes, entry by entry."""
    spread = field.spread_table
    total = int.from_bytes(x.translate(spread), "little")
    total += int.from_bytes(y.translate(spread), "little")
    return total.to_bytes(len(x), "little").translate(field.unspread_table)


def extend_level(mats, count, j, d, form, start):
    """One level of a walk from the canonical, totally isotropic subspace
    ``start`` (b"" for the zero space).  A subspace W containing S = start
    is held by its word: the canonical RREF of the rows of W that vanish on
    S's pivot columns, the rows of W's canonical matrix whose pivot is not
    one of S's.  W is S plus the span of its word.  ``mats`` must hold the
    complete level j: the words of every totally isotropic space that
    contains S and has dimension dim S + j.  Returns the words of level
    j + 1, concatenated, each produced exactly once; at j = 0 the level is
    the empty word of S alone, and its children come from
    ``_start_children``.

    The first row of a word is its head, the others its tail.  A child
    word t_1 < t_2 < .. is produced only by its canonical parent P, the word
    t_2, t_3, .. (orderly generation: R. C. Read, 1978; B. D. McKay, 1998),
    and it is P plus v = t_1, the head of the word Q = t_1, t_3, .., which
    shares P's tail.  So the level is built by joining words that share a
    tail, as Apriori joins itemsets (R. Agrawal and R. Srikant, 1994): P
    with head r takes the head v of every word of its group with
    lead(v) < lead(r), v[lead(r)] = 0 and B(v, r) = 0.  Then v vanishes on
    P's pivots and is orthogonal to P, so S + P + <v> is totally isotropic,
    its word is v followed by P and its canonical parent is P: each child
    comes from exactly one pair.  The two tests run on all of a group's
    heads at once, on its column strings: with w = form.pairing_row(r),
    column g scaled by w_g and summed gives B(., r) on the whole group.
    ``form`` is the ``FormEvaluator`` on F_p^d.

    Only words that can have children are joined: with a group's words
    sorted by lead, the words that share the smallest lead have no head
    before theirs, so a group whose heads all share one lead is skipped
    and the rest start past them.  A pairing row is read once per distinct
    head within one call, kept as its (g, scale table of w_g) pairs for
    w_g != 0, since one head leads words of many groups.  A parent's
    children come from one join: the word P between the heads that pass
    both tests, picked from the group's heads by the tests' zero bytes,
    then P once more after the last."""
    if j == 0:
        return _start_children(start, d, form)
    field, scale = form.field, form.field.scale_tables

    # words by position, per tail: one int per word, lead(head) * span +
    # the word's offset, so words sort by the lead of their head
    msize = j * d
    span = count * msize
    groups = {}
    for base in range(0, span, msize):
        tail = mats[base + d : base + msize]
        groups.setdefault(tail, []).append((mats.index(1, base) - base) * span + base)

    out = bytearray()
    pairings = {}  # head -> (g, scale[w_g]) for each w_g != 0 of its pairing row
    for members in groups.values():
        members.sort()
        leads = [member // span for member in members]
        first = bisect_right(leads, leads[0])  # the first head with a head before it
        if first == len(members):
            continue
        records = [mats[m % span : m % span + d] for m in members]
        heads = b"".join(records)
        columns = [heads[c::d] for c in range(d)]
        for i in range(first, len(members)):
            lead_r, r = divmod(members[i], span)
            below = bisect_left(leads, lead_r, 0, i)  # the heads leading before r
            head = records[i]
            terms = pairings.get(head)
            if terms is None:
                row = form.pairing_row(head)
                terms = pairings[head] = [(g, scale[wg]) for g, wg in enumerate(row) if wg]
            pairing = None  # B(v, r) for every head v of the group
            for g, table in terms:
                term = columns[g].translate(table)
                pairing = term if pairing is None else _add_strings(pairing, term, field)
            # zero exactly where B(v, r) = 0 and v[lead(r)] = 0
            fails = int.from_bytes(pairing, "little") | int.from_bytes(columns[lead_r], "little")
            keep = fails.to_bytes(len(members), "little")[:below].translate(_ZERO_TO_ONE)
            word = mats[r : r + msize]
            children = word.join(compress(records, keep))
            if children:
                out += children
                out += word
    return bytes(out)


def _start_children(start, d, form):
    """The words of level 1 of a walk from the canonical, totally isotropic
    subspace ``start``: one v per isotropic point of perp(S) / S, the one
    that vanishes on S's pivot columns, concatenated.

    perp(S) is the nullspace of the matrix with rows B(., s_i) (the form is
    reflexive, so B(v, s) = 0 iff B(s, v) = 0).  S lies in perp(S), so S's
    pivots are leads of its RREF basis; the basis vectors c_1, c_2, .. that
    lead elsewhere vanish on them and span the complement of S in perp(S)
    that vanishes on S's pivot columns.  Its points leading at c_i are c_i
    plus the span of the c_j after it: the span of the first ``low`` of those
    is one string, a slice of at most _SLICE_POINTS points, shifted by each
    combination of the others."""
    field = form.field
    spivots = {start.index(1, i) - i for i in range(0, len(start), d)}
    pairing = b"".join(bytes(form.pairing_row(start[i : i + d])) for i in range(0, len(start), d))
    comp = [v for v in nullspace(pairing, len(start) // d, d, field) if v.index(1) not in spivots]
    low = max(n for n in range(_SLICE_POINTS.bit_length()) if field.order**n <= _SLICE_POINTS)
    out = bytearray()
    for idx, lead in enumerate(comp):
        block = _span_points(lead, comp[idx + 1 : idx + 1 + low], field)
        offsets = _span_points(bytes(d), comp[idx + 1 + low :], field)
        copies = len(block) // d
        for at, offset in enumerate(_records(offsets, d)):
            points = _add_strings(block, offset * copies, field) if at else block
            out += b"".join(filter(form.is_isotropic_vector, _records(points, d)))
    return bytes(out)


def _span_points(base, vectors, field):
    """base + sum c_i vectors[i] for every c in one string, at index sum c_i p^i."""
    p, scale = field.order, field.scale_tables
    for u in vectors:
        copies = len(base) // len(u)
        base += b"".join(
            [_add_strings(base, u.translate(scale[c]) * copies, field) for c in range(1, p)]
        )
    return base


def nullspace(mat, rows, d, field):
    """The RREF basis of {v : M v = 0}, M rows x d, as d-code strings by
    ascending lead: with Mr the RREF of M's codes reversed, free column r
    gives the vector with 1 at d-1-r and -Mr[i][r] at d-1-pivot_i."""
    red, pivots = rref(mat[::-1], rows, d, field)  # reversed rows span the same
    basis = []
    for r in range(d - 1, -1, -1):
        if r not in pivots:
            v = bytearray(d)
            v[d - 1 - r] = 1
            for i, pc in enumerate(pivots):
                v[d - 1 - pc] = field.neg_table[red[i * d + r]]
            basis.append(bytes(v))
    return basis


def products(umats, count, kdim, d, codes, field):
    """Row combinations of a batch of ``count`` many kdim x d matrices U,
    concatenated in ``umats``, one whole level at a time: for each code in
    ``codes``, the combination sum_g c_g U[g] for every U, as one string of
    count * d codes (U's combination at offset index(U) * d).

    A code is a coefficient vector (c_0, .., c_{kdim-1}) read as a base-p
    numeral, c_0 the most significant digit, whose leading nonzero entry is
    1, as is every row of an RREF matrix.  A code's combination is the one of
    the code without its lowest-order nonzero digit plus that digit times the
    row string of every U[g]: one scaling and one addition over the level,
    each a few ``bytes.translate`` calls and one int addition (the
    ``FieldTable`` spread tables), and at most (p^kdim - 1)/(p - 1)
    strings are held."""
    p, scale = field.order, field.scale_tables
    size = count * d
    rows = []  # rows[g]: row g of every U, one level string
    for g in range(kdim):
        row = bytearray(size)
        for c in range(d):
            row[c::d] = umats[g * d + c :: kdim * d]
        rows.append(bytes(row))
    units = [p ** (kdim - 1 - g) for g in range(kdim)]
    combos = {}
    for code in codes:
        # the digits from the most significant down: each nonzero one
        # extends the prefix, whose combination is the previous prefix's
        # plus the digit's multiple of rows[g]
        prefix, acc = 0, None
        for g, unit in enumerate(units):
            digit = code // unit % p
            if not digit:
                continue
            prefix += digit * unit
            got = combos.get(prefix)
            if got is None:
                got = rows[g] if digit == 1 else rows[g].translate(scale[digit])
                if acc is not None:
                    got = _add_strings(acc, got, field)
                combos[prefix] = got
            acc = got
    return [combos[code] for code in codes]
