"""F_p matrix kernels: the hot loops of enumeration and subspace products.

Matrices are row-major bytes of field codes.  ``rref`` takes the
``FieldTable`` and reads its flat lookup tables once at entry (add/mul of
length p*p, neg/inv of length p).  ``products`` and ``extend_level`` scale
and add whole byte strings of codes with its 256-byte translate tables:
``products`` one string per row combination over a whole batch of bases,
``extend_level`` one string per column of the first rows of a group of
level members that agree on their other rows.  ``extend_level`` takes the
``FormEvaluator``, which carries the field, and reads the form only through
its ``pairing_row`` and ``is_isotropic_vector``; it needs the complete level
of a walk, every totally isotropic space of one dimension that contains the
walk's start, each by its word.
"""

from __future__ import annotations

from bisect import bisect_left


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
    ``form`` is the ``FormEvaluator`` on F_p^d."""
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
    for members in groups.values():
        members.sort()
        leads = [member // span for member in members]
        heads = b"".join([mats[head : head + d] for head in (m % span for m in members)])
        columns = [heads[c::d] for c in range(d)]
        for member in members:
            lead_r, r = divmod(member, span)
            below = bisect_left(leads, lead_r)  # the heads leading before r
            if not below:
                continue
            pairing = None  # B(v, r) for every head v of the group
            for g, wg in enumerate(form.pairing_row(mats[r : r + d])):
                if wg:
                    term = columns[g].translate(scale[wg])
                    pairing = term if pairing is None else _add_strings(pairing, term, field)
            # zero exactly where B(v, r) = 0 and v[lead(r)] = 0
            fails = int.from_bytes(pairing, "little") | int.from_bytes(columns[lead_r], "little")
            fails = fails.to_bytes(len(members), "little")
            word = mats[r : r + msize]
            i = fails.find(0, 0, below)
            while i >= 0:
                v = members[i] % span
                out += mats[v : v + d]
                out += word
                i = fails.find(0, i + 1, below)
    return bytes(out)


def _start_children(start, d, form):
    """The words of level 1 of a walk from the canonical, totally isotropic
    subspace ``start``: one v per isotropic point of perp(S) / S, the one
    that vanishes on S's pivot columns, concatenated.

    perp(S) is the kernel of M, the matrix with rows B(., s_i) (the form is
    reflexive, so B(v, s) = 0 iff B(s, v) = 0), and is read off one RREF:
    with M's columns reversed, the kernel vector of free column r leads at
    d-1-r with a 1, holds -Mb[i][r] at d-1-pivot_i and is zero on every
    other lead, so these vectors are the RREF of perp(S).  S lies in
    perp(S), so S's pivots are leads of perp(S); the vectors leading
    elsewhere vanish on them and span the complement of S in perp(S) that
    vanishes on S's pivot columns."""
    field = form.field
    p, addt, mult, negt = field.order, field.add_table, field.mul_table, field.neg_table
    srows = [start[i : i + d] for i in range(0, len(start), d)]
    spivots = [row.index(1) for row in srows]

    # constraint matrix, columns reversed: new vector v must satisfy
    # B(v, s_i) = 0
    M = bytes(x for srow in srows for x in reversed(form.pairing_row(srow)))
    Mb, pivots = rref(M, len(srows), d, field)

    # the RREF rows of perp(S) that lead outside S's pivots, in ascending
    # lead order, so every combination of comp[idx] with later vectors
    # leads at comp[idx]'s lead with a 1
    comp = []
    for lead in range(d):
        r = d - 1 - lead
        if r in pivots or lead in spivots:
            continue
        w = [0] * d
        w[lead] = 1
        for i, pc in enumerate(pivots):
            w[d - 1 - pc] = negt[Mb[i * d + r]]
        comp.append(w)

    # one candidate vector per projective point of perp(S)/S
    out = bytearray()
    nc = len(comp)
    for idx in range(nc):
        nfree = nc - 1 - idx
        for it in range(p**nfree):
            v = comp[idx][:]
            x = it
            for pos in range(nfree):
                ci = x % p
                x //= p
                if ci:
                    cr = comp[idx + 1 + pos]
                    for c in range(d):
                        rc = cr[c]
                        if rc:
                            v[c] = addt[v[c] * p + mult[ci * p + rc]]
            if form.is_isotropic_vector(v):
                out.extend(v)
    return bytes(out)


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
