"""F_p matrix kernels: the hot loops of enumeration and subspace products.

Matrices are row-major bytes of field codes.  Each kernel takes the
``FieldTable`` (``extend_level`` takes the form, which carries it) and reads
its lookup tables once at entry: ``rref`` and ``extend_level`` the flat ones
(add/mul of length p*p, neg/inv/conj of length p), ``products`` the 256-byte
translate tables, with which it scales and adds whole byte strings of codes,
one string per row combination over a whole batch of bases.
``extend_level`` reads its form once too, as nonzero terms and a conjugation
table, and never branches on the form's kind inside its loops; it needs
canonical, totally isotropic parents and a form of the kind it names.
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


def _terms(mat, d):
    """The nonzero entries (g, c, a) of a d x d row-major matrix."""
    return [(i // d, i % d, a) for i, a in enumerate(mat) if a]


def extend_level(mats, count, j, d, form, start_pivots):
    """One enumeration level: the isotropic (j+1)-spaces containing the
    j-spaces in ``mats``, as concatenated canonical RREF matrices, each
    produced exactly once.  The parents must be canonical RREF matrices of
    totally isotropic subspaces.

    Every j-space in ``mats`` contains a fixed start subspace whose pivot
    columns are ``start_pivots`` (empty for a walk from the zero space).  A
    child T is produced only by its canonical parent: the j-space inside T
    that contains the start and lacks m, T's first pivot column outside the
    start's pivots.  So a parent is extended only by vectors leading before
    its own first pivot outside the start's pivots (orderly generation:
    R. C. Read, 1978; B. D. McKay, 1998).

    perp(S) of a parent S is the kernel of M, the matrix with rows
    B(s_i, .), and is read off one RREF: with M's columns reversed, the
    kernel vector of free column r leads at d-1-r with a 1, holds
    -Mb[i][r] at d-1-pivot_i and is zero on every other lead, so these
    vectors are the RREF of perp(S).  S lies in perp(S), so S's pivots are
    leads of perp(S); the vectors leading elsewhere vanish on them and span
    the complement of S in perp(S) that vanishes on S's pivot columns.

    ``form`` is the ``FormEvaluator`` on F_p^d, of the kind it names, with
    ``quad`` upper triangular.  One rule, read off the form at entry, serves
    all three kinds: with sigma the conjugation for a Hermitian form and the
    identity otherwise, B(u, w) sums u_g a sigma(w_c) over the nonzero Gram
    terms (g, c, a), so entry c of row i of M is sigma(sum of s_g a over the
    terms in column c).  v is isotropic iff the same sum over the self terms
    is 0: Q(v) over the ``quad`` terms of a quadratic form, B(v, v) over the
    Gram terms of a Hermitian one, and no terms for an alternating one."""
    field, kind = form.field, form.kind
    p, addt, mult, negt = field.order, field.add_table, field.mul_table, field.neg_table
    sigma = field.conj_table if kind == "hermitian" else bytes(range(p))
    gterms = _terms(form.gram, d)
    # the self terms; quad is empty for an alternating form
    sterms = gterms if kind == "hermitian" else _terms(form.quad, d)
    out = bytearray()
    msize = j * d
    for im in range(count):
        sbase = im * msize
        srows = [mats[sbase + i * d : sbase + (i + 1) * d] for i in range(j)]
        spivots = [row.index(1) for row in srows]

        # constraint matrix, columns reversed: new vector v must satisfy
        # B(s_i, v) = 0
        M = bytearray()
        for srow in srows:
            acc = [0] * d
            for g, c, a in gterms:
                sg = srow[g]
                if sg:
                    acc[c] = addt[acc[c] * p + mult[sg * p + a]]
            M.extend(sigma[x] for x in reversed(acc))
        Mb, pivots = rref(bytes(M), j, d, field)

        # the RREF rows of perp(S) that lead outside S's pivots, in
        # ascending lead order, so every combination of comp[idx] with later
        # vectors leads at comp[idx]'s lead with a 1
        comp = []
        for lead in range(d):
            r = d - 1 - lead
            if r in pivots or lead in spivots:
                continue
            w = [0] * d
            w[lead] = 1
            for i, pc in enumerate(pivots):
                w[d - 1 - pc] = negt[Mb[i * d + r]]
            comp.append((lead, w))

        # one candidate vector per projective point of perp(S)/S that leads
        # before the parent's first pivot outside the start
        bound = next((pv for pv in spivots if pv not in start_pivots), d)
        nc = len(comp)
        for idx in range(nc):
            lead, first = comp[idx]
            if lead >= bound:
                break
            at = bisect_left(spivots, lead)
            nfree = nc - 1 - idx
            for it in range(p**nfree):
                v = first[:]
                x = it
                for pos in range(nfree):
                    ci = x % p
                    x //= p
                    if ci:
                        cr = comp[idx + 1 + pos][1]
                        for c in range(d):
                            rc = cr[c]
                            if rc:
                                v[c] = addt[v[c] * p + mult[ci * p + rc]]

                acc = 0
                for g, c, a in sterms:
                    vg, vc = v[g], v[c]
                    if vg and vc:
                        acc = addt[acc * p + mult[mult[vg * p + a] * p + sigma[vc]]]
                if acc:
                    continue

                # canonical insertion of v, which leads at `lead` with a 1
                # and vanishes on S's pivots: the rows leading before it lose
                # their entry at `lead`, the rows after it are zero there
                for row in srows[:at]:
                    nf = negt[row[lead]]
                    out.extend([addt[x * p + mult[y * p + nf]] for x, y in zip(row, v)])
                out.extend(v)
                out.extend(mats[sbase + at * d : sbase + msize])
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
    spread, unspread = field.spread_table, field.unspread_table
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
                    total = int.from_bytes(acc.translate(spread), "little")
                    total += int.from_bytes(got.translate(spread), "little")
                    got = total.to_bytes(size, "little").translate(unspread)
                combos[prefix] = got
            acc = got
    return [combos[code] for code in codes]
