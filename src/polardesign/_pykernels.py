"""F_p matrix kernels: the hot loops of enumeration and subspace products.

Matrices are row-major bytes of field codes.  Each kernel takes the
``FieldTable`` (``extend_level`` takes the form, which carries it) and reads
its flat lookup tables once at entry (add/mul of length p*p, neg/inv/conj of
length p).
"""

from __future__ import annotations


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

    ``form`` is the ``FormEvaluator`` on F_p^d; its field, its row-major
    ``gram`` and ``quad`` bytes and its kind are read once at entry."""
    field, gram, quad = form.field, form.gram, form.quad
    hermitian, quadratic = form.kind == "hermitian", form.kind == "quadratic"
    p, addt, mult = field.order, field.add_table, field.mul_table
    negt, conj = field.neg_table, field.conj_table
    out = bytearray()
    msize = j * d
    for im in range(count):
        sbase = im * msize
        srows = [list(mats[sbase + i * d : sbase + (i + 1) * d]) for i in range(j)]
        spivots = [row.index(1) for row in srows]

        # constraint matrix, columns reversed: new vector v must satisfy
        # B(s_i, v) = 0
        M = bytearray(msize)
        for i in range(j):
            srow = srows[i]
            for c in range(d):
                acc = 0
                for g in range(d):
                    sg = srow[g]
                    if sg:
                        gc = gram[g * d + c]
                        if gc:
                            acc = addt[acc * p + mult[sg * p + gc]]
                if hermitian:
                    acc = conj[acc]
                M[i * d + d - 1 - c] = acc
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

                if hermitian:
                    acc = 0
                    for c in range(d):
                        cv = conj[v[c]]
                        if cv:
                            gv = 0
                            for g in range(d):
                                vg = v[g]
                                if vg:
                                    gc = gram[g * d + c]
                                    if gc:
                                        gv = addt[gv * p + mult[vg * p + gc]]
                            acc = addt[acc * p + mult[gv * p + cv]]
                    if acc:
                        continue
                elif quadratic:
                    acc = 0
                    for i in range(d):
                        vi = v[i]
                        if vi:
                            for c in range(i, d):
                                qc = quad[i * d + c]
                                if qc and v[c]:
                                    acc = addt[acc * p + mult[mult[vi * p + v[c]] * p + qc]]
                    if acc:
                        continue

                # canonical insertion of v into S; a no-op for walks from the
                # zero space, where v leads before every row of S
                new_rows = []
                inserted = False
                for pv, row in zip(spivots, srows):
                    if not inserted and lead < pv:
                        new_rows.append(v)
                        inserted = True
                    nr = row[:]
                    f = nr[lead]
                    if f:
                        nf = negt[f]
                        for c in range(lead, d):
                            vc = v[c]
                            if vc:
                                nr[c] = addt[nr[c] * p + mult[vc * p + nf]]
                    new_rows.append(nr)
                if not inserted:
                    new_rows.append(v)
                for row in new_rows:
                    out.extend(row)
    return bytes(out)


def products(tmats, count, t, kdim, umat, d, field):
    """Batch of T @ U products: ``count`` many t x kdim matrices against one
    kdim x d matrix.  RREF inputs yield RREF outputs."""
    p, addt, mult = field.order, field.add_table, field.mul_table
    out = bytearray(count * t * d)
    for im in range(count):
        tb = im * t * kdim
        ob = im * t * d
        for i in range(t):
            rb = ob + i * d
            for g in range(kdim):
                coef = tmats[tb + i * kdim + g]
                if coef:
                    ub = g * d
                    for c in range(d):
                        uv = umat[ub + c]
                        if uv:
                            out[rb + c] = addt[out[rb + c] * p + mult[coef * p + uv]]
    return bytes(out)
