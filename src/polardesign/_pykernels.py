"""F_p matrix kernels: the hot loops of enumeration and subspace products.

Matrices are row-major bytes of field codes; field arithmetic comes in as
flat lookup tables (add/mul of length p*p, neg/inv/conj of length p).
"""

from __future__ import annotations

# form kind codes, as in geometry._KIND_CODES
KIND_ALTERNATING = 0
KIND_HERMITIAN = 1
KIND_QUADRATIC = 2


def rref(mat, rows, cols, p, addt, mult, negt, invt):
    """Reduced row echelon form.  Returns (bytes, rank); zero rows trail."""
    a = list(mat)
    rank = 0
    for col in range(cols):
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
        rank += 1
        if rank == rows:
            break
    return bytes(a), rank


def _reduce_mod(w, rows_by_pivot, d, p, addt, mult, negt):
    # subtract row multiples so w vanishes on every listed pivot column
    for pv, row in rows_by_pivot:
        f = w[pv]
        if f:
            nf = negt[f]
            for c in range(pv, d):
                rc = row[c]
                if rc:
                    w[c] = addt[w[c] * p + mult[rc * p + nf]]
    return w


def extend_level(
    mats, count, j, d, p, addt, mult, negt, invt, kind, gram, quad, conj, start_pivots
):
    """One enumeration level: the isotropic (j+1)-spaces containing the
    j-spaces in ``mats``, as concatenated canonical RREF matrices, each
    produced exactly once.

    Every j-space in ``mats`` contains a fixed start subspace whose pivot
    columns are ``start_pivots`` (empty for a walk from the zero space).  A
    child T is produced only by its canonical parent: the j-space inside T
    that contains the start and lacks m, T's first pivot column outside the
    start's pivots.  So a parent is extended only by vectors leading before
    its own first pivot outside the start's pivots (orderly generation:
    R. C. Read, 1978; B. D. McKay, 1998)."""
    out = bytearray()
    msize = j * d
    for im in range(count):
        sbase = im * msize
        srows = [list(mats[sbase + i * d : sbase + (i + 1) * d]) for i in range(j)]
        spivots = []
        for row in srows:
            for c in range(d):
                if row[c]:
                    spivots.append(c)
                    break

        # constraint matrix: new vector v must satisfy B(s_i, v) = 0
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
                if kind == KIND_HERMITIAN:
                    acc = conj[acc]
                M[i * d + c] = acc
        if j:
            Mb, mrank = rref(bytes(M), j, d, p, addt, mult, negt, invt)
        else:
            Mb, mrank = b"", 0
        pivots = []
        for r in range(mrank):
            for c in range(d):
                if Mb[r * d + c]:
                    pivots.append(c)
                    break
        pivset = set(pivots)

        # kernel basis of M, then a complement of the row space of S inside it
        accum = list(zip(spivots, srows))
        accum.sort()
        comp = []
        for c0 in range(d):
            if c0 in pivset:
                continue
            w = [0] * d
            w[c0] = 1
            for i, pc in enumerate(pivots):
                w[pc] = negt[Mb[i * d + c0]]
            _reduce_mod(w, accum, d, p, addt, mult, negt)
            lead = -1
            for c in range(d):
                if w[c]:
                    lead = c
                    break
            if lead < 0:
                continue
            s = invt[w[lead]]
            if s != 1:
                for c in range(lead, d):
                    w[c] = mult[w[c] * p + s]
            accum.append((lead, w))
            accum.sort()
            comp.append((lead, w))
        # ascending leads (the leads are distinct), so every combination of
        # comp[idx] with later vectors leads at comp[idx]'s lead
        comp.sort()

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

                if kind == KIND_HERMITIAN:
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
                elif kind == KIND_QUADRATIC:
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
                c0 = 0
                while not v[c0]:
                    c0 += 1
                s = invt[v[c0]]
                if s != 1:
                    for c in range(c0, d):
                        v[c] = mult[v[c] * p + s]
                new_rows = []
                inserted = False
                for pv, row in zip(spivots, srows):
                    if not inserted and c0 < pv:
                        new_rows.append(v)
                        inserted = True
                    nr = row[:]
                    f = nr[c0]
                    if f:
                        nf = negt[f]
                        for c in range(c0, d):
                            vc = v[c]
                            if vc:
                                nr[c] = addt[nr[c] * p + mult[vc * p + nf]]
                    new_rows.append(nr)
                if not inserted:
                    new_rows.append(v)
                for row in new_rows:
                    out.extend(row)
    return bytes(out)


def products(tmats, count, t, kdim, umat, d, p, addt, mult):
    """Batch of T @ U products: ``count`` many t x kdim matrices against one
    kdim x d matrix.  RREF inputs yield RREF outputs."""
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
