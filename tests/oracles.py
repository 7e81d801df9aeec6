"""Brute-force oracles, deliberately independent of the library's
enumeration path: subspaces come from direct RREF-pattern generation, and
isotropy is checked on every vector pair of the full span."""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, islice, product
from math import ceil
from operator import itemgetter
from typing import Sequence

from polardesign import _pykernels as kernels
from polardesign.counting import decimal_string, gaussian_binomial, polar_count
from polardesign.decode import build_decoding_system
from polardesign.fields import FieldTable
from polardesign.geometry import (
    DEFAULT_ENUMERATION_BUDGET,
    PolarSpace,
    Subspace,
    _final_level,
    _rep_codes,
)
from polardesign.klp import _exact, ceil_log2


def all_vectors(p: int, d: int):
    return [tuple(v) for v in product(range(p), repeat=d)]


def span_vectors(field, subspace: Subspace):
    """Every vector of the row space, by direct linear combination."""
    p, d = field.order, subspace.ambient
    vectors = set()
    for coeffs in product(range(p), repeat=subspace.k):
        vec = [0] * d
        for c, row in zip(coeffs, subspace.rows):
            if c:
                for i in range(d):
                    if row[i]:
                        vec[i] = field.add(vec[i], field.mul(c, row[i]))
        vectors.add(tuple(vec))
    return vectors


def naive_all_subspaces(field, d: int, k: int):
    """All k-subspaces of F_p^d as Subspace values, via RREF patterns."""
    p = field.order
    if k == 0:
        return [Subspace.from_rows(d, ())]
    out = []
    for pivots in combinations(range(d), k):
        pivset = set(pivots)
        cells = [
            (i, c) for i in range(k) for c in range(pivots[i] + 1, d) if c not in pivset
        ]
        for values in product(range(p), repeat=len(cells)):
            rows = [[0] * d for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, c), val in zip(cells, values):
                rows[i][c] = val
            out.append(Subspace.from_rows(d, rows))
    return sorted(out)


# The per-entry form evaluation that geometry.FormEvaluator's one rule over
# its nonzero terms replaced, kept verbatim as the reference for B and Q.
def reference_bilinear(form, u, w) -> int:
    """f(u, w); for quadratic kind this is the polar form of Q."""
    d, f = form.dimension, form.field
    if len(u) != d or len(w) != d:
        raise ValueError("vector dimension mismatch")
    conj = form.kind == "hermitian"
    acc = 0
    for c in range(d):
        wc = f.conjugate(w[c]) if conj else w[c]
        if wc:
            gv = 0
            for g in range(d):
                if u[g] and form.gram[g * d + c]:
                    gv = f.add(gv, f.mul(u[g], form.gram[g * d + c]))
            acc = f.add(acc, f.mul(gv, wc))
    return acc


def reference_quadratic(form, u) -> int:
    """Q(u), quadratic kind only."""
    if form.kind != "quadratic":
        raise ValueError(f"{form.kind} form has no quadratic value")
    d, f = form.dimension, form.field
    if len(u) != d:
        raise ValueError("vector dimension mismatch")
    acc = 0
    for i in range(d):
        if u[i]:
            for c in range(i, d):
                q = form.quad[i * d + c]
                if q and u[c]:
                    acc = f.add(acc, f.mul(q, f.mul(u[i], u[c])))
    return acc


def naive_is_totally_isotropic(space, subspace: Subspace) -> bool:
    """Isotropy verified on the full span, not just a basis, with the
    reference form evaluation."""
    form, field = space.form, space.field
    span = span_vectors(field, subspace)
    for u in span:
        if form.kind == "quadratic" and reference_quadratic(form, u) != 0:
            return False
        if form.kind == "hermitian" and reference_bilinear(form, u, u) != 0:
            return False
        for w in span:
            if reference_bilinear(form, u, w) != 0:
                return False
    return True


def naive_isotropic_kspaces(space, k: int):
    return [
        s
        for s in naive_all_subspaces(space.field, space.d, k)
        if naive_is_totally_isotropic(space, s)
    ]


def naive_contains(field, outer: Subspace, inner: Subspace) -> bool:
    return span_vectors(field, inner) <= span_vectors(field, outer)


def bruteforce_fixed_intersection_counts(field, k: int, t: int, ell: int):
    """Inside the plain space W = F_p^(k+t): take V = <e_0..e_{t-1}> and a
    t-space V' meeting it in ell dimensions, then histogram all k-subspaces
    U >= V' by dim(U cap V).  Exhaustive, no closed forms."""
    from polardesign.geometry import intersection_dimension, subspace_contains

    d = k + t
    vspace = Subspace.from_rows(
        d, [[1 if c == i else 0 for c in range(d)] for i in range(t)]
    )
    rows = [tuple(1 if c == i else 0 for c in range(d)) for i in range(ell)]
    rows += [tuple(1 if c == t + i else 0 for c in range(d)) for i in range(t - ell)]
    vprime = Subspace.from_rows(d, rows)
    histogram = {}
    for u in naive_all_subspaces(field, d, k):
        if subspace_contains(field, u, vprime):
            j = intersection_dimension(field, u, vspace)
            histogram[j] = histogram.get(j, 0) + 1
    return histogram


def naive_intersection_dimension(field, a: Subspace, b: Subspace) -> int:
    common = len(span_vectors(field, a) & span_vectors(field, b))
    dim = 0
    while field.order**dim < common:
        dim += 1
    if field.order**dim != common:  # raised, not asserted, so it holds under python -O
        raise AssertionError(f"{common} common vectors are no power of {field.order}")
    return dim


# The per-matrix products kernel that the whole-level _pykernels.products
# replaced, kept verbatim as the reference for the rows it computes.
def reference_products(tmats, count, t, kdim, umat, d, field):
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


# The per-parent level kernel that the join of _pykernels.extend_level
# replaced, kept verbatim as the reference for the levels it builds.
def _terms(mat, d):
    """The nonzero entries (g, c, a) of a d x d row-major matrix."""
    return [(i // d, i % d, a) for i, a in enumerate(mat) if a]


def reference_extend_level(mats, count, j, d, form, start_pivots):
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
        Mb, pivots = kernels.rref(bytes(M), j, d, field)

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


# The join of _pykernels.extend_level before it skipped heads that cannot
# have children, memoised pairing rows per head and wrote a parent's children
# in one join, kept verbatim as the reference for the bytes it returns.
def reference_join_level(mats, count, j, d, form, start):
    """``extend_level``'s level j + 1 of a walk from ``start``, by joining
    every word of a group with every head of the group that leads before
    its own, one pairing row read per word and two appends per child."""
    if j == 0:
        return kernels._start_children(start, d, form)
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
                    pairing = term if pairing is None else kernels._add_strings(pairing, term, field)
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


# The enumeration rule that geometry.FormEvaluator's radical rule replaced,
# kept verbatim as the reference for which quadratic forms are nondegenerate.
def reference_kernel_vectors(flat, rows, cols, field):
    """All vectors in the nullspace {v : M v^T = 0}; cold path, small spaces."""
    red, pivot_cols = kernels.rref(flat, rows, cols, field)
    rank = len(pivot_cols)
    pivots = []
    for r in range(rank):
        for c in range(cols):
            if red[r * cols + c]:
                pivots.append(c)
                break
    free = [c for c in range(cols) if c not in pivots]
    if len(free) > 12:
        raise ValueError("nullspace too large to enumerate")
    basis = []
    for c0 in free:
        v = [0] * cols
        v[c0] = 1
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(red[i * cols + c0])
        basis.append(v)
    p = field.order
    for code in range(p ** len(basis)):
        vec = [0] * cols
        x = code
        for b in basis:
            c = x % p
            x //= p
            if c:
                for i in range(cols):
                    if b[i]:
                        vec[i] = field.add(vec[i], field.mul(c, b[i]))
        yield tuple(vec)


def reference_quadric_is_nondegenerate(field, d: int, gram: bytes, quad: bytes) -> bool:
    """No nonzero vector of the polar form's nullspace is singular, with
    Q(u) = sum_{i <= c} quad[i][c] u_i u_c evaluated directly."""

    def q(u):
        acc = 0
        for i in range(d):
            for c in range(i, d):
                acc = field.add(acc, field.mul(quad[i * d + c], field.mul(u[i], u[c])))
        return acc

    return not any(any(v) and q(v) == 0 for v in reference_kernel_vectors(gram, d, d, field))


def reference_anisotropic_coeff(field) -> int:
    """The least a with u^2 + uv + a v^2 nonzero away from the origin, by
    trying every (u, v)."""
    p = field.order
    for a in range(p):
        if all(
            field.add(field.add(field.mul(u, u), field.mul(u, v)), field.mul(a, field.mul(v, v)))
            for u in range(p)
            for v in range(p)
            if u or v
        ):
            return a
    raise AssertionError(f"no anisotropic binary form over F_{p}")


# The per-triple scan that fields.verify_field_axioms replaced, kept verbatim
# as a differential oracle for its verdicts and AssertionError texts.
def reference_field_axioms(field: FieldTable) -> None:
    """Exhaustive check of the field axioms on the add and mul tables, read as
    rows add[a][b] = a + b; raises AssertionError naming the first axiom that
    fails and the elements it fails at."""
    p, els = field.order, range(field.order)
    add = [field.add_table[a * p : a * p + p] for a in els]
    mul = [field.mul_table[a * p : a * p + p] for a in els]

    def holds(ok, axiom, *at):
        if not ok:
            raise AssertionError(f"F_{p}: {axiom} fails at {at}")

    for a in els:
        holds(add[a][0] == a and mul[a][1] == a and mul[a][0] == 0, "identities", a)
        holds(add[a][field.neg(a)] == 0, "additive inverse", a)
        if a:
            holds(mul[a][field.inv(a)] == 1, "multiplicative inverse", a)
    for a, b in product(els, repeat=2):
        holds(add[a][b] == add[b][a], "additive commutativity", a, b)
        holds(mul[a][b] == mul[b][a], "multiplicative commutativity", a, b)
    for a, b, c in product(els, repeat=3):
        holds(add[add[a][b]][c] == add[a][add[b][c]], "additive associativity", a, b, c)
        holds(mul[mul[a][b]][c] == mul[a][mul[b][c]], "multiplicative associativity", a, b, c)
        holds(mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]], "distributivity", a, b, c)


# The dancing-links-order exact cover that search._exact_cover replaced
# (linked list of constraint headers, per-constraint live-option sizes,
# precomputed option conflicts), kept verbatim as a differential oracle for
# its results and node counts.
def reference_exact_cover(n_constraints, options, node_budget, count_all=False):
    """Exact cover: every constraint hit once.  ``options[pos]`` lists the
    constraints option ``pos`` covers.  Returns (solution, nodes, budget_hit):
    the solution is the chosen positions (None if there is none) or, with
    count_all, the number of exact covers.

    Branches on the first live constraint with the fewest live options and
    tries them in increasing position, as Knuth's Algorithm X (and the
    branching order of dancing links).  Live options are one int bitmask;
    live constraints are a doubly linked list of headers.  Depth-first with
    an explicit stack, one frame per chosen option."""
    head = n_constraints
    right = list(range(1, n_constraints + 1)) + [0]
    left = [head] + list(range(n_constraints))
    colmask = [0] * n_constraints  # per constraint: the options covering it
    for pos, cols in enumerate(options):
        for c in cols:
            colmask[c] |= 1 << pos
    size = [mask.bit_count() for mask in colmask]  # live options per constraint
    conflicts = []  # per option: every option sharing a constraint with it
    for cols in options:
        mask = 0
        for c in cols:
            mask |= colmask[c]
        conflicts.append(mask)
    live = (1 << len(options)) - 1
    stack = []  # per level: (candidates left, live before the pick, pick, killed)
    nodes = count = 0
    while True:
        nodes += 1
        if nodes > node_budget:
            return (count if count_all else None), nodes, True
        best = -1  # the constraint to branch on; -1 to backtrack
        if right[head] == head:
            count += 1
            if not count_all:
                return [frame[2] for frame in stack], nodes, False
        else:
            best = c = right[head]
            best_size = size[c]
            while best_size:
                c = right[c]
                if c == head:
                    break
                if size[c] < best_size:
                    best, best_size = c, size[c]
            if not best_size:
                best = -1
        if best >= 0:
            candidates = live & colmask[best]
        else:
            # backtrack to the deepest level with another option to try
            while stack:
                candidates, live, pos, killed = stack.pop()
                for c in reversed(options[pos]):
                    right[left[c]] = c
                    left[right[c]] = c
                for other in killed:
                    for c in options[other]:
                        size[c] += 1
                if candidates:
                    break
            else:
                return (count if count_all else None), nodes, False
        low = candidates & -candidates
        pos = low.bit_length() - 1
        kill = live & conflicts[pos]
        killed = []
        rest = kill
        while rest:  # highest bit first: rest shrinks as it goes
            other = rest.bit_length() - 1
            rest ^= 1 << other
            killed.append(other)
            for c in options[other]:
                size[c] -= 1
        for c in options[pos]:
            right[left[c]] = right[c]
            left[right[c]] = left[c]
        stack.append((candidates ^ low, live, pos, killed))
        live ^= kill


# The multiplicity cover that search._multicover replaced (per-constraint
# position lists, need tuples read through itemgetter), kept verbatim as a
# differential oracle for its results and node counts.
def reference_multicover(n_constraints, options, lam, node_budget):
    """Exact cover with multiplicity: every constraint hit exactly lam times.
    ``options[pos]`` lists the constraints option ``pos`` covers.  Returns
    (chosen positions or None, nodes, budget_hit).

    Branches on the least-index unsatisfied constraint; consecutive picks for
    the same constraint are forced into increasing position, so each
    lam-subset is tried once.  An option already chosen is never offered
    again: it covers an earlier constraint, now saturated, or sits before the
    least position allowed.  Complete and deterministic.  Depth-first with an
    explicit stack, one frame per chosen option."""
    need = [lam] * n_constraints
    per_constraint: list[list[int]] = [[] for _ in range(n_constraints)]
    for pos, cols in enumerate(options):
        for c in cols:
            per_constraint[c].append(pos)
    # per option: the need of each of its constraints, as a tuple (itemgetter
    # returns a bare value for one index, so a single index is repeated)
    needs_of = [
        itemgetter(*cols, *cols) if len(cols) == 1 else itemgetter(*cols) for cols in options
    ]
    stack = []  # per level: (constraint, its candidates, next index, pick)
    nodes = 0
    active = min_pos = 0
    while True:
        nodes += 1
        if nodes > node_budget:
            return None, nodes, True
        while active < n_constraints and need[active] == 0:
            active += 1
            min_pos = 0
        if active == n_constraints:
            return [frame[3] for frame in stack], nodes, False
        candidates = per_constraint[active]
        i = bisect_left(candidates, min_pos)
        while True:
            for pos in islice(candidates, i, None):
                i += 1
                if 0 not in needs_of[pos](need):
                    break
            else:
                # exhausted: undo the option that led here, try the next one
                if not stack:
                    return None, nodes, False
                active, candidates, i, pos = stack.pop()
                for c in options[pos]:
                    need[c] += 1
                continue
            break
        for c in options[pos]:
            need[c] -= 1
        stack.append((active, candidates, i, pos))
        min_pos = pos + 1 if need[active] else 0


# The Fraction-product form of the two KLP thresholds that klp.klp_budget
# replaced by integer floor division, kept as the oracle for its ceilings.
def reference_klp_thresholds(budget, constant, c_prime) -> tuple[int, int]:
    """(n_threshold, relaxed_threshold) of a klp_budget dict at the universal
    constants C and c': ceil(C*c3^2*dimL^6*log^6) and ceil(c'*c3^3*dimL^7),
    as exact Fraction products rounded up."""
    c3, dim_l = budget["c3_from_c4"], budget["dim_l_bound"]
    return (
        ceil(Fraction(constant) * c3**2 * dim_l**6 * budget["log_term"]**6),
        ceil(Fraction(c_prime) * c3**3 * dim_l**7),
    )


# The bound chain as klp computed it before its powers of p were shared
# through memos: every integer recomputed per report.  The oracle for the
# values and key order of klp_budget and feasibility_report.
def _reference_budget_fields(space, t, k, constant, c_prime) -> dict:
    if constant.numerator <= 0 or c_prime.numerator <= 0:
        raise ValueError("the universal constants must be positive")
    if not 1 <= t <= k:
        raise ValueError("need 1 <= t <= k")
    if t + k > space.n:
        raise ValueError("needs t + k <= rank")
    n, p = space.n, space.p

    system = build_decoding_system(p, t, k)
    m, gamma_l1 = system.m, system.gamma_l1
    c4 = max(m, gamma_l1)
    count_a = polar_count(space, t)
    count_x = polar_count(space, k)

    p_2nt, p_kt, p_det = p ** (2 * n * t), p ** (k * t), p ** (k * (t + 1) ** 2)
    c1_witness = m * count_a
    c1_coarse = 10 * p_2nt * p_det
    c4_coarse = 4 * p_kt * p_det
    c3 = 2 * 1 * c4 * count_a
    c3_coarse = 80 * p_2nt * p_kt * p_det
    a_coarse = 10 * p_2nt
    x_lower = p ** (2 * n * k - (3 * k * k + 1) // 2)

    dim_l = count_a
    c3_dim_l = c3 * dim_l
    log_term = ceil_log2(2 * c3_dim_l)
    shared = (c3_dim_l * dim_l * dim_l) ** 2
    n_threshold = -((-constant.numerator * shared * log_term**6) // constant.denominator)
    relaxed = -((-c_prime.numerator * shared * c3_dim_l) // c_prime.denominator)

    return {
        "family": space.family,
        "n": n,
        "q": space.q,
        "p": p,
        "t": t,
        "k": k,
        "m": m,
        "gamma_l1": gamma_l1,
        "c1_upper_witness": c1_witness,
        "c1_coarse_bound": c1_coarse,
        "c2": 1,
        "c3_from_c4": c3,
        "c3_coarse_bound": c3_coarse,
        "c4_exact": c4,
        "c4_coarse_bound": c4_coarse,
        "count_tspaces": count_a,
        "count_tspaces_coarse_bound": a_coarse,
        "dim_l_bound": dim_l,
        "count_kspaces": count_x,
        "count_kspaces_lower_bound": x_lower,
        "log_term": log_term,
        "n_threshold": n_threshold,
        "relaxed_threshold": relaxed,
        "theorem_cap_p_21nt": p ** (21 * n * t),
        "inequalities": {
            "c1_witness<=10p^(2nt+k(t+1)^2)": c1_witness <= c1_coarse,
            "c4<=4p^(kt+k(t+1)^2)": c4 <= c4_coarse,
            "2c2c4A<=80p^(2nt+kt+k(t+1)^2)": c3 <= c3_coarse,
            "A<=10p^(2nt)": count_a <= a_coarse,
            "X>=p^(2nk-ceil(3k^2/2))": count_x >= x_lower,
            "c1_witness<=|detD||A|": c1_witness <= m * count_a,
        },
    }


def reference_feasibility_report(space, t, k, constant=1, c_prime=1) -> tuple[dict, dict]:
    """(report, budget): what ``feasibility_report`` and ``klp_budget``
    return at these parameters, each integer computed afresh."""
    constant, c_prime = _exact(constant), _exact(c_prime)
    budget = _reference_budget_fields(space, t, k, constant, c_prime)
    c1w = budget["c1_upper_witness"]
    j = -(-budget["n_threshold"] // c1w)
    n_blocks = j * c1w
    lam = j * budget["m"] * gaussian_binomial(k, t, space.p)
    report = {
        **budget,
        "constant_C": decimal_string(constant),
        "constant_c_prime": decimal_string(c_prime),
        "k_exceeds_21t_over_2": 2 * k > 21 * t,
        "smallest_feasible_multiple": n_blocks,
        "n_fits_within_x": n_blocks <= budget["count_kspaces"] - budget["n_threshold"],
        "n_within_theorem_cap": n_blocks <= budget["theorem_cap_p_21nt"],
        "lambda_at_n": decimal_string(lam),
        "lambda_is_integer": True,
        "assumptions": {
            "symmetry_c2": "isometry group transitivity (classical), not computed",
            "c1": "upper witness m*|A|, not the minimal divisibility constant",
        },
    }
    return report, budget


def _det_exact(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free Gaussian (Bareiss) determinant over the integers."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i]:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


def reference_tsubspace_bytes(field: FieldTable, outers: list[bytes], d: int, t: int):
    """``geometry._tsubspace_bytes`` as it was before it gave per-rep
    columns, the reference for them.

    For each outer subspace, given by its canonical bytes, in order: the
    canonical bytes of every t-subspace, one per RREF rep of ``_rep_codes``,
    in that order.  The product of an RREF rep and an RREF basis is already
    canonical, and row i of the product is the combination of the basis rows
    by row i of the rep, so one kernel call gives every row of every product
    over the whole batch.  Strided copies then interleave a rep's row strings
    into one string of its products with every outer, outer by outer, and
    each outer's product is one slice of it.  The outers must all have one
    dimension k; ValueError otherwise."""
    sizes = {len(data) for data in outers}
    if len(sizes) > 1:
        raise ValueError(f"outer subspaces of different sizes {sorted(sizes)}")
    size = sizes.pop() if sizes else 0
    if size % d:
        raise ValueError(f"{size} codes do not form a matrix with {d} columns")
    k = size // d
    reps = _rep_codes(t, k, field.order)
    needed = sorted({code for rep in reps for code in rep})
    combos = kernels.products(b"".join(outers), len(outers), k, d, needed, field)
    combo = dict(zip(needed, combos))
    tsize = t * d
    strings = []  # per rep, its product with every outer, outer by outer
    for rep in reps:
        string = bytearray(len(outers) * tsize)
        for i, code in enumerate(rep):
            row = combo[code]
            for c in range(d):
                string[i * d + c :: tsize] = row[c::d]
        strings.append(bytes(string))
    return ([s[i * tsize : (i + 1) * tsize] for s in strings] for i in range(len(outers)))


def reference_tspace_positions(
    space: PolarSpace, t: int, outers, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[list[bytes], list[list[int | None]]]:
    """``geometry.tspace_positions`` as it was before it matched per-rep
    columns, the reference for them.

    The incidence of isotropic t-spaces with ``outers``, the canonical
    bytes of subspaces of the ambient space, all of one dimension: level t
    as canonical bytes in lexicographic order, and for each outer subspace
    the positions in that list of its t-subspaces (None for one outside the
    level).  Level t is read before ``outers`` is iterated; ValueError when
    the outers differ in size or do not form matrices with d columns."""
    if not 0 <= t <= space.n:
        raise ValueError(f"t must lie in 0..{space.n}")
    level = _final_level(space, t, budget)
    position = {data: i for i, data in enumerate(level)}.get
    subs = reference_tsubspace_bytes(space.field, list(outers), space.d, t)
    return level, [[position(data) for data in within] for within in subs]


def reference_design_payload(instance) -> dict:
    """The certificate of a ``DesignInstance`` as one JSON-ready dict, every
    block as its row lists."""
    return {
        "family": instance.family,
        "q": instance.q,
        "n": instance.n,
        "t": instance.t,
        "k": instance.k,
        "lambda": instance.lam,
        "blocks": [b.to_lists() for b in instance.blocks],
        "provenance": dict(instance.provenance),
    }


def reference_canonical_json(payload) -> str:
    """The whole payload through ``json.dumps`` at once: the reference for
    the certificate and ``enumerate`` text, which write their subspace
    lists directly in this layout."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
