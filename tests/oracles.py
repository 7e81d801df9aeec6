"""Brute-force oracles, deliberately independent of the library's
enumeration path: subspaces come from direct RREF-pattern generation, and
isotropy is checked on every vector pair of the full span."""

from __future__ import annotations

from itertools import combinations, product

from polardesign.geometry import Subspace


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


def naive_is_totally_isotropic(space, subspace: Subspace) -> bool:
    """Isotropy verified on the full span, not just a basis."""
    form, field = space.form, space.field
    span = span_vectors(field, subspace)
    for u in span:
        if form.kind == "quadratic" and form.quadratic(u) != 0:
            return False
        if form.kind == "hermitian" and form.bilinear(u, u) != 0:
            return False
        for w in span:
            if form.bilinear(u, w) != 0:
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
    assert field.order**dim == common
    return dim
