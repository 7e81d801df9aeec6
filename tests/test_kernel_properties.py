"""Property tests of the F_p kernels at every field order p <= 32 on
matrices with at most 7 columns.  The expected values are built from
``FieldTable.add/mul`` alone, never from the kernels: a full-rank matrix is
drawn as an invertible mix of an RREF matrix, so its RREF is known in
advance.  The t-space incidence built on the products kernel is checked
against its per-outer reference in tests/oracles.py, and the nullspace
kernel against the nullspace that ``reference_kernel_vectors`` enumerates
there."""

from itertools import islice
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    reference_kernel_vectors,
    reference_products,
    reference_tspace_positions,
    reference_tsubspace_bytes,
    span_vectors,
)

from polardesign._pykernels import _records, nullspace, products, rref
from polardesign.counting import gaussian_binomial, polar_count
from polardesign.fields import make_field
from polardesign.geometry import (
    FAMILY_NAMES,
    Subspace,
    isotropic_kspaces,
    standard_polar_space,
    subspaces_within,
    tspace_positions,
)

ALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
# the most t-subspaces per outer, and isotropic subspaces per level up to t,
# that the incidence tests enumerate
INCIDENCE_CAP = 1200
# the most nullspace vectors the nullspace test lists
KERNEL_CAP = 1024


@st.composite
def rref_matrices(draw, p, k, d):
    """A full-rank k x d RREF matrix over F_p, as a list of rows."""
    pivots = sorted(draw(st.sets(st.integers(0, d - 1), min_size=k, max_size=k)))
    rows = []
    for pc in pivots:
        row = [0] * d
        row[pc] = 1
        for c in range(pc + 1, d):
            if c not in pivots:
                row[c] = draw(st.integers(0, p - 1))
        rows.append(row)
    return rows


def matmul(field, a, b):
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            for c, y in enumerate(brow):
                acc[c] = field.add(acc[c], field.mul(x, y))
        out.append(acc)
    return out


@st.composite
def invertible_matrices(draw, field, k):
    """P L D U with P a permutation, L and U unitriangular and D an
    invertible diagonal: every invertible k x k matrix has this form."""
    p = field.order
    entry, unit = st.integers(0, p - 1), st.integers(1, p - 1)
    perm = draw(st.permutations(range(k)))
    lower = [[1 if c == r else draw(entry) if c < r else 0 for c in range(k)] for r in range(k)]
    upper = [[1 if c == r else draw(entry) if c > r else 0 for c in range(k)] for r in range(k)]
    diag = [[draw(unit) if c == r else 0 for c in range(k)] for r in range(k)]
    mix = matmul(field, matmul(field, lower, diag), upper)
    return [mix[perm[r]] for r in range(k)]


def flat(rows):
    return bytes(x for row in rows for x in row)


def codes(p, rows):
    """Each row as the products kernel's code: a base-p numeral, first
    entry most significant."""
    out = []
    for row in rows:
        code = 0
        for x in row:
            code = code * p + x
        out.append(code)
    return out


def kernel_products(field, bases, reps, k, d):
    """Per basis U, per rep T, the t x d product T @ U as bytes, assembled
    from one products call on the whole batch of bases."""
    needed = sorted({c for rep in reps for c in codes(field.order, rep)})
    combos = products(b"".join(map(flat, bases)), len(bases), k, d, needed, field)
    combo = dict(zip(needed, combos))
    return [
        [b"".join(combo[c][i * d : (i + 1) * d] for c in codes(field.order, rep)) for rep in reps]
        for i in range(len(bases))
    ]


def is_full_rank_rref(rows):
    leads = [next((c for c, x in enumerate(row) if x), None) for row in rows]
    if None in leads or leads != sorted(set(leads)):
        return False
    return all(row[c] == int(i == r) for r, row in enumerate(rows) for i, c in enumerate(leads))


@pytest.mark.parametrize("p", ALL_ORDERS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_rref_is_invariant_under_row_mixing(p, data):
    field = make_field(p)
    d = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, d))
    canon = data.draw(rref_matrices(p, k, d))
    basis = matmul(field, data.draw(invertible_matrices(field, k)), canon)
    mixed = matmul(field, data.draw(invertible_matrices(field, k)), basis)
    for rows in (canon, basis, mixed):
        assert rref(flat(rows), k, d, field) == (flat(canon), [row.index(1) for row in canon])


@pytest.mark.parametrize("p", ALL_ORDERS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_products_of_rref_reps_are_canonical_rows_inside_the_basis(p, data):
    field = make_field(p)
    d = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, d))
    t = data.draw(st.integers(1, k))
    basis = data.draw(rref_matrices(p, k, d))
    reps = data.draw(st.lists(rref_matrices(p, t, k), min_size=1, max_size=4))
    raw = b"".join(kernel_products(field, [basis], reps, k, d)[0])
    assert len(raw) == len(reps) * t * d
    pivots = [row.index(1) for row in basis]
    for i in range(len(reps)):
        out = [list(raw[(i * t + r) * d : (i * t + r + 1) * d]) for r in range(t)]
        assert is_full_rank_rref(out)
        # a vector lies in the row space of an RREF basis iff it is the
        # combination of the basis rows given by its pivot coordinates
        for row in out:
            assert matmul(field, [[row[pc] for pc in pivots]], basis) == [row]


@pytest.mark.parametrize("p", ALL_ORDERS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_products_match_the_per_matrix_reference(p, data):
    # the whole-level kernel against the per-matrix products it replaced,
    # on a batch of bases and every t of the bases' dimension
    field = make_field(p)
    d = data.draw(st.integers(1, 7))
    k = data.draw(st.integers(1, d))
    bases = data.draw(st.lists(rref_matrices(p, k, d), min_size=1, max_size=6))
    for t in range(1, k + 1):
        reps = data.draw(st.lists(rref_matrices(p, t, k), min_size=1, max_size=4))
        got = kernel_products(field, bases, reps, k, d)
        for basis, per_basis in zip(bases, got):
            want = reference_products(
                b"".join(map(flat, reps)), len(reps), t, k, flat(basis), d, field
            )
            assert b"".join(per_basis) == want


@pytest.mark.parametrize("p", ALL_ORDERS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_nullspace_is_the_rref_basis_of_the_reference_kernel(p, data):
    # up to 6 rows and columns; a row is random, zero or a combination of
    # the rows above it, so rank-deficient matrices come often
    field = make_field(p)
    d = data.draw(st.integers(1, 6))
    entry = st.integers(0, p - 1)
    mat = []
    for _ in range(data.draw(st.integers(0, 6))):
        kind = data.draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "random":
            mat.append(data.draw(st.lists(entry, min_size=d, max_size=d)))
        elif kind == "combination" and mat:
            mat.append(matmul(field, [[data.draw(entry) for _ in mat]], mat)[0])
        else:
            mat.append([0] * d)
    m, rows = flat(mat), len(mat)
    basis = nullspace(m, rows, d, field)
    assert len(basis) == d - len(rref(m, rows, d, field)[1])
    assert all(type(v) is bytes and len(v) == d for v in basis)
    leads = [next(c for c, x in enumerate(v) if x) for v in basis]
    assert leads == sorted(set(leads)) and all(v[lead] == 1 for v, lead in zip(basis, leads))
    assert all(v[c] == 0 for v, lead in zip(basis, leads) for c in leads if c != lead)
    want = reference_kernel_vectors(m, rows, d, field)
    if p ** len(basis) <= KERNEL_CAP:
        assert span_vectors(field, Subspace(d, b"".join(basis))) == set(want)
    else:  # too many to list: the basis lies in the kernel, and spans a sample of it
        assert all(matmul(field, mat, [[x] for x in v]) == [[0]] * rows for v in basis)
        for v in islice(want, KERNEL_CAP):
            combination = matmul(field, [[v[lead] for lead in leads]], [list(u) for u in basis])
            assert combination == [list(v)]


def spaces_over(p):
    """Every standard polar space over F_p with ambient dimension at most 7."""
    q = isqrt(p)
    spaces = []
    for family in FAMILY_NAMES:
        hermitian = family.startswith("2A")
        if hermitian and q * q != p:
            continue
        for n in range(1, 4):
            space = standard_polar_space(family, n, q if hermitian else p)
            if space.d <= 7:
                spaces.append(space)
    return spaces


def small_levels(space):
    """The j whose levels 0..j of isotropic subspaces fit INCIDENCE_CAP."""
    out = []
    for j in range(space.n + 1):
        if polar_count(space, j) > INCIDENCE_CAP:
            break
        out.append(j)
    return out


@pytest.mark.parametrize("p", ALL_ORDERS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_tspace_positions_match_the_per_outer_reference(p, data):
    # per-rep columns matched and transposed against per-outer lists, list
    # for list, on 0 to 6 outers: any k-spaces of the ambient space, whose
    # t-subspaces may fall outside level t (None), and isotropic ones
    space = data.draw(st.sampled_from(spaces_over(p)))
    levels = small_levels(space)
    t = data.draw(st.sampled_from(levels))
    dims = [k for k in range(t, space.d + 1) if gaussian_binomial(k, t, p) <= INCIDENCE_CAP]
    k = data.draw(st.sampled_from(dims))
    outer = rref_matrices(p, k, space.d).map(flat)
    if k in levels:
        outer |= st.sampled_from([u.data for u in isotropic_kspaces(space, k)])
    outers = data.draw(st.lists(outer, max_size=6))
    level, positions = tspace_positions(space, t, outers)
    assert all(type(found) is list for found in positions)
    assert (level, positions) == reference_tspace_positions(space, t, outers)


@pytest.mark.parametrize("kind", [bytes, bytearray])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 129])
@pytest.mark.parametrize("size", [1, 6, 9])
def test_records_cut_as_slicing_does(kind, count, size):
    # whole 64-record struct items, a remainder, or both
    mats = kind(x * 7 % 251 for x in range(count * size))
    records = _records(mats, size)
    assert records == [bytes(mats[i : i + size]) for i in range(0, len(mats), size)]
    assert all(type(record) is bytes for record in records)


@pytest.mark.parametrize("count", [63, 64, 65, 129])
@pytest.mark.parametrize("t, k", [(1, 2), (2, 3)])
def test_tspace_positions_match_the_reference_across_whole_record_blocks(count, t, k):
    # each rep's column of t-subspaces holds one record per outer, so these
    # batches of one real level cut a column into whole 64-record items, a
    # remainder, or both
    space = standard_polar_space("C", 3, 3)
    outers = [u.data for u in isotropic_kspaces(space, k)[:count]]
    assert len(outers) == count
    assert tspace_positions(space, t, outers) == reference_tspace_positions(space, t, outers)


@pytest.mark.parametrize("p", ALL_ORDERS)
def test_tspace_positions_mark_points_off_the_conic_none(p):
    # the points of F_p^3 against the parabolic conic: p^2 + p + 1 points,
    # of which p + 1 are isotropic and the other p^2 come out None
    space = standard_polar_space("B", 1, p)
    whole = bytes([1, 0, 0, 0, 1, 0, 0, 0, 1])
    level, positions = tspace_positions(space, 1, [whole])
    assert (level, positions) == reference_tspace_positions(space, 1, [whole])
    assert len(level) == p + 1 and positions[0].count(None) == p * p


@pytest.mark.parametrize("p", ALL_ORDERS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_subspaces_within_matches_the_per_outer_reference(p, data):
    field = make_field(p)
    d = data.draw(st.integers(1, 7))
    pairs = [
        (k, t)
        for k in range(d + 1)
        for t in range(k + 1)
        if gaussian_binomial(k, t, p) <= INCIDENCE_CAP
    ]
    k, t = data.draw(st.sampled_from(pairs))
    basis = Subspace.from_rows(d, data.draw(rref_matrices(p, k, d)))
    (want,) = reference_tsubspace_bytes(field, [basis.data], d, t)
    assert subspaces_within(field, basis, t) == [Subspace.from_bytes(b, t, d) for b in want]
