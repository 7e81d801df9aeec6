import hashlib
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    naive_all_subspaces,
    naive_contains,
    naive_intersection_dimension,
    naive_is_totally_isotropic,
    naive_isotropic_kspaces,
    reference_anisotropic_coeff,
    reference_bilinear,
    reference_extend_level,
    reference_join_level,
    reference_quadratic,
    reference_quadric_is_nondegenerate,
    span_vectors,
)
from polardesign import _pykernels
from polardesign.counting import (
    gaussian_binomial,
    polar_count,
    polar_count_through,
    power_half,
)
from polardesign.fields import make_field
from polardesign.geometry import (
    FAMILY_NAMES,
    BudgetExceededError,
    FormEvaluator,
    _LEVEL_CACHE,
    Subspace,
    _extend_level,
    _extend_once,
    _least_anisotropic_coeff,
    _rep_codes,
    _with_start,
    clear_enumeration_cache,
    enumerate_extensions,
    intersection_dimension,
    is_totally_isotropic,
    isotropic_kspaces,
    rref_canonicalize,
    standard_polar_space,
    subspace_contains,
    subspaces_within,
    tspace_positions,
)

ALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]

# every family at its smallest interesting sizes; kept small enough for the
# span-checking brute-force oracle
ORACLE_INSTANCES = [
    ("C", 1, 2),
    ("C", 2, 2),
    ("C", 2, 3),
    ("D", 2, 2),
    ("D", 2, 3),
    ("B", 1, 2),
    ("B", 2, 2),
    ("B", 1, 3),
    ("2D", 1, 2),
    ("2D", 1, 3),
    ("2A-odd", 1, 2),
    ("2A-odd", 2, 2),
    ("2A-even", 1, 2),
    # d = 6: three rank-3 levels (one 2-dim anisotropic tail) at q = 2
    ("C", 3, 2),
    ("D", 3, 2),
    ("2D", 2, 2),
]


def test_descriptor_table():
    sp = standard_polar_space("C", 2, 2)
    assert (sp.d, sp.p, sp.twice_e) == (4, 2, 0)
    sp = standard_polar_space("2A-odd", 2, 2)
    assert (sp.d, sp.p, sp.twice_e) == (4, 4, -1)
    sp = standard_polar_space("2A-even", 2, 3)
    assert (sp.d, sp.p, sp.twice_e) == (5, 9, 1)
    sp = standard_polar_space("2D", 1, 2)
    assert (sp.d, sp.p, sp.twice_e) == (4, 2, 2)
    sp = standard_polar_space("D", 3, 2)
    assert (sp.d, sp.p, sp.twice_e) == (6, 2, -2)
    sp = standard_polar_space("B", 2, 3)
    assert (sp.d, sp.p, sp.twice_e) == (5, 3, 0)


def test_descriptor_errors():
    with pytest.raises(ValueError):
        standard_polar_space("E", 2, 2)
    with pytest.raises(ValueError):
        standard_polar_space("C", 0, 2)
    with pytest.raises(ValueError):
        standard_polar_space("C", 2, 6)
    with pytest.raises(ValueError):
        standard_polar_space("2A-odd", 2, 7)  # p = 49 over the cap
    for family in ("C", "2A-odd", "2A-even"):
        for q in (-2, 0, 1):  # q = -2 squares to the valid Hermitian order 4
            with pytest.raises(ValueError, match="at least 2"):
                standard_polar_space(family, 2, q)


def test_alternating_form_vanishes_on_diagonal():
    sp = standard_polar_space("C", 2, 2)
    for u in naive_all_subspaces(sp.field, 4, 1):
        vec = u.rows[0]
        assert sp.form.bilinear(vec, vec) == 0


def test_hyperbolic_quadratic_values():
    sp = standard_polar_space("D", 2, 2)
    e1 = (1, 0, 0, 0)
    e12 = (1, 1, 0, 0)
    assert sp.form.quadratic(e1) == 0
    assert sp.form.quadratic(e12) == 1  # Q = x1 x2 + x3 x4
    assert sp.form.quadratic((0, 0, 1, 1)) == 1


def test_hermitian_symmetry():
    sp = standard_polar_space("2A-odd", 2, 2)
    rng = random.Random(7)
    for _ in range(50):
        u = tuple(rng.randrange(4) for _ in range(4))
        w = tuple(rng.randrange(4) for _ in range(4))
        assert sp.form.bilinear(u, w) == sp.field.conjugate(sp.form.bilinear(w, u))


def test_quadratic_polar_identity():
    for fam, n, q in [("D", 2, 3), ("B", 2, 2), ("2D", 1, 3)]:
        sp = standard_polar_space(fam, n, q)
        rng = random.Random(11)
        for _ in range(40):
            u = tuple(rng.randrange(sp.p) for _ in range(sp.d))
            w = tuple(rng.randrange(sp.p) for _ in range(sp.d))
            upw = tuple(sp.field.add(a, b) for a, b in zip(u, w))
            lhs = sp.form.bilinear(u, w)
            rhs = sp.field.add(
                sp.field.add(sp.form.quadratic(upw), sp.field.neg(sp.form.quadratic(u))),
                sp.field.neg(sp.form.quadratic(w)),
            )
            assert lhs == rhs


def test_bilinear_forms_additive_in_each_slot():
    for fam, n, q in [("C", 2, 3), ("2A-odd", 2, 2), ("D", 2, 2)]:
        sp = standard_polar_space(fam, n, q)
        rng = random.Random(23)
        for _ in range(30):
            u, v, w = (
                tuple(rng.randrange(sp.p) for _ in range(sp.d)) for _ in range(3)
            )
            uv = tuple(sp.field.add(a, b) for a, b in zip(u, v))
            assert sp.form.bilinear(uv, w) == sp.field.add(
                sp.form.bilinear(u, w), sp.form.bilinear(v, w)
            )
            assert sp.form.bilinear(w, uv) == sp.field.add(
                sp.form.bilinear(w, u), sp.form.bilinear(w, v)
            )


def test_form_dimension_mismatch():
    sp = standard_polar_space("C", 2, 2)
    with pytest.raises(ValueError):
        sp.form.bilinear((1, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValueError):
        sp.form.bilinear((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
    with pytest.raises(ValueError, match="vector dimension mismatch"):
        sp.form.is_isotropic_vector((1, 0, 0))


def test_quadratic_value_refused_on_bilinear_kinds():
    sp = standard_polar_space("C", 2, 2)
    with pytest.raises(ValueError):
        sp.form.quadratic((1, 0, 0, 0))


def test_form_evaluator_rejections():
    f2 = make_field(2)
    hyperbolic = bytes((0, 1, 1, 0))
    with pytest.raises(ValueError, match="unknown form kind"):
        FormEvaluator("symmetric", f2, 2, hyperbolic)
    with pytest.raises(ValueError, match="2x2 matrices"):
        FormEvaluator("alternating", f2, 2, hyperbolic[:3])
    with pytest.raises(ValueError, match="2x2 matrices"):
        FormEvaluator("quadratic", f2, 2, hyperbolic)  # no coefficient matrix
    with pytest.raises(ValueError, match="square-order"):
        FormEvaluator("hermitian", make_field(3), 2, bytes((1, 0, 0, 1)))
    with pytest.raises(ValueError, match="degenerate bilinear form"):
        FormEvaluator("alternating", f2, 2, bytes(4))
    # codes at or past the field order, in the Gram or the coefficient matrix
    with pytest.raises(ValueError, match="entry outside field code range"):
        FormEvaluator("alternating", make_field(3), 2, bytes((0, 5, 1, 0)))
    with pytest.raises(ValueError, match="entry outside field code range"):
        FormEvaluator("hermitian", make_field(4), 1, bytes((7,)))
    with pytest.raises(ValueError, match="entry outside field code range"):
        FormEvaluator("quadratic", f2, 2, hyperbolic, bytes((0, 2, 0, 0)))
    # matrices of another kind: x1y1 + x2y2 over F_3 is symmetric, not
    # alternating; over F_4, B(e1, e2) = 2 but B(e2, e1) = 0; and a Gram
    # matrix that is not quad + quad^T, or a quad below its diagonal
    with pytest.raises(ValueError, match="alternating form"):
        FormEvaluator("alternating", make_field(3), 2, bytes((1, 0, 0, 1)))
    with pytest.raises(ValueError, match="hermitian form"):
        FormEvaluator("hermitian", make_field(4), 2, bytes((1, 2, 0, 1)))
    with pytest.raises(ValueError, match="quadratic form"):
        FormEvaluator("quadratic", make_field(3), 2, hyperbolic, bytes((1, 1, 0, 0)))
    with pytest.raises(ValueError, match="quadratic form"):
        FormEvaluator("quadratic", f2, 2, hyperbolic, bytes((0, 0, 1, 0)))
    # Q = x1^2 on F_2^2: its polar form is zero and Q(e2) = 0
    with pytest.raises(ValueError, match="degenerate quadratic form"):
        FormEvaluator("quadratic", f2, 2, bytes(4), bytes((1, 0, 0, 0)))
    form = FormEvaluator("quadratic", f2, 2, bytearray(hyperbolic), bytes((0, 1, 0, 0)))
    assert (form.gram, form.quad) == (hyperbolic, bytes((0, 1, 0, 0)))
    assert type(form.gram) is bytes


@st.composite
def consistent_quadrics(draw):
    """A quadratic form on F_p^d (p in {2, 3, 4, 5, 8, 9}, d <= 6) as its
    polar Gram matrix and its upper-triangular coefficient matrix.  About
    half the coefficients are zero, so degenerate forms come up often."""
    p = draw(st.sampled_from((2, 3, 4, 5, 8, 9)))
    d = draw(st.integers(1, 6))
    field = make_field(p)
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    quad = bytes(draw(entry) if c >= i else 0 for i in range(d) for c in range(d))
    gram = bytes(field.add(quad[i * d + c], quad[c * d + i]) for i in range(d) for c in range(d))
    return field, d, gram, quad


@settings(max_examples=400, deadline=None)
@given(consistent_quadrics())
def test_quadric_radical_rule_matches_enumeration(form):
    field, d, gram, quad = form
    try:
        FormEvaluator("quadratic", field, d, gram, quad)
        accepted = True
    except ValueError as exc:
        assert str(exc) == "degenerate quadratic form"
        accepted = False
    assert accepted == reference_quadric_is_nondegenerate(field, d, gram, quad)


@pytest.mark.parametrize("p", ALL_ORDERS)
def test_anisotropic_coeff_root_test_matches_bruteforce(p):
    field = make_field(p)
    assert _least_anisotropic_coeff(field) == reference_anisotropic_coeff(field)


def test_is_totally_isotropic_examples():
    sp = standard_polar_space("D", 2, 2)
    assert is_totally_isotropic(sp.form, Subspace.from_rows(4, ()))
    good = Subspace.from_rows(4, ((1, 0, 0, 0), (0, 0, 1, 0)))
    bad = Subspace.from_rows(4, ((1, 0, 0, 0), (0, 1, 0, 0)))
    assert is_totally_isotropic(sp.form, good)
    assert not is_totally_isotropic(sp.form, bad)


@pytest.mark.parametrize("family,n,q", ORACLE_INSTANCES)
def test_enumeration_matches_bruteforce_sets(family, n, q):
    sp = standard_polar_space(family, n, q)
    for k in range(sp.n + 1):
        ours = isotropic_kspaces(sp, k)
        naive = naive_isotropic_kspaces(sp, k)
        assert ours == naive  # same subspaces, same lexicographic order
        assert len(ours) == polar_count(sp, k)


@pytest.mark.parametrize("family,n,q", ORACLE_INSTANCES)
def test_enumeration_stream_properties(family, n, q):
    sp = standard_polar_space(family, n, q)
    for k in range(sp.n + 1):
        seen = set()
        previous = None
        for s in isotropic_kspaces(sp, k):
            assert is_totally_isotropic(sp.form, s)
            assert naive_is_totally_isotropic(sp, s)
            assert s not in seen
            seen.add(s)
            if previous is not None:
                assert previous < s
            previous = s


@pytest.mark.parametrize(
    "family,n,q",
    [("C", 3, 2), ("D", 3, 2), ("B", 3, 2), ("2D", 2, 2), ("2A-odd", 2, 2), ("C", 2, 3)],
)
def test_extension_counts_and_sets(family, n, q):
    sp = standard_polar_space(family, n, q)
    rng = random.Random(f"{family} {n} {q}")
    levels = {k: isotropic_kspaces(sp, k) for k in range(sp.n + 1)}
    for _ in range(8):
        t = rng.randint(0, sp.n)
        k = rng.randint(t, sp.n)
        base = rng.choice(levels[t])
        exts = list(enumerate_extensions(sp, base, k))
        assert len(exts) == polar_count_through(sp, t, k)
        expected = [u for u in levels[k] if subspace_contains(sp.field, u, base)]
        assert exts == expected


@pytest.mark.parametrize("family,n,q", ORACLE_INSTANCES)
def test_extension_walks_match_bruteforce(family, n, q):
    # walks from every isotropic t-space, against the brute-force level
    # filtered by span containment (naive_contains, with each span computed
    # once): the start-pivot path of the kernel is checked here by nothing
    # the library computes itself
    sp = standard_polar_space(family, n, q)
    naive = {k: naive_isotropic_kspaces(sp, k) for k in range(sp.n + 1)}
    span = {u: span_vectors(sp.field, u) for level in naive.values() for u in level}
    for t in range(sp.n + 1):
        for base in naive[t]:
            for k in range(t, sp.n + 1):
                expected = [u for u in naive[k] if span[base] <= span[u]]
                assert list(enumerate_extensions(sp, base, k)) == expected


@pytest.mark.parametrize(
    "family,n,q",
    [("C", 3, 2), ("D", 3, 2), ("B", 3, 2), ("2D", 2, 2), ("2A-odd", 2, 2), ("2A-even", 2, 2)],
)
def test_kernel_produces_each_subspace_once(monkeypatch, family, n, q):
    # rows straight out of the kernel, before any sorting: a duplicate or a
    # missing child shows up as a count off the formula
    sp = standard_polar_space(family, n, q)
    produced = []
    extend_level = _pykernels.extend_level

    def counted(*args):
        raw = extend_level(*args)
        j, d = args[2], args[3]
        produced.append(len(raw) // ((j + 1) * d))
        return raw

    monkeypatch.setattr(_pykernels, "extend_level", counted)
    clear_enumeration_cache()
    isotropic_kspaces(sp, sp.n)  # one walk from the zero space
    assert produced == [polar_count(sp, k) for k in range(1, sp.n + 1)]
    levels = {k: isotropic_kspaces(sp, k) for k in range(sp.n + 1)}  # cached by the walk
    for t in range(sp.n + 1):
        for base in (levels[t][0], levels[t][-1]):
            produced.clear()
            list(enumerate_extensions(sp, base, sp.n))
            assert produced == [polar_count_through(sp, t, k) for k in range(t + 1, sp.n + 1)]


def dense_form(sp, rng):
    """The standard form of ``sp`` in a random basis A (rows A_i):
    G'[i][c] = B(A_i, A_c), and for a quadratic form Q'(x) = Q(xA) with
    coefficients Q(A_i) on the diagonal and B(A_i, A_c) above it."""
    d, field, form = sp.d, sp.field, sp.form
    while True:
        rows = [[rng.randrange(sp.p) for _ in range(d)] for _ in range(d)]
        if len(_pykernels.rref(bytes(x for row in rows for x in row), d, d, field)[1]) == d:
            break
    gram = bytes(reference_bilinear(form, u, w) for u in rows for w in rows)
    if form.kind != "quadratic":
        return FormEvaluator(form.kind, field, d, gram)
    quad = bytes(
        (reference_quadratic(form, u) if i == c else reference_bilinear(form, u, rows[c]))
        if i <= c
        else 0
        for i, u in enumerate(rows)
        for c in range(d)
    )
    return FormEvaluator("quadratic", field, d, gram, quad)


@pytest.mark.parametrize(
    "family,n,q",
    [
        ("C", 2, 2),
        ("C", 2, 3),
        ("D", 3, 2),
        ("B", 2, 3),
        ("2D", 2, 2),
        ("2A-odd", 2, 2),
        ("2A-even", 2, 2),
    ],
)
def test_kernel_under_dense_forms(family, n, q):
    # the standard Gram matrices are antisymmetric, symmetric or the
    # identity, so a kernel that read G transposed would pass on them; in a
    # random basis every form is dense and a Hermitian G is not symmetric
    sp = standard_polar_space(family, n, q)
    form = dense_form(sp, random.Random(f"dense {family} {n} {q}"))
    level = [b""]
    for j in range(sp.n):
        raw = _pykernels.extend_level(b"".join(level), len(level), j, sp.d, form, b"")
        sz = (j + 1) * sp.d
        level = [raw[i : i + sz] for i in range(0, len(raw), sz)]
        assert len(level) == polar_count(sp, j + 1)
        for data in level:
            child = Subspace.from_bytes(data, j + 1, sp.d)
            assert rref_canonicalize(sp.field, child.rows, sp.d) == child
            assert is_totally_isotropic(form, child)


# every family over every field order it exists at: a Hermitian field has
# square order p = q^2
FAMILY_ORDERS = [
    (family, p)
    for family in FAMILY_NAMES
    for p in ALL_ORDERS
    if not family.startswith("2A") or math.isqrt(p) ** 2 == p
]


@pytest.mark.parametrize("family,p", FAMILY_ORDERS)
@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.data())
def test_form_rule_matches_the_reference_evaluation(family, p, data):
    # the standard form, or the same form in a random basis, where it is
    # dense and a Hermitian Gram matrix is not symmetric
    q = math.isqrt(p) if family.startswith("2A") else p
    sp = standard_polar_space(family, data.draw(st.integers(1, 3)), q)
    form = sp.form
    if data.draw(st.booleans()):
        form = dense_form(sp, random.Random(data.draw(st.integers(0, 2**32))))
    vector = st.tuples(*[st.integers(0, p - 1)] * sp.d)
    u, w = data.draw(vector), data.draw(vector)
    field = sp.field
    want = reference_bilinear(form, u, w)
    assert form.bilinear(u, w) == want
    paired = 0
    for ug, wg in zip(u, form.pairing_row(w)):
        paired = field.add(paired, field.mul(ug, wg))
    assert paired == want
    if form.kind == "quadratic":
        assert form.quadratic(u) == reference_quadratic(form, u)
        isotropic = reference_quadratic(form, u) == 0
    else:
        with pytest.raises(ValueError, match="no quadratic value"):
            form.quadratic(u)
        isotropic = form.kind == "alternating" or reference_bilinear(form, u, u) == 0
    assert form.is_isotropic_vector(u) is isotropic


# all six families; q = 3 and the 2A fields of order 4 and 9 for odd and
# non-prime orders, and rank 3 for levels whose tails hold two rows
JOIN_INSTANCES = [
    ("C", 2, 2),
    ("C", 2, 3),
    ("C", 3, 2),
    ("D", 2, 3),
    ("D", 3, 2),
    ("B", 2, 3),
    ("B", 3, 2),
    ("2D", 1, 3),
    ("2D", 2, 2),
    ("2A-odd", 2, 2),
    ("2A-odd", 3, 2),
    ("2A-even", 1, 3),
    ("2A-even", 2, 2),
]


def _kernel_levels(kernel, form, level, j, start):
    """Every level of a walk from ``level`` (level j) up to the form's
    totally isotropic ones of top rank, each as a sorted list of bytes."""
    d, levels = form.dimension, []
    while level:
        raw = kernel(b"".join(level), len(level), j, d, form, start)
        j += 1
        level = sorted(raw[i : i + j * d] for i in range(0, len(raw), j * d))
        levels.append(level)
    return levels


@pytest.mark.parametrize("family,n,q", JOIN_INSTANCES)
@settings(derandomize=True, deadline=None, max_examples=8)
@given(st.data())
def test_kernel_matches_the_per_parent_reference(family, n, q, data):
    # the join of each complete level against the per-parent kernel it
    # replaced, on every level of a walk from the zero space and of walks
    # from random canonical starts, under the standard form or a dense one;
    # a walk from a start yields words, which hold the reference's levels
    # once the start's rows go in
    sp = standard_polar_space(family, n, q)
    dense = data.draw(st.booleans())
    form = dense_form(sp, random.Random(data.draw(st.integers(0, 99)))) if dense else sp.form
    levels = _kernel_levels(reference_extend_level, form, [b""], 0, b"")
    assert _kernel_levels(_pykernels.extend_level, form, [b""], 0, b"") == levels
    counts = [polar_count(sp, k) for k in range(1, sp.n + 1)]
    assert [len(level) for level in levels] == counts + [0]  # and nothing past rank n
    for _ in range(2):
        t = data.draw(st.integers(1, sp.n))
        start = data.draw(st.sampled_from(levels[t - 1]))
        pivots = bytes(start.index(1, i * sp.d) - i * sp.d for i in range(t))
        want = _kernel_levels(reference_extend_level, form, [start], t, pivots)
        words = _kernel_levels(_pykernels.extend_level, form, [b""], 0, start)
        assert [_with_start(sp.field, start, level, sp.d) for level in words] == want


@pytest.mark.parametrize("family,n,q", JOIN_INSTANCES)
@settings(derandomize=True, deadline=None, max_examples=8)
@given(st.data())
def test_join_returns_the_bytes_of_the_reference_join(family, n, q, data):
    # the same bytes in the same order, not only the same level, on every
    # level of a walk from the zero space or from a random canonical start,
    # under the standard form or a dense one, each level fed in as the
    # kernel wrote it or sorted
    sp = standard_polar_space(family, n, q)
    dense = data.draw(st.booleans())
    form = dense_form(sp, random.Random(data.draw(st.integers(0, 99)))) if dense else sp.form
    t = data.draw(st.integers(0, sp.n))
    start = data.draw(st.sampled_from(isotropic_kspaces(sp, t))).data if t else b""
    ordered = data.draw(st.booleans())
    mats, count, j = b"", 1, 0
    while count:
        raw = _pykernels.extend_level(mats, count, j, sp.d, form, start)
        assert raw == reference_join_level(mats, count, j, sp.d, form, start)
        j += 1
        count = len(raw) // (j * sp.d)
        mats = b"".join(sorted(_pykernels._records(raw, j * sp.d))) if ordered and count else raw


@pytest.mark.parametrize("family,n", [("C", 4), ("D", 5)])
def test_join_peak_memory_follows_its_input_and_output(family, n):
    # level 3 -> 4 over F_2: 11,475 words of C_4 into 2,295, and 118,575 of
    # D_5 into 71,145; the join keeps one int per word beside its heads and
    # its output, so its allocations stay within 3 x the bytes in and out
    sp = standard_polar_space(family, n, 2)
    clear_enumeration_cache()
    try:
        mats = b"".join(s.data for s in isotropic_kspaces(sp, 3))
    finally:
        clear_enumeration_cache()
    tracemalloc.start()
    try:
        raw = _pykernels.extend_level(mats, polar_count(sp, 3), 3, sp.d, sp.form, b"")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(raw) == polar_count(sp, 4) * 4 * sp.d
    assert peak <= 3 * (len(mats) + len(raw))


# all six families at q = 2 and n <= 3 but H(6, 4), 2A-even at n = 3, whose
# walks from every start hold 2.3 million words; and at q = 3 and n <= 2,
# for odd characteristic and, on the Hermitian families, F_9
INSERTION_INSTANCES = [
    (family, n, 2) for family in FAMILY_NAMES for n in (1, 2, 3) if (family, n) != ("2A-even", 3)
] + [(family, n, 3) for family in FAMILY_NAMES for n in (1, 2)]


@pytest.mark.parametrize(
    "family,n,q",
    INSERTION_INSTANCES,
    ids=[f"{family}-{n}" + ("-q3" if q == 3 else "") for family, n, q in INSERTION_INSTANCES],
)
def test_start_insertion_matches_the_rref_of_the_stacked_rows(family, n, q):
    # every isotropic start and every word level of its walk: the start's
    # rows put into a word are the RREF of the start's rows on the word's
    sp = standard_polar_space(family, n, q)
    for t in range(sp.n + 1):
        for start in isotropic_kspaces(sp, t):
            level, j = [b""], 0
            while level:
                full = _with_start(sp.field, start.data, level, sp.d)
                assert full == sorted(
                    rref_canonicalize(sp.field, start.rows + Subspace(sp.d, word).rows, sp.d).data
                    for word in level
                )
                level = _extend_level(sp, b"".join(level), j, start.data)
                j += 1


@pytest.mark.parametrize("slice_points", [1, 4])
def test_start_children_do_not_depend_on_the_slice_size(monkeypatch, slice_points):
    # perp(S) / S built one point at a time, or a few points per string,
    # against the default slice, which holds each of these spans whole
    for family, n, q in [("C", 3, 2), ("B", 2, 3), ("2A-odd", 2, 2), ("2D", 2, 3)]:
        sp = standard_polar_space(family, n, q)
        starts = [b""] + [s.data for k in (1, 2) for s in isotropic_kspaces(sp, k)[::7]]
        want = [_pykernels._start_children(s, sp.d, sp.form) for s in starts]
        with monkeypatch.context() as patch:
            patch.setattr(_pykernels, "_SLICE_POINTS", slice_points)
            assert [_pykernels._start_children(s, sp.d, sp.form) for s in starts] == want


def test_extension_of_full_dimension_is_identity():
    sp = standard_polar_space("C", 2, 2)
    lines = isotropic_kspaces(sp, 2)
    for line in lines[:5]:
        assert list(enumerate_extensions(sp, line, 2)) == [line]


def test_extension_rejects_anisotropic_base():
    # at call time, before any iteration
    sp = standard_polar_space("D", 2, 2)
    bad = Subspace.from_rows(4, ((1, 0, 0, 0), (0, 1, 0, 0)))
    with pytest.raises(ValueError, match="not totally isotropic"):
        enumerate_extensions(sp, bad, 2)


def test_extension_rejects_non_canonical_base():
    # an isotropic point, but not by its canonical RREF matrix: the kernel
    # would extend it to rank-deficient "lines"
    sp = standard_polar_space("C", 2, 3)
    scaled = Subspace.from_rows(4, ((0, 2, 0, 0),))
    assert is_totally_isotropic(sp.form, scaled)
    with pytest.raises(ValueError, match="canonical"):
        enumerate_extensions(sp, scaled, 2)


def test_maximals_through_hyperplane_match_parameter_e():
    # every (n-1)-space lies in exactly p^(e+1)+1 generators
    for family, n, q in [
        ("C", 2, 2),
        ("C", 3, 2),
        ("D", 2, 2),
        ("D", 3, 2),
        ("B", 2, 2),
        ("B", 3, 2),
        ("2D", 2, 2),
        ("2A-odd", 2, 2),
        ("2A-even", 2, 2),
        ("C", 2, 3),
        ("D", 2, 3),
        ("B", 2, 3),
    ]:
        sp = standard_polar_space(family, n, q)
        expected = power_half(sp.p, sp.twice_e + 2) + 1
        for sub in isotropic_kspaces(sp, sp.n - 1):
            assert sum(1 for _ in enumerate_extensions(sp, sub, sp.n)) == expected


def test_witt_index_equals_rank():
    for family, n, q in [
        ("C", 3, 2),
        ("D", 3, 2),
        ("B", 3, 2),
        ("2D", 2, 2),
        ("2A-odd", 2, 2),
        ("2A-even", 2, 2),
        ("C", 2, 3),
        ("D", 2, 3),
        ("B", 2, 3),
        ("2D", 1, 3),
    ]:
        sp = standard_polar_space(family, n, q)
        top = b"".join(s.to_bytes() for s in isotropic_kspaces(sp, sp.n))
        assert top
        assert _extend_once(sp, top, sp.n) == []


def test_full_walks_resume_from_the_deepest_cached_level(monkeypatch):
    # levels 0..n asked for in turn cost n kernel calls, one per new level
    calls = []
    extend_level = _pykernels.extend_level

    def counted(*args):
        calls.append(args[2])
        return extend_level(*args)

    monkeypatch.setattr(_pykernels, "extend_level", counted)
    sp = standard_polar_space("C", 3, 2)
    clear_enumeration_cache()
    try:
        for k in range(sp.n + 1):
            assert len(isotropic_kspaces(sp, k)) == polar_count(sp, k)
        assert calls == list(range(sp.n))
        isotropic_kspaces(sp, sp.n)
        assert calls == list(range(sp.n))
    finally:
        clear_enumeration_cache()


@pytest.mark.parametrize("family,n,q", [("C", 3, 2), ("2A-even", 2, 3), ("B", 3, 3)])
def test_the_cache_holds_each_level_as_one_string_of_records(family, n, q):
    # one bytes string per level, polar_count records of k*d codes, and a
    # cached read cuts it into the records the walk produced
    sp = standard_polar_space(family, n, q)
    clear_enumeration_cache()
    try:
        walked = [s.data for s in isotropic_kspaces(sp, sp.n)]
        for k in range(1, sp.n + 1):
            cached = _LEVEL_CACHE[(sp, k)]
            assert type(cached) is bytes
            assert len(cached) == polar_count(sp, k) * k * sp.d
        assert [s.data for s in isotropic_kspaces(sp, sp.n)] == walked
        assert b"".join(walked) == _LEVEL_CACHE[(sp, sp.n)]
    finally:
        clear_enumeration_cache()


def test_point_counts_by_direct_vector_iteration():
    # third path for k = 1: scan the whole ambient space for isotropic
    # vectors and count projective classes
    from itertools import product as iproduct

    for family, n, q in [("B", 3, 2), ("B", 2, 3), ("C", 2, 3), ("2D", 2, 2), ("2A-odd", 2, 2)]:
        sp = standard_polar_space(family, n, q)
        isotropic = 0
        for vec in iproduct(range(sp.p), repeat=sp.d):
            if any(vec) and sp.form.is_isotropic_vector(vec):
                isotropic += 1
        assert isotropic % (sp.p - 1) == 0
        assert isotropic // (sp.p - 1) == polar_count(sp, 1)
        assert isotropic // (sp.p - 1) == len(isotropic_kspaces(sp, 1))


def test_counts_at_larger_field_orders():
    # formula vs enumeration at the top of the field cap
    for family, n, q, k, expected in [
        ("C", 2, 4, 1, 85),  # 5 * 17
        ("B", 2, 5, 1, 156),  # 6 * 26
        ("2A-odd", 1, 3, 1, 4),  # the q+1 isotropic points of a Hermitian line
        ("2A-odd", 1, 4, 1, 5),  # works over F_16
        ("2A-odd", 1, 5, 1, 6),  # works over F_25
        ("2A-even", 2, 3, 1, 2440),  # works over F_9
        ("2D", 1, 4, 1, 17),  # elliptic: p^2 + 1
    ]:
        sp = standard_polar_space(family, n, q)
        got = len(isotropic_kspaces(sp, k))
        assert got == expected == polar_count(sp, k)


def test_budget_exhaustion_raises():
    sp = standard_polar_space("C", 3, 2)
    with pytest.raises(BudgetExceededError):
        isotropic_kspaces(sp, 2, budget=10)


def test_budget_verdict_does_not_depend_on_the_level_cache():
    # C_3 over F_2 has levels of 1, 63, 315 and 135 subspaces: a walk to
    # level 3 passes level 2, over budget 200, whether level 3 is cached or not
    sp = standard_polar_space("C", 3, 2)
    clear_enumeration_cache()
    try:
        with pytest.raises(BudgetExceededError, match="level 2 is predicted to exceed budget 200"):
            isotropic_kspaces(sp, 3, 200)
        assert len(isotropic_kspaces(sp, 3)) == 135
        with pytest.raises(BudgetExceededError, match="level 2 is predicted to exceed budget 200"):
            isotropic_kspaces(sp, 3, 200)
    finally:
        clear_enumeration_cache()


def test_k_range_validated():
    sp = standard_polar_space("C", 2, 2)
    with pytest.raises(ValueError):
        isotropic_kspaces(sp, 3)
    with pytest.raises(ValueError):
        isotropic_kspaces(sp, -1)


def test_rref_canonicalize_basics():
    f2 = make_field(2)
    ident = rref_canonicalize(f2, [(1, 0, 0), (0, 1, 0)])
    assert ident.rows == ((1, 0, 0), (0, 1, 0))
    mixed = rref_canonicalize(f2, [(1, 1, 0), (0, 1, 0)])
    assert mixed.rows == ((1, 0, 0), (0, 1, 0))


def test_rref_canonicalize_rejects_rank_deficient():
    f2 = make_field(2)
    with pytest.raises(ValueError):
        rref_canonicalize(f2, [(1, 1, 0), (1, 1, 0)])
    with pytest.raises(ValueError):
        rref_canonicalize(f2, [(0, 0, 0)])


def test_rref_canonicalize_rejects_bad_codes():
    f2 = make_field(2)
    with pytest.raises(ValueError):
        rref_canonicalize(f2, [(2, 0, 0)])
    with pytest.raises(ValueError):
        rref_canonicalize(f2, [(1, 0), (0, 1, 1)])


def test_random_row_mixes_share_canonical_form():
    rng = random.Random(20240601)
    for p, k, d in [(2, 2, 5), (3, 2, 4), (4, 3, 5), (5, 2, 4)]:
        field = make_field(p)
        base = naive_all_subspaces(field, d, k)
        sample = rng.sample(base, 10)
        for sub in sample:
            for _ in range(5):
                # random invertible mix: repeated row operations
                rows = [list(r) for r in sub.rows]
                for _ in range(8):
                    i, j = rng.randrange(k), rng.randrange(k)
                    c = rng.randrange(1, p)
                    if i == j:
                        rows[i] = [field.mul(c, x) for x in rows[i]]
                    else:
                        rows[i] = [
                            field.add(x, field.mul(c, y))
                            for x, y in zip(rows[i], rows[j])
                        ]
                assert rref_canonicalize(field, rows) == sub


def test_containment_and_intersection_against_bruteforce():
    sp = standard_polar_space("C", 2, 2)
    field = sp.field
    subs2 = naive_all_subspaces(field, 4, 2)
    subs1 = naive_all_subspaces(field, 4, 1)
    rng = random.Random(5)
    for _ in range(60):
        a = rng.choice(subs2)
        b = rng.choice(subs1 + subs2)
        assert subspace_contains(field, a, b) == naive_contains(field, a, b)
        assert intersection_dimension(field, a, b) == naive_intersection_dimension(
            field, a, b
        )


def test_containment_rejects_an_ambient_mismatch():
    field = make_field(2)
    line = Subspace.from_rows(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    for other in (
        Subspace.from_rows(5, [(1, 0, 0, 0, 0)]),
        Subspace.from_rows(5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)]),
    ):
        with pytest.raises(ValueError):
            subspace_contains(field, line, other)
        with pytest.raises(ValueError):
            subspace_contains(field, other, line)
    assert not subspace_contains(field, Subspace.from_rows(4, [(1, 0, 0, 0)]), line)


def _decode_rep(codes, k, p):
    """The t x k matrix whose rows have the given base-p row codes."""
    rows = []
    for code in codes:
        assert 0 <= code < p**k
        rows.append([code // p ** (k - 1 - c) % p for c in range(k)])
    return rows


def _is_full_rank_rref(rows):
    """Each row has a leading 1, the leading columns increase, and every
    other row is 0 in them: a full-rank RREF matrix."""
    pivots = []
    for row in rows:
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None or row[lead] != 1 or (pivots and lead <= pivots[-1]):
            return False
        pivots.append(lead)
    return all(row[pc] == (i == r) for r, row in enumerate(rows) for i, pc in enumerate(pivots))


def test_rep_codes_cardinality():
    for t, k, p in [(1, 3, 2), (2, 4, 2), (2, 4, 3), (3, 5, 2), (2, 3, 4), (0, 3, 2), (0, 0, 5)]:
        reps = _rep_codes(t, k, p)
        assert len(reps) == gaussian_binomial(k, t, p)
        assert len(set(reps)) == len(reps)
        assert list(reps) == sorted(reps)
        # sorted code tuples are sorted matrices: the byte order of the reps
        assert [_decode_rep(rep, k, p) for rep in reps] == sorted(
            _decode_rep(rep, k, p) for rep in reps
        )
        for rep in reps:
            assert len(rep) == t
            assert _is_full_rank_rref(_decode_rep(rep, k, p))
    assert _rep_codes(3, 2, 2) == ()


def test_rep_codes_digest_is_pinned():
    # the reps fix the order of every outer's t-subspaces, which the cover
    # matrix and tspace_positions inherit; pinned at every field order
    digest = hashlib.sha256()
    for p in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32):
        for k in range(6 if p <= 5 else 4):
            for t in range(k + 1):
                digest.update(repr((p, k, t, _rep_codes(t, k, p))).encode())
    assert digest.hexdigest() == (
        "b8a2d8311991c467058fda1d116ad12bf90813bdc324a63162500865c4fa4f58"
    )


def test_subspaces_within_counts_and_containment():
    sp = standard_polar_space("C", 3, 2)
    gens = isotropic_kspaces(sp, 3)
    for u in gens[:5]:
        for t in range(4):
            subs = subspaces_within(sp.field, u, t)
            assert len(subs) == gaussian_binomial(3, t, sp.p)
            assert len(set(subs)) == len(subs)
            for s in subs:
                assert subspace_contains(sp.field, u, s)
                if s.k:  # the product of RREF bases must itself be canonical
                    assert rref_canonicalize(sp.field, s.rows, sp.d) == s


@pytest.mark.parametrize(
    "family,n,q",
    [("C", 2, 2), ("D", 3, 2), ("B", 2, 2), ("2D", 2, 2), ("2A-odd", 2, 2), ("2A-even", 2, 2)],
)
def test_tspace_positions_match_containment(family, n, q):
    # the products kernel matches t-subspaces to the level; the rref kernel
    # behind subspace_contains decides the same incidence independently
    sp = standard_polar_space(family, n, q)
    for k in range(1, n + 1):
        outers = isotropic_kspaces(sp, k)
        for t in range(k):
            tspaces = isotropic_kspaces(sp, t)
            level, positions = tspace_positions(sp, t, [u.data for u in outers])
            assert level == [v.to_bytes() for v in tspaces]
            assert len(positions) == len(outers)
            for u, found in zip(outers, positions):
                assert len(found) == gaussian_binomial(k, t, sp.p)
                assert len(set(found)) == len(found)  # distinct, and no None
                inside = {i for i, v in enumerate(tspaces) if subspace_contains(sp.field, u, v)}
                assert set(found) == inside


def test_tspace_positions_mark_subspaces_outside_the_level_none():
    # every point of the ambient D_2 q=2 space: the 9 singular ones are level 1
    sp = standard_polar_space("D", 2, 2)
    whole = Subspace.from_rows(sp.d, [[int(i == j) for j in range(sp.d)] for i in range(sp.d)])
    level, (found,) = tspace_positions(sp, 1, [whole.data])
    assert len(found) == gaussian_binomial(sp.d, 1, sp.p) == 15
    assert sorted(i for i in found if i is not None) == list(range(len(level))) == list(range(9))
    assert found.count(None) == 6
    with pytest.raises(ValueError):
        tspace_positions(sp, 3, [whole.data])


def test_tspace_positions_reject_mixed_or_ragged_outers():
    # one batch is one dimension k: outers of two sizes, or a size that is
    # no whole number of rows, are refused rather than read as smaller spaces
    sp = standard_polar_space("C", 2, 2)
    line, point = isotropic_kspaces(sp, 2)[0], isotropic_kspaces(sp, 1)[0]
    for outers in ([line.data, point.data], [line.data[:-1]], [line.data[:-1]] * 2):
        with pytest.raises(ValueError):
            tspace_positions(sp, 1, outers)


@pytest.mark.parametrize("family,n,q", [("C", 2, 3), ("2A-even", 2, 2)])
def test_subspaces_hash_and_order_as_their_field_pairs(family, n, q):
    # set orders, levels, certificates and digests rest on this
    sp = standard_polar_space(family, n, q)
    subspaces = isotropic_kspaces(sp, 1) + isotropic_kspaces(sp, 2)
    random.Random(7).shuffle(subspaces)
    pairs = [(s.ambient, s.data) for s in subspaces]
    assert all(hash(s) == hash(pair) for s, pair in zip(subspaces, pairs))
    assert [(s.ambient, s.data) for s in sorted(subspaces)] == sorted(pairs)


def test_subspace_serialization_roundtrip():
    # a Subspace stores its ambient dimension and canonical bytes; k, rows
    # and the JSON lists are derived from them
    assert Subspace._fields == ("ambient", "data")
    for family, n, q in [("B", 2, 3), ("2A-odd", 2, 2)]:
        sp = standard_polar_space(family, n, q)
        for k in range(n + 1):
            for s in isotropic_kspaces(sp, k):
                assert s.k == k and len(s.rows) == k
                assert all(len(row) == sp.d for row in s.rows)
                assert s.to_bytes() == s.data == bytes(x for row in s.rows for x in row)
                again = Subspace.from_rows(sp.d, s.to_lists())
                assert again == s and hash(again) == hash(s)
                assert Subspace.from_rows(sp.d, s.rows) == s
                assert Subspace.from_bytes(s.to_bytes(), k, sp.d) == s
    zero = Subspace.from_rows(5, ())
    assert zero.k == 0 and zero.rows == () and zero.to_bytes() == b""
    with pytest.raises(ValueError):
        Subspace.from_rows(4, [(1, 0, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        Subspace.from_bytes(bytes(6), 2, 4)


@pytest.mark.parametrize(
    "family,n,q", [("B", 3, 3), ("2A-odd", 3, 2), ("C", 4, 2), ("2D", 2, 3)]
)
def test_subspace_order_is_row_order(family, n, q):
    # certificates list blocks in this order, so it must stay the order of
    # the RREF rows
    sp = standard_polar_space(family, n, q)
    every = []
    for k in range(n + 1):
        level = isotropic_kspaces(sp, k)
        assert level == sorted(level, key=lambda s: s.rows)
        assert sorted(level) == sorted(level, key=lambda s: s.rows)
        every += level
    random.Random(n).shuffle(every)
    assert sorted(every) == sorted(every, key=lambda s: s.rows)
