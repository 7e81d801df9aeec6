import random

import pytest

from oracles import (
    naive_all_subspaces,
    naive_contains,
    naive_intersection_dimension,
    naive_is_totally_isotropic,
    naive_isotropic_kspaces,
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
    BudgetExceededError,
    Subspace,
    _max_isotropic_dimension,
    clear_enumeration_cache,
    enumerate_extensions,
    enumerate_isotropic_kspaces,
    evaluate,
    intersection_dimension,
    is_totally_isotropic,
    isotropic_kspaces,
    rref_canonicalize,
    rref_space_reps,
    standard_polar_space,
    subspace_contains,
    subspaces_within,
)

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
]


def test_descriptor_table():
    sp = standard_polar_space("C", 2, 2)
    assert (sp.d, sp.p, sp.twice_e, sp.group) == (4, 2, 0, "Sp(4,2)")
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


def test_alternating_form_vanishes_on_diagonal():
    sp = standard_polar_space("C", 2, 2)
    for u in naive_all_subspaces(sp.field, 4, 1):
        vec = u.rows[0]
        assert evaluate(sp.form, vec, vec) == 0


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
        assert evaluate(sp.form, u, w) == sp.field.conjugate(evaluate(sp.form, w, u))


def test_quadratic_polar_identity():
    for fam, n, q in [("D", 2, 3), ("B", 2, 2), ("2D", 1, 3)]:
        sp = standard_polar_space(fam, n, q)
        rng = random.Random(11)
        for _ in range(40):
            u = tuple(rng.randrange(sp.p) for _ in range(sp.d))
            w = tuple(rng.randrange(sp.p) for _ in range(sp.d))
            upw = tuple(sp.field.add(a, b) for a, b in zip(u, w))
            lhs = evaluate(sp.form, u, w)
            rhs = sp.field.sub(
                sp.field.sub(sp.form.quadratic(upw), sp.form.quadratic(u)),
                sp.form.quadratic(w),
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
            assert evaluate(sp.form, uv, w) == sp.field.add(
                evaluate(sp.form, u, w), evaluate(sp.form, v, w)
            )
            assert evaluate(sp.form, w, uv) == sp.field.add(
                evaluate(sp.form, w, u), evaluate(sp.form, w, v)
            )


def test_form_dimension_mismatch():
    sp = standard_polar_space("C", 2, 2)
    with pytest.raises(ValueError):
        evaluate(sp.form, (1, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValueError):
        sp.form.bilinear((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))


def test_quadratic_value_refused_on_bilinear_kinds():
    sp = standard_polar_space("C", 2, 2)
    with pytest.raises(ValueError):
        sp.form.quadratic((1, 0, 0, 0))


def test_is_totally_isotropic_examples():
    sp = standard_polar_space("D", 2, 2)
    assert is_totally_isotropic(sp.form, Subspace(ambient=4, rows=()))
    good = Subspace(ambient=4, rows=((1, 0, 0, 0), (0, 0, 1, 0)))
    bad = Subspace(ambient=4, rows=((1, 0, 0, 0), (0, 1, 0, 0)))
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
        for s in enumerate_isotropic_kspaces(sp, k):
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
    rng = random.Random(hash((family, n, q)) & 0xFFFF)
    levels = {k: isotropic_kspaces(sp, k) for k in range(sp.n + 1)}
    for _ in range(8):
        t = rng.randint(0, sp.n)
        k = rng.randint(t, sp.n)
        base = rng.choice(levels[t])
        exts = list(enumerate_extensions(sp, base, k))
        assert len(exts) == polar_count_through(sp, t, k)
        expected = [u for u in levels[k] if subspace_contains(sp.field, u, base)]
        assert exts == expected


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


def test_extension_of_full_dimension_is_identity():
    sp = standard_polar_space("C", 2, 2)
    lines = isotropic_kspaces(sp, 2)
    for line in lines[:5]:
        assert list(enumerate_extensions(sp, line, 2)) == [line]


def test_extension_rejects_anisotropic_base():
    sp = standard_polar_space("D", 2, 2)
    bad = Subspace(ambient=4, rows=((1, 0, 0, 0), (0, 1, 0, 0)))
    with pytest.raises(ValueError):
        list(enumerate_extensions(sp, bad, 2))


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
        assert _max_isotropic_dimension(sp, sp.n + 1, 10**7) == sp.n


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


def test_rref_space_reps_cardinality():
    for t, m, p in [(1, 3, 2), (2, 4, 2), (2, 4, 3), (3, 5, 2), (2, 3, 4)]:
        reps = rref_space_reps(t, m, p)
        assert len(reps) == gaussian_binomial(m, t, p)
        assert len(set(reps)) == len(reps)
        assert list(reps) == sorted(reps)


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


def test_subspace_serialization_roundtrip():
    sp = standard_polar_space("B", 2, 3)
    for s in isotropic_kspaces(sp, 2)[:10]:
        lists = s.to_lists()
        again = Subspace(ambient=sp.d, rows=tuple(tuple(r) for r in lists))
        assert again == s
        assert Subspace.from_bytes(s.to_bytes(), s.k, sp.d) == s
