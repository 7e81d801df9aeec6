import random

import pytest

from oracles import _det_exact, bruteforce_fixed_intersection_counts
from polardesign import decode
from polardesign.counting import gaussian_binomial, fixed_intersection_count
from polardesign.decode import (
    build_decoding_system,
    determinant_bound_check,
    verify_local_decodability,
)
from polardesign.fields import make_field
from polardesign.geometry import (
    Subspace,
    enumerate_extensions,
    intersection_dimension,
    isotropic_kspaces,
    standard_polar_space,
    subspace_contains,
    subspaces_within,
)


def test_worked_system_p2_t1_k2():
    s = build_decoding_system(2, 1, 2)
    assert s.matrix == ((2, 1), (0, 3))
    assert s.m == 6
    assert s.f == (-1, 2)
    assert s.det_cols == (-1, 2)
    assert 2 * (-1) + 1 * 2 == 0 and 2 * gaussian_binomial(2, 1, 2) == 6


def test_worked_system_p2_t1_k3():
    s = build_decoding_system(2, 1, 3)
    assert s.matrix == ((4, 3), (0, 7))
    assert s.m == 28 and s.f == (-3, 4)


def test_t_equals_k_collapses():
    for p in (2, 3, 5):
        for k in (1, 2, 4):
            s = build_decoding_system(p, k, k)
            assert s.matrix[k][k] == 1
            assert s.m == s.f[k]


def test_invalid_parameters():
    with pytest.raises(ValueError):
        build_decoding_system(2, 3, 2)
    with pytest.raises(ValueError):
        build_decoding_system(2, 0, 2)
    with pytest.raises(ValueError):
        build_decoding_system(1, 1, 2)
    for p in (6, 12):  # not prime powers
        with pytest.raises(ValueError, match="not a prime power"):
            build_decoding_system(p, 1, 2)


def test_system_is_built_once_per_parameters():
    first = build_decoding_system(3, 2, 4)
    assert build_decoding_system(3, 2, 4) is first
    assert build_decoding_system(3, 1, 4) is not first


def test_invalid_parameters_raise_on_every_call():
    # the memo stores no exception, so a repeated bad call raises again
    for args in ((6, 1, 2), (2, 0, 2)):
        for _ in range(3):
            with pytest.raises(ValueError):
                build_decoding_system(*args)


def test_cofactor_determinants_match_bareiss():
    # det D_j from the Hessenberg cofactors against the Bareiss determinant
    # of D with column j replaced by the last unit vector
    for p in (2, 3, 4, 5):
        for t in range(1, 9):
            for k in range(t, 10):
                matrix = build_decoding_system(p, t, k).matrix
                want = [
                    _det_exact(
                        [row[:j] + ((1 if r == t else 0),) + row[j + 1 :] for r, row in enumerate(matrix)]
                    )
                    for j in range(t + 1)
                ]
                assert decode._cramer_numerators(matrix) == want


def test_cofactor_determinants_need_an_upper_triangular_matrix():
    with pytest.raises(AssertionError, match="below its diagonal"):
        decode._cramer_numerators(((2, 1), (1, 3)))


@pytest.mark.parametrize("p", [2, 3, 4, 5, 9, 25])
def test_system_invariants_sweep(p):
    for t in range(1, 7):
        for k in range(t, 7):
            s = build_decoding_system(p, t, k)
            size = t + 1
            for ell in range(size):
                assert s.matrix[ell][ell] != 0
                for j in range(ell):
                    assert s.matrix[ell][j] == 0
            rhs = [
                sum(s.matrix[ell][j] * s.f[j] for j in range(size))
                for ell in range(size)
            ]
            assert rhs == [0] * t + [s.m]
            assert s.f == s.det_cols
            assert s.m == s.f[t] * gaussian_binomial(k, t, p)
            assert s.m > 0
            bound = p ** (k * (t + 1) ** 2)
            assert abs(s.m) <= bound
            assert all(abs(x) <= bound for x in s.det_cols)


def test_determinant_bound_report_examples():
    system = build_decoding_system(2, 1, 2)
    report = determinant_bound_check(system)
    assert report.ok and report.bound == 256 and report.bound - system.m == 250
    report = determinant_bound_check(build_decoding_system(2, 1, 3))
    assert report.ok and report.bound == 2**12
    report = determinant_bound_check(build_decoding_system(3, 2, 3))
    assert report.ok and report.bound == 3**27


@pytest.mark.parametrize("p,k,t", [(2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2)])
def test_fixed_intersection_bruteforce_in_plain_space(p, k, t):
    field = make_field(p)
    for ell in range(t):
        histogram = bruteforce_fixed_intersection_counts(field, k, t, ell)
        for j in range(ell, t + 1):
            assert histogram.get(j, 0) == fixed_intersection_count(p, k, t, ell, j)
        assert sum(histogram.values()) == sum(
            fixed_intersection_count(p, k, t, ell, j) for j in range(ell, t + 1)
        )


def test_fixed_intersection_bruteforce_inside_polar_space():
    # the same counts hold verbatim for subspaces of an isotropic W
    space = standard_polar_space("C", 3, 2)
    t, k = 1, 2
    points = isotropic_kspaces(space, t)
    vspace = points[0]
    wspace = next(iter(enumerate_extensions(space, vspace, k + t)))
    inside = subspaces_within(space.field, wspace, t)
    kspaces = subspaces_within(space.field, wspace, k)
    for vprime in inside:
        if vprime == vspace:
            continue
        ell = intersection_dimension(space.field, vspace, vprime)
        histogram = {}
        for u in kspaces:
            if subspace_contains(space.field, u, vprime):
                j = intersection_dimension(space.field, u, vspace)
                histogram[j] = histogram.get(j, 0) + 1
        for j in range(ell, t + 1):
            assert histogram.get(j, 0) == fixed_intersection_count(space.p, k, t, ell, j)


@pytest.mark.parametrize("family", ["C", "B"])
def test_local_decodability_on_live_spaces(family):
    space = standard_polar_space(family, 3, 2)
    report = verify_local_decodability(space, 1, 2)
    assert report.ok
    assert report.m == 6
    assert report.gamma_l1 == 10 and report.c4 == 10
    assert report.checked == 63
    assert report.c3_bound == 2 * 10 * 63
    assert report.l1_formula_consistent and report.l1_coarse_bound_ok


def test_local_decodability_random_pairs():
    rng = random.Random(17)
    space = standard_polar_space("C", 3, 2)
    points = isotropic_kspaces(space, 1)
    for _ in range(3):
        vspace = rng.choice(points)
        wspace = rng.choice(list(enumerate_extensions(space, vspace, 3)))
        report = verify_local_decodability(space, 1, 2, vspace, wspace)
        assert report.ok and report.m == 6 and report.gamma_l1 == 10


@pytest.mark.parametrize("family,n,q,t,k", [("C", 3, 2, 1, 2), ("B", 4, 2, 2, 2)])
def test_local_decodability_reports_a_wrong_solution(monkeypatch, family, n, q, t, k):
    # perturb one entry of f; every V' whose sum moves must be reported, in
    # lexicographic order, with the sum a direct containment count gives
    def perturbed(p, t, k):
        system = build_decoding_system(p, t, k)
        return system._replace(f=(system.f[0] + 1,) + system.f[1:])

    monkeypatch.setattr(decode, "build_decoding_system", perturbed)
    space = standard_polar_space(family, n, q)
    report = verify_local_decodability(space, t, k)
    assert not report.ok

    f = perturbed(space.p, t, k).f
    vspace, wspace = report.tspace, report.wspace
    support = subspaces_within(space.field, wspace, k)
    expected = []
    for vprime in isotropic_kspaces(space, t):
        total = sum(
            f[intersection_dimension(space.field, u, vspace)]
            for u in support
            if subspace_contains(space.field, u, vprime)
        )
        if total != (report.m if vprime == vspace else 0):
            expected.append((vprime, total))
    assert len(expected) > 1
    assert list(report.violations) == expected
    found = [v for v, _ in report.violations]
    assert found == sorted(found)


def test_local_decodability_requires_room():
    space = standard_polar_space("C", 2, 2)
    with pytest.raises(ValueError):
        verify_local_decodability(space, 1, 2)  # t + k > n


def test_local_decodability_rejects_non_canonical_subspaces():
    # a scaled point and a row-swapped basis name valid subspaces, but not by
    # their canonical RREF matrices, which every lookup in the level keys on;
    # a line of W is canonical but not a t-space
    space = standard_polar_space("C", 3, 3)
    vspace = isotropic_kspaces(space, 1)[5]
    wspace = next(enumerate_extensions(space, vspace, 3))
    scaled = Subspace.from_rows(space.d, [[2 * x % 3 for x in vspace.rows[0]]])
    swapped = Subspace.from_rows(space.d, [wspace.rows[1], wspace.rows[0], wspace.rows[2]])
    line = subspaces_within(space.field, wspace, 2)[0]
    with pytest.raises(ValueError, match="V must be the canonical RREF matrix of a 1-space"):
        verify_local_decodability(space, 1, 2, scaled, wspace)
    with pytest.raises(ValueError, match="V must be the canonical RREF matrix of a 1-space"):
        verify_local_decodability(space, 1, 2, line, wspace)
    with pytest.raises(ValueError, match="W must be the canonical RREF matrix of a 3-space"):
        verify_local_decodability(space, 1, 2, vspace, swapped)
    # canonical, but V = <e4 + e6> against a W without e1, and against
    # <e1, e2, V>, which is not totally isotropic since f(e1, e2) = 1
    assert vspace.rows == ((0, 0, 0, 1, 0, 1),)
    point = Subspace.from_rows(space.d, [(1, 0, 0, 0, 0, 0)])
    with pytest.raises(ValueError, match="V must be contained in W"):
        verify_local_decodability(space, 1, 2, point, wspace)
    hyperbolic = Subspace.from_rows(space.d, [point.rows[0], (0, 1, 0, 0, 0, 0), vspace.rows[0]])
    with pytest.raises(ValueError, match="W must be totally isotropic"):
        verify_local_decodability(space, 1, 2, vspace, hyperbolic)


def test_gamma_l1_closed_form_matches_enumeration():
    # already covered on live spaces; spot-check the formula growth
    s = build_decoding_system(2, 1, 3)
    # 15 planes of a 4-space: 7 through V (f=4), 8 avoiding (f=-3)
    assert s.gamma_l1 == 7 * 4 + 8 * 3


def test_solution_against_rational_elimination():
    # third, fully independent path: plain Gaussian elimination over Q
    from fractions import Fraction

    for p, t, k in [(2, 1, 2), (2, 2, 4), (3, 2, 3), (5, 3, 4), (4, 2, 5)]:
        s = build_decoding_system(p, t, k)
        size = t + 1
        a = [[Fraction(x) for x in row] + [Fraction(0)] for row in s.matrix]
        a[t][size] = Fraction(s.m)
        for i in range(size):
            piv = a[i][i]
            for r in range(size):
                if r != i and a[r][i]:
                    factor = a[r][i] / piv
                    for c in range(i, size + 1):
                        a[r][c] -= factor * a[i][c]
        solution = [a[i][size] / a[i][i] for i in range(size)]
        assert all(x.denominator == 1 for x in solution)
        assert tuple(int(x) for x in solution) == s.f
