"""Acceptance suite: the eight exit criteria, one test (and one printed
pass/fail line) each.  All comparisons are exact integer equalities; there
are no tolerances anywhere.

Criterion 6 checks the whole bound chain on all six families.  Its |X| step
is asserted under its own hypothesis: the closed form
|X| >= p^(2nk - ceil(3k^2/2)) is derived from
|X| >= p^(2nk - (3k^2-k)/2 + ke) and needs the polar parameter e >= -1/2,
so it is asserted where e >= -1/2; on the hyperbolic family (e = -1) the
same derivation gives |X| >= p^(2nk - k(3k+1)/2), and that is asserted
there instead.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from oracles import bruteforce_fixed_intersection_counts
from polardesign.counting import (
    gaussian_binomial,
    lambda_ratio,
    fixed_intersection_count,
    polar_count,
    polar_count_through,
)
from polardesign.decode import build_decoding_system, verify_local_decodability
from polardesign.fields import make_field
from polardesign.geometry import (
    enumerate_extensions,
    isotropic_kspaces,
    standard_polar_space,
)
from polardesign.incidence import (
    DesignInstance,
    constant_row_sum_check,
    design_from_json,
    design_to_json,
    verify_design,
)
from polardesign.klp import feasibility_report, klp_budget
from polardesign.search import SearchProblem, find_design

ALL_FAMILIES = ("2A-odd", "2A-even", "B", "C", "D", "2D")

# q=2 up to rank 3 for every family; q=3 up to rank 2 for the non-Hermitian
# families (Hermitian stays at q=2, i.e. working order 4)
CRITERION1_INSTANCES = [
    (family, n, 2) for family in ALL_FAMILIES for n in (1, 2, 3)
] + [(family, n, 3) for family in ("B", "C", "D", "2D") for n in (1, 2)]


def _report(num: int, label: str, failures, elapsed: float) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"ACCEPTANCE {num} [{label}]: {status}  ({elapsed:.1f}s)")


def test_criterion_1_counting_oracle_equivalence():
    start = time.time()
    failures = []
    for index, (family, n, q) in enumerate(CRITERION1_INSTANCES):
        space = standard_polar_space(family, n, q)
        levels = {}
        for k in range(n + 1):
            levels[k] = isotropic_kspaces(space, k)
            if len(levels[k]) != polar_count(space, k):
                failures.append((family, n, q, k, len(levels[k])))
        rng = random.Random(1000 + index)
        for _ in range(10):
            t = rng.randint(0, n)
            k = rng.randint(t, n)
            base = rng.choice(levels[t])
            found = sum(1 for _ in enumerate_extensions(space, base, k))
            if found != polar_count_through(space, t, k):
                failures.append((family, n, q, "ext", t, k, found))
    _report(1, "counting oracle equivalence", failures, time.time() - start)
    assert not failures, failures


def test_criterion_2_fixed_intersection_counts():
    start = time.time()
    failures = []
    for p in (2, 3):
        field = make_field(p)
        for t in range(1, 3 + 1):
            for k in range(t, 6 - t + 1):
                for ell in range(t):
                    histogram = bruteforce_fixed_intersection_counts(field, k, t, ell)
                    for j in range(ell, t + 1):
                        expected = fixed_intersection_count(p, k, t, ell, j)
                        if histogram.get(j, 0) != expected:
                            failures.append((p, k, t, ell, j, histogram.get(j, 0), expected))
    _report(2, "fixed-intersection count equivalence", failures, time.time() - start)
    assert not failures, failures


def test_criterion_3_decoding_systems():
    start = time.time()
    failures = []
    for p in (2, 3, 4, 5):
        for t in range(1, 7):
            for k in range(t, 7):
                s = build_decoding_system(p, t, k)
                size = t + 1
                upper = all(
                    s.matrix[ell][j] == 0 for ell in range(size) for j in range(ell)
                )
                diagonal = all(s.matrix[i][i] != 0 for i in range(size))
                product = [
                    sum(s.matrix[ell][j] * s.f[j] for j in range(size))
                    for ell in range(size)
                ]
                bound = p ** (k * (t + 1) ** 2)
                checks = (
                    upper
                    and diagonal
                    and product == [0] * t + [s.m]
                    and s.f == s.det_cols
                    and s.m == s.f[t] * gaussian_binomial(k, t, p)
                    and abs(s.m) <= bound
                    and all(abs(x) <= bound for x in s.det_cols)
                )
                if not checks:
                    failures.append((p, t, k))
    worked = build_decoding_system(2, 1, 2)
    if not (
        worked.matrix == ((2, 1), (0, 3))
        and worked.f == (-1, 2)
        and worked.m == 6
    ):
        failures.append("worked instance (p=2, t=1, k=2)")
    _report(3, "decoding systems", failures, time.time() - start)
    assert not failures, failures


def test_criterion_4_local_decodability_live():
    start = time.time()
    failures = []
    for family in ("C", "B"):
        space = standard_polar_space(family, 3, 2)
        points = isotropic_kspaces(space, 1)
        rng = random.Random(42)
        for _ in range(5):
            vspace = rng.choice(points)
            wspace = rng.choice(list(enumerate_extensions(space, vspace, 3)))
            report = verify_local_decodability(space, 1, 2, vspace, wspace)
            ok = (
                report.ok
                and report.m == 6
                and report.gamma_l1 == 10
                and report.c4 == 10
                and report.checked == len(points)
                and report.l1_formula_consistent
            )
            if not ok:
                failures.append((family, vspace.rows, report.violations[:3]))
    _report(4, "local decodability on live spaces", failures, time.time() - start)
    assert not failures, failures


def test_criterion_5_constant_row_sums():
    start = time.time()
    failures = []
    for family, n, q in CRITERION1_INSTANCES:
        space = standard_polar_space(family, n, q)
        for t in range(n + 1):
            for k in range(t + 1, n + 1):
                report = constant_row_sum_check(space, t, k)
                if not report.ok:
                    failures.append((family, n, q, t, k, report.violation))
    _report(5, "constant row sums (C1)", failures, time.time() - start)
    assert not failures, failures


X_CLOSED_FORM = "X>=p^(2nk-ceil(3k^2/2))"


def test_criterion_6_bound_chain():
    start = time.time()
    failures = []
    for p in (2, 3, 4):
        for family in ALL_FAMILIES:
            hermitian = family.startswith("2A")
            if hermitian and p != 4:
                continue
            q = 2 if hermitian else p
            for t in (1, 2):
                for k in range(t, 7):
                    for n in range(t + k, 13):
                        space = standard_polar_space(family, n, q)
                        budget = klp_budget(space, t, k)
                        instance = (family, q, n, t, k)
                        for name, ok in budget["inequalities"].items():
                            if name != X_CLOSED_FORM and not ok:
                                failures.append((*instance, name))
                        stated = budget["inequalities"][X_CLOSED_FORM]
                        if space.twice_e >= -1:
                            # e >= -1/2: the stated closed form must hold
                            if not stated:
                                failures.append((*instance, X_CLOSED_FORM))
                        else:
                            # e = -1: |X| >= p^(2nk - k(3k+1)/2)
                            x_lower = p ** (2 * n * k - k * (3 * k + 1) // 2)
                            if budget["count_kspaces"] < x_lower:
                                failures.append(
                                    (*instance, "X>=p^(2nk-k(3k+1)/2)")
                                )
                            if stated != (
                                budget["count_kspaces"]
                                >= budget["count_kspaces_lower_bound"]
                            ):
                                failures.append(
                                    (*instance, f"{X_CLOSED_FORM} flag disagrees")
                                )
        for n in range(13):
            for k in range(min(n, 6) + 1):
                value = gaussian_binomial(n, k, p)
                if not p ** (k * (n - k)) <= value <= 4 * p ** (k * (n - k)):
                    failures.append((p, n, k, "sandwich"))
    threshold_space = standard_polar_space("C", 12, 2)
    low = feasibility_report(threshold_space, 1, 10)["k_exceeds_21t_over_2"]
    high = feasibility_report(threshold_space, 1, 11)["k_exceeds_21t_over_2"]
    if low is not False or high is not True:
        failures.append(("C", 2, 12, 1, "k=10,11", "k_exceeds_21t_over_2 flip"))
    _report(6, "bound chain", failures, time.time() - start)
    assert not failures, (
        f"bound chain: {len(failures)} violations, each (instance..., "
        f"inequality); first: {failures[:4]}"
    )


def _spread_certificates():
    out = []
    for family, n, k in [("C", 2, 2), ("D", 2, 2), ("C", 3, 3)]:
        space = standard_polar_space(family, n, 2)
        result = find_design(SearchProblem(space=space, t=1, k=k, lam=1))
        out.append((family, n, k, result))
    return out


def test_criterion_7_constructive_search():
    start = time.time()
    failures = []
    expected_sizes = {("C", 2): 5, ("D", 2): 3, ("C", 3): 9}
    for family, n, k, result in _spread_certificates():
        if isinstance(result, tuple) or not hasattr(result, "blocks"):
            failures.append((family, n, "no design found"))
            continue
        if len(result.blocks) != expected_sizes[(family, n)]:
            failures.append((family, n, f"{len(result.blocks)} blocks"))
        report = verify_design(result)
        ratio = lambda_ratio(result.space(), 1, k, len(result.blocks))
        if not (report.ok and report.lam == 1 and ratio == 1):
            failures.append((family, n, "verification failed"))
    _report(7, "constructive spread search", failures, time.time() - start)
    assert not failures, failures


def test_criterion_8_certificate_integrity(tmp_path):
    start = time.time()
    failures = []
    for family, n, k, result in _spread_certificates():
        text = design_to_json(result)
        reread = design_from_json(text)
        if not verify_design(reread).ok:
            failures.append((family, n, "reread certificate failed verification"))
        if design_to_json(reread) != text:
            failures.append((family, n, "round trip not byte-identical"))
        path = tmp_path / f"{family}{n}.json"
        path.write_text(text)
        if design_from_json(path.read_text()) != reread:
            failures.append((family, n, "disk round trip differs"))

        space = result.space()
        outside = next(
            u for u in isotropic_kspaces(space, k) if u not in set(result.blocks)
        )
        blocks = list(result.blocks)
        blocks[0] = outside
        mutated = DesignInstance(
            family=family,
            q=2,
            n=n,
            t=1,
            k=k,
            lam=1,
            blocks=tuple(sorted(blocks)),
            provenance={},
        )
        report = verify_design(mutated)
        if report.ok or report.violation is None:
            failures.append((family, n, "single-block mutation not rejected"))
        else:
            violating, _count = report.violation
            if violating.k != 1:
                failures.append((family, n, "violation does not name a t-space"))
    _report(8, "certificate integrity", failures, time.time() - start)
    assert not failures, failures
