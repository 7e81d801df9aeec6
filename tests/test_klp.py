import hashlib
import json
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_feasibility_report, reference_klp_thresholds
from polardesign import klp
from polardesign.counting import (
    decimal_string,
    gaussian_binomial,
    lambda_ratio,
    polar_count,
    polar_count_through,
    power_half,
)
from polardesign.geometry import standard_polar_space
from polardesign.klp import ceil_log2, feasibility_report, klp_budget

# the criterion-6 sweep: all six families wherever the working order is in
# {2,3,4}; Hermitian families only exist there for q=2 (p=4)
def _sweep():
    for p in (2, 3, 4):
        for family in ("2A-odd", "2A-even", "B", "C", "D", "2D"):
            hermitian = family.startswith("2A")
            if hermitian and p != 4:
                continue
            q = 2 if hermitian else p
            for t in (1, 2):
                for k in range(t, 7):
                    for n in range(t + k, 13):
                        yield standard_polar_space(family, n, q), t, k


def _report_grid():
    # six families, p <= 4, n <= 9, t <= 2: every k with t <= k <= n - t
    for p in (2, 3, 4):
        for family in ("2A-odd", "2A-even", "B", "C", "D", "2D"):
            hermitian = family.startswith("2A")
            if hermitian and p != 4:
                continue
            q = 2 if hermitian else p
            for n in range(2, 10):
                space = standard_polar_space(family, n, q)
                for t in (1, 2):
                    for k in range(t, n - t + 1):
                        yield space, t, k


def _wide_report_grid():
    # the orders p in {5, 9, 25, 32} of the benchmark's sweep, the Hermitian
    # families at p = 9 and 25 (half-integer e); n <= 23, t <= 3, k <= 7
    for p in (5, 9, 25, 32):
        for family in ("2A-odd", "2A-even", "B", "C", "D", "2D"):
            hermitian = family.startswith("2A")
            if hermitian and p not in (9, 25):
                continue
            q = isqrt(p) if hermitian else p
            for t in (1, 2, 3):
                for k in range(t, 8):
                    for n in range(t + k, 24):
                        yield standard_polar_space(family, n, q), t, k


def _reports_digest(constant, c_prime, grid=_report_grid):
    digest = hashlib.sha256()
    for space, t, k in grid():
        report = feasibility_report(space, t, k, constant, c_prime)
        digest.update(json.dumps(report, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def test_ceil_log2():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(3) == 2
    assert ceil_log2(1024) == 10
    assert ceil_log2(1025) == 11
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_worked_budget_c3_q2():
    space = standard_polar_space("C", 3, 2)
    budget = klp_budget(space, 1, 2)
    assert budget["count_tspaces"] == 63
    assert budget["count_kspaces"] == 315
    assert budget["c2"] == 1
    assert budget["c4_exact"] == 10
    assert budget["c3_from_c4"] == 2 * 10 * 63 == 1260
    assert budget["c1_upper_witness"] == 6 * 63
    assert budget["count_tspaces_coarse_bound"] == 10 * 2**6 == 640
    assert budget["count_kspaces_lower_bound"] == 2**6 == 64
    assert all(budget["inequalities"].values())


def test_budget_parameter_validation():
    space = standard_polar_space("C", 3, 2)
    with pytest.raises(ValueError):
        klp_budget(space, 2, 2)  # t + k > n
    with pytest.raises(ValueError):
        klp_budget(space, 0, 1)
    with pytest.raises(ValueError):
        klp_budget(space, 1, 2, constant=0)


def test_bound_chain_for_non_hyperbolic_families():
    for space, t, k in _sweep():
        if space.family == "D":
            continue
        budget = klp_budget(space, t, k)
        assert all(budget["inequalities"].values()), (space, t, k)


def test_hyperbolic_x_lower_bound_counterexample():
    # the final display of the |X| chain needs e >= -1/2 and fails for D_n;
    # earliest sweep instance: D_3 q=3, k=2
    space = standard_polar_space("D", 3, 3)
    budget = klp_budget(space, 1, 2)
    assert budget["count_kspaces"] == 520
    assert budget["count_kspaces_lower_bound"] == 3**6 == 729
    assert not budget["inequalities"]["X>=p^(2nk-ceil(3k^2/2))"]
    others = [ok for name, ok in budget["inequalities"].items() if not name.startswith("X>=")]
    assert all(others)


def test_hyperbolic_bound_chain_except_x_lower_bound():
    for space, t, k in _sweep():
        if space.family != "D":
            continue
        budget = klp_budget(space, t, k)
        for name, ok in budget["inequalities"].items():
            if not name.startswith("X>="):
                assert ok, (space, t, k, name)


def test_x_exact_exponent_bound_all_families():
    # the valid first step of the chain: |X| >= p^(k(n-k)) * prod p^(n-i+e)
    for space, t, k in _sweep():
        lower = space.p ** (k * (space.n - k))
        for i in range(k):
            lower *= power_half(space.p, 2 * (space.n - i) + space.twice_e)
        assert polar_count(space, k) >= lower, (space, t, k)


def test_divisibility_identity_exact():
    # |A| * (#k-spaces through a t-space) / |X| = [k t]_p, with exact rationals
    for space, t, k in _sweep():
        lhs = Fraction(
            polar_count(space, t) * polar_count_through(space, t, k),
            polar_count(space, k),
        )
        assert lhs == gaussian_binomial(k, t, space.p), (space, t, k)


def test_threshold_flag_flips_between_k10_and_k11():
    space = standard_polar_space("C", 12, 2)
    low = feasibility_report(space, 1, 10)
    high = feasibility_report(space, 1, 11)
    assert low["k_exceeds_21t_over_2"] is False
    assert high["k_exceeds_21t_over_2"] is True


def test_threshold_monotone_in_constant_and_c3():
    space = standard_polar_space("C", 6, 2)
    base = klp_budget(space, 1, 2)
    double = klp_budget(space, 1, 2, constant=2)
    half = klp_budget(space, 1, 2, constant=Fraction(1, 2))
    assert half["n_threshold"] <= base["n_threshold"] <= double["n_threshold"]
    # larger k raises c4 hence c3 while |A| (and dim L) stays fixed
    bigger = klp_budget(space, 1, 3)
    assert bigger["c3_from_c4"] > base["c3_from_c4"]
    assert bigger["count_tspaces"] == base["count_tspaces"]
    assert bigger["n_threshold"] > base["n_threshold"]


def test_feasibility_report_contents():
    space = standard_polar_space("C", 3, 2)
    report = feasibility_report(space, 1, 2)
    assert report["k_exceeds_21t_over_2"] is False
    assert report["smallest_feasible_multiple"] % report["c1_upper_witness"] == 0
    assert report["smallest_feasible_multiple"] >= report["n_threshold"]
    assert report["n_fits_within_x"] is False  # tiny rank: threshold beats |X|
    assert report["lambda_is_integer"] is False or report["lambda_at_n"]
    assert "symmetry_c2" in report["assumptions"]
    assert report["theorem_cap_p_21nt"] == 2 ** (21 * 3)
    # the relaxed form and the cap are both present and positive
    assert report["relaxed_threshold"] > 0


def test_equal_constants_give_equal_reports():
    # an int constant stays an int, anything else goes through Fraction;
    # either way the report is the same
    space = standard_polar_space("B", 4, 3)
    reports = [feasibility_report(space, 1, 3, c, c) for c in (1, Fraction(1), "1", True)]
    assert all(report == reports[0] for report in reports)
    assert reports[0]["constant_C"] == reports[0]["constant_c_prime"] == "1"
    assert feasibility_report(space, 1, 3, Fraction(3, 2), "2/3") == feasibility_report(
        space, 1, 3, "3/2", Fraction(2, 3)
    )
    assert klp_budget(space, 1, 3, 1, True) == klp_budget(space, 1, 3, Fraction(1), "1")


def test_feasibility_report_keys_are_pinned():
    report = feasibility_report(standard_polar_space("B", 4, 3), 1, 3)
    assert set(report) == {
        "family", "q", "n", "p", "t", "k",
        "constant_C", "constant_c_prime", "k_exceeds_21t_over_2",
        "m", "gamma_l1", "c1_upper_witness", "c1_coarse_bound", "c2",
        "c3_from_c4", "c3_coarse_bound", "c4_exact", "c4_coarse_bound",
        "count_tspaces", "count_tspaces_coarse_bound", "dim_l_bound",
        "count_kspaces", "count_kspaces_lower_bound", "log_term",
        "n_threshold", "relaxed_threshold", "theorem_cap_p_21nt",
        "smallest_feasible_multiple", "n_fits_within_x", "n_within_theorem_cap",
        "lambda_at_n", "lambda_is_integer", "inequalities", "assumptions",
    }  # fmt: skip
    assert len(report) == 34
    assert set(report["assumptions"]) == {"symmetry_c2", "c1"}
    assert len(report["inequalities"]) == 6


def test_n_threshold_exact_value_small_case():
    space = standard_polar_space("C", 3, 2)
    budget = klp_budget(space, 1, 2)
    c3, dim_l = 1260, 63
    log_term = ceil_log2(2 * c3 * dim_l)
    assert budget["log_term"] == log_term
    assert budget["n_threshold"] == c3**2 * dim_l**6 * log_term**6


@pytest.mark.parametrize(
    "constant,c_prime,digest",
    [
        (1, 1,
         "b79b4f254b437a703f888178068fdb9c34243c0be58dba0c6c608a5e59f777ca"),
        (Fraction(3, 2), Fraction(2, 3),
         "91990535ba6f6c12e7a8068d93748a87a0236a5fc606fc6c4e10a456260d7bd2"),
    ],
)  # fmt: skip
def test_feasibility_reports_are_pinned(constant, c_prime, digest):
    # every field of every report on the grid; the digests were taken from
    # the Fraction-product thresholds that the integer ceilings replaced
    assert _reports_digest(constant, c_prime) == digest


@pytest.mark.parametrize(
    "constant,c_prime,digest",
    [
        (1, 1,
         "446522f6053d80377b1664058bb66a1bb4ffa8de7bcacfc1bd088b5457a59a22"),
        (Fraction(3, 2), Fraction(2, 3),
         "eb3cbc48566c3651945dd3eae342a4b323b09d61bb225d6fd717afb383ff5f99"),
    ],
)  # fmt: skip
def test_wide_feasibility_reports_are_pinned(constant, c_prime, digest):
    # every field of every report at orders, ranks and t that the grid above
    # does not reach
    assert _reports_digest(constant, c_prime, _wide_report_grid) == digest


_SWEEP = list(_sweep())
_POSITIVE_FRACTIONS = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


@pytest.mark.parametrize("constant,c_prime", [(1, 1), (Fraction(3, 2), Fraction(2, 3))])
def test_klp_budget_is_the_report_budget(constant, c_prime):
    # the budget is one dict, and the report extends it unchanged
    for space, t, k in _SWEEP:
        budget = klp_budget(space, t, k, constant, c_prime)
        report = feasibility_report(space, t, k, constant, c_prime)
        assert type(budget) is dict
        assert {key: report[key] for key in budget} == budget, (space, t, k)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    case=st.sampled_from(_SWEEP),
    constant=_POSITIVE_FRACTIONS,
    c_prime=_POSITIVE_FRACTIONS,
)
@example(case=_SWEEP[0], constant=Fraction(1, 3), c_prime=Fraction(3, 2))
@example(case=_SWEEP[-1], constant=Fraction(7, 5), c_prime=Fraction(1, 3))
@example(case=_SWEEP[len(_SWEEP) // 2], constant=Fraction(3, 2), c_prime=Fraction(7, 5))
def test_thresholds_match_the_fraction_products(case, constant, c_prime):
    space, t, k = case
    budget = klp_budget(space, t, k, constant, c_prime)
    expected = reference_klp_thresholds(budget, constant, c_prime)
    assert (budget["n_threshold"], budget["relaxed_threshold"]) == expected


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    case=st.sampled_from(_SWEEP),
    constant=_POSITIVE_FRACTIONS,
    c_prime=_POSITIVE_FRACTIONS,
)
def test_lambda_at_n_matches_the_fraction_ratio(case, constant, c_prime):
    # the report's closed form j m [k t]_p against lambda_ratio's Fraction
    space, t, k = case
    report = feasibility_report(space, t, k, constant, c_prime)
    n_blocks = report["smallest_feasible_multiple"]
    assert report["lambda_at_n"] == decimal_string(lambda_ratio(space, t, k, n_blocks))
    assert n_blocks % report["c1_upper_witness"] == 0
    assert report["lambda_is_integer"] is True


def _interleaved_grid():
    # both report grids, ordered by p and then (t, k, n) with the families
    # innermost, so that consecutive reports share (p, n, t) and (p, t, k)
    # across families
    cases = [*_report_grid(), *_wide_report_grid()]
    return sorted(cases, key=lambda case: (case[0].p, case[1], case[2], case[0].n, case[0].family))


def test_reports_match_the_reference_across_families_and_constants():
    # values and key order of the report, its inequalities and klp_budget,
    # with the memos read across families and across constant pairs
    pairs = ((1, 1), (Fraction(3, 2), Fraction(2, 3)), (Fraction(7, 3), 5))
    for space, t, k in _interleaved_grid():
        for constant, c_prime in pairs:
            report = feasibility_report(space, t, k, constant, c_prime)
            budget = klp_budget(space, t, k, constant, c_prime)
            expected, expected_budget = reference_feasibility_report(space, t, k, constant, c_prime)
            where = (space.family, space.p, space.n, t, k, constant, c_prime)
            assert list(report.items()) == list(expected.items()), where
            assert list(budget.items()) == list(expected_budget.items()), where
            for key in ("inequalities", "assumptions"):
                assert list(report[key].items()) == list(expected[key].items()), where
            assert list(budget["inequalities"].items()) == list(
                expected_budget["inequalities"].items()
            ), where


def test_shared_power_memos_stay_within_their_bounds():
    # a sweep over more ranks, and more (t, k), than either memo holds: the
    # caps have 21nt*log2(p) bits, so an unbounded memo would grow with n
    memos = (klp._rank_powers, klp._order_terms)
    ranks = max(memo.cache_info().maxsize for memo in memos) + 8
    for n in range(2, ranks + 2):
        feasibility_report(standard_polar_space("C", n, 2), 1, 1)
    space = standard_polar_space("C", 2 * ranks, 3)
    for k in range(1, ranks + 1):
        feasibility_report(space, 1, k)
    for memo in memos:
        info = memo.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
