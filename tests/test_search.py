import hashlib
import sys
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from polardesign import cli
from polardesign.counting import gaussian_binomial, polar_count, polar_count_through
from polardesign.geometry import (
    DEFAULT_ENUMERATION_BUDGET,
    FAMILY_NAMES,
    BudgetExceededError,
    isotropic_kspaces,
    standard_polar_space,
)
from polardesign.incidence import design_to_json, verify_design
from polardesign.search import (
    DivisibilityError,
    SearchFailure,
    SearchProblem,
    _column_masks,
    _exact_cover,
    cover_matrix,
    count_spreads,
    find_design,
)


def test_cover_matrix_c2():
    space = standard_polar_space("C", 2, 2)
    matrix = cover_matrix(space, 1, 2)
    assert len(matrix.tspaces) == 15 and len(matrix.kspaces) == 15
    assert all(len(rows) == 3 for rows in matrix.column_rows)
    covering = Counter(r for rows in matrix.column_rows for r in rows)
    assert [covering[r] for r in range(15)] == [3] * 15


def test_cover_matrix_c3():
    space = standard_polar_space("C", 3, 2)
    matrix = cover_matrix(space, 1, 3)
    assert len(matrix.tspaces) == 63 and len(matrix.kspaces) == 135
    assert all(len(rows) == gaussian_binomial(3, 1, 2) for rows in matrix.column_rows)
    covering = Counter(r for rows in matrix.column_rows for r in rows)
    assert [covering[r] for r in range(63)] == [polar_count_through(space, 1, 3)] * 63


def test_cover_matrix_identity_pattern_when_t_equals_k():
    space = standard_polar_space("D", 2, 2)
    matrix = cover_matrix(space, 2, 2)
    assert matrix.tspaces == matrix.kspaces
    assert all(rows == (i,) for i, rows in enumerate(matrix.column_rows))


@pytest.mark.parametrize(
    "family,n,k,expected_blocks",
    [("C", 2, 2, 5), ("D", 2, 2, 3), ("C", 3, 3, 9)],
)
def test_find_spreads(family, n, k, expected_blocks):
    space = standard_polar_space(family, n, 2)
    result = find_design(SearchProblem(space=space, t=1, k=k, lam=1))
    assert not isinstance(result, SearchFailure)
    assert len(result.blocks) == expected_blocks
    report = verify_design(result)
    assert report.ok and report.lam == 1


def test_spread_blocks_partition_points():
    space = standard_polar_space("C", 3, 2)
    result = find_design(SearchProblem(space=space, t=1, k=3, lam=1))
    covered = set()
    from polardesign.geometry import subspaces_within

    for b in result.blocks:
        pts = set(subspaces_within(space.field, b, 1))
        assert not (covered & pts)
        covered |= pts
    assert len(covered) == 63


def test_search_determinism():
    space = standard_polar_space("C", 3, 2)
    a = find_design(SearchProblem(space=space, t=1, k=3, lam=1, seed=3))
    b = find_design(SearchProblem(space=space, t=1, k=3, lam=1, seed=3))
    assert design_to_json(a) == design_to_json(b)


def test_randomized_method_is_seed_reproducible():
    space = standard_polar_space("C", 2, 2)
    kwargs = dict(space=space, t=1, k=2, lam=1, method="randomized-greedy-with-backtracking")
    a = find_design(SearchProblem(seed=11, **kwargs))
    b = find_design(SearchProblem(seed=11, **kwargs))
    c = find_design(SearchProblem(seed=5, **kwargs))
    assert design_to_json(a) == design_to_json(b)
    assert verify_design(c).ok
    assert a.provenance["seed"] == 11 and a.provenance["method"] == kwargs["method"]


def test_multicover_lambda_two():
    space = standard_polar_space("C", 2, 2)
    result = find_design(SearchProblem(space=space, t=1, k=2, lam=2))
    assert not isinstance(result, SearchFailure)
    assert len(result.blocks) == 10
    assert len(set(result.blocks)) == 10  # no block reuse
    report = verify_design(result)
    assert report.ok and report.lam == 2


def test_multicover_lambda_three_forces_complete_design():
    # every point lies on exactly 3 lines, so the unique lambda = 3 design is
    # the full line set; reusing a block would derail this search
    space = standard_polar_space("C", 2, 2)
    result = find_design(SearchProblem(space=space, t=1, k=2, lam=3))
    assert not isinstance(result, SearchFailure)
    assert len(result.blocks) == 15
    assert tuple(sorted(set(result.blocks))) == result.blocks
    assert verify_design(result).ok


def test_divisibility_precondition_blocks_search():
    # 7 = [3 1]_2 does not divide the 1023 points of C_5 over F_2
    space = standard_polar_space("C", 5, 2)
    with pytest.raises(DivisibilityError):
        find_design(SearchProblem(space=space, t=1, k=3, lam=1))


def test_divisibility_rule_matches_the_two_count_rule():
    # find_design's one count lam*|X|/N(t->k) against the rule written with
    # both counts: it and lam*|A|/[k t]_p must be one positive integer.  A
    # case that passes the rule goes on to enumerate its levels, which an
    # enumeration budget of 0 stops at once.
    rejected = 0
    for family in FAMILY_NAMES:
        for n in (1, 2, 3):
            space = standard_polar_space(family, n, 2)
            for k in range(n + 1):
                for t in range(k + 1):
                    for lam in range(1, 5):
                        blocks, rem = divmod(
                            lam * polar_count(space, k), polar_count_through(space, t, k)
                        )
                        blocks2, rem2 = divmod(
                            lam * polar_count(space, t), gaussian_binomial(k, t, space.p)
                        )
                        rejects = bool(rem or rem2 or blocks != blocks2 or blocks < 1)
                        rejected += rejects
                        problem = SearchProblem(
                            space=space, t=t, k=k, lam=lam, node_budget=0, enumeration_budget=0
                        )
                        expected = DivisibilityError if rejects else BudgetExceededError
                        with pytest.raises(expected):
                            find_design(problem)
    assert rejected == 14


def test_budget_exhaustion_is_reported():
    space = standard_polar_space("C", 3, 2)
    result = find_design(SearchProblem(space=space, t=1, k=3, lam=1, node_budget=2))
    assert isinstance(result, SearchFailure)
    assert result.reason == "budget"


def test_exhaustive_infeasibility_is_proved():
    # each point of C_2 q=2 lies on only 3 lines, so lambda = 4 is impossible,
    # yet the counting precondition (N = 20) is satisfied
    space = standard_polar_space("C", 2, 2)
    result = find_design(SearchProblem(space=space, t=1, k=2, lam=4))
    assert isinstance(result, SearchFailure)
    assert result.reason == "infeasible"


def test_count_spreads_matches_bruteforce():
    space = standard_polar_space("C", 2, 2)
    fast = count_spreads(space, 1, 2)
    matrix = cover_matrix(space, 1, 2)
    slow = 0
    for combo in combinations(range(15), 5):
        seen = set()
        for ci in combo:
            seen.update(matrix.column_rows[ci])
        if len(seen) == 15:
            slow += 1
    assert fast == slow > 0


def test_unknown_method_rejected():
    space = standard_polar_space("C", 2, 2)
    with pytest.raises(ValueError):
        find_design(SearchProblem(space=space, t=1, k=2, lam=1, method="magic"))


RANDOMIZED = "randomized-greedy-with-backtracking"


@pytest.mark.parametrize(
    "family,n,q,t,k,lam,method,seed,node_budget,expected",
    [
        # exact cover (lambda = 1)
        ("2A-odd", 3, 2, 1, 3, 1, "exact-cover", 0, None, ("infeasible", 3916)),
        ("B", 3, 3, 2, 3, 1, "exact-cover", 0, None, ("infeasible", 65)),
        ("C", 3, 2, 1, 3, 1, "exact-cover", 0, None,
         ("9d343258ef22658987f86910023bde3ae4e19530d4527d56fb9a22f7b8668a62", 10)),
        ("C", 3, 2, 1, 3, 1, RANDOMIZED, 7, None,
         ("6b53759030592fe087c4c57ede35eb8595784c6fa728bb704d9c6835487cb0bd", 10)),
        ("C", 3, 3, 1, 2, 1, "exact-cover", 0, 3000, ("budget", 3001)),
        # 135 options per constraint: two-byte live-option counts
        ("C", 4, 2, 1, 4, 1, "exact-cover", 0, None,
         ("8241e8849f6861128eff0ea586fe36b7b2dc969dd38c8566a946c7d718e23de4", 20)),
        ("C", 4, 2, 1, 4, 1, RANDOMIZED, 1, None,
         ("398f86d6cb526f4a42caa5503b2b819f51534eeab12261a4b1ca0bf9cf4bf120", 20)),
        # rows wide against 15 entries per option: counts updated in place
        ("D", 4, 2, 3, 4, 1, "exact-cover", 0, None,
         ("6a3ee3c4b693d46ce2c9e29f937659a78ad1e995ac8a904da476b0a5308a5516", 136)),
        ("D", 4, 2, 3, 4, 1, RANDOMIZED, 1, None,
         ("edf7ba4ecbbfc4b42d678d9be9d9d8f4e148623523544ef7c985bcca7a004eac", 136)),
        # in place with two-byte counts
        ("D", 4, 3, 1, 2, 1, "exact-cover", 0, 2000, ("budget", 2001)),
        # multiplicity cover (lambda > 1)
        ("B", 3, 2, 1, 3, 2, "exact-cover", 0, None,
         ("33ba1f3cc41e09be5ee8fcec32a5a01f6d873ebca63dfe67ef431a9a5e5df7cc", 11226)),
        ("C", 2, 2, 1, 2, 2, RANDOMIZED, 3, None,
         ("79fbb945bc514677c27fa1a4bfe959fe1a20b48c778db6f613cf57077566419a", 11)),
        ("C", 2, 2, 1, 2, 4, "exact-cover", 0, None, ("infeasible", 8)),
        ("B", 3, 3, 2, 3, 3, RANDOMIZED, 5, 2000, ("budget", 2001)),
        ("C", 3, 2, 1, 2, 3, "exact-cover", 0, 3000, ("budget", 3001)),
    ],
)
def test_search_outcomes_and_node_counts_are_pinned(
    family, n, q, t, k, lam, method, seed, node_budget, expected
):
    # pins the branching order of both solvers: the outcome (failure reason or
    # certificate digest) and the node count of each search
    space = standard_polar_space(family, n, q)
    result = find_design(
        SearchProblem(
            space=space,
            t=t,
            k=k,
            lam=lam,
            method=method,
            seed=seed,
            node_budget=node_budget or SearchProblem.node_budget,
        )
    )
    if isinstance(result, SearchFailure):
        assert (result.reason, result.nodes) == expected
    else:
        digest = hashlib.sha256(design_to_json(result).encode()).hexdigest()
        assert (digest, result.provenance["nodes"]) == expected


@pytest.mark.parametrize("family,n,q,t,k", [("C", 4, 2, 1, 4), ("B", 3, 3, 2, 3)])
def test_exact_cover_peak_memory_follows_its_column_masks(family, n, q, t, k):
    # C_4 q=2 1-(4,4,1) keeps packed rows (255 constraints, 15 per option),
    # B_3 q=3 2-(3,3,1) updates its counts in place (3,640 constraints, 13 per
    # option); beside the column masks the solver keeps only the rows of
    # options killed twice, or a bytes snapshot of the counts per frame
    matrix = cover_matrix(standard_polar_space(family, n, q), t, k)
    n_constraints, options = len(matrix.tspaces), matrix.column_rows
    mask_bytes = sum(map(sys.getsizeof, _column_masks(n_constraints, options)))
    tracemalloc.start()
    try:
        _, _, budget_hit = _exact_cover(n_constraints, options, SearchProblem.node_budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not budget_hit
    assert peak <= 4 * mask_bytes


@pytest.mark.parametrize("family,n,k,expected", [("D", 2, 2, 2), ("C", 3, 3, 960), ("D", 3, 3, 0)])
def test_count_spreads_values_are_pinned(family, n, k, expected):
    assert count_spreads(standard_polar_space(family, n, 2), 1, k) == expected


def test_search_problem_defaults_are_readable_on_the_class():
    # the CLI and the benchmark read the defaults as SearchProblem.node_budget
    problem = SearchProblem(space=standard_polar_space("C", 2, 2), t=1, k=2, lam=1)
    for name in ("method", "seed", "node_budget", "enumeration_budget"):
        assert getattr(SearchProblem, name) == getattr(problem, name)
    assert (SearchProblem.method, SearchProblem.seed) == ("exact-cover", 0)
    assert SearchProblem.node_budget == 10_000_000
    assert SearchProblem.enumeration_budget == DEFAULT_ENUMERATION_BUDGET
    argv = ["search", "--family", "C", "--q", "2", "--n", "2", "--t", "1", "--k", "2"]
    args = cli.build_parser().parse_args(argv + ["--lambda", "1"])
    assert args.node_budget == SearchProblem.node_budget
