"""Property tests of the two search solvers against brute force on random
0/1 option matrices (at most 10 options over at most 8 constraints), and of
each solver against its reference in tests/oracles.py, also on matrices
where one constraint has 128 to 300 options and, for the exact cover, on
tall matrices of 101 to 400 constraints with 1 to 3 per option."""

import random
from collections import Counter
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_exact_cover, reference_multicover

from polardesign.search import _exact_cover, _multicover

NO_BUDGET = 10**9


@st.composite
def option_matrices(draw):
    """(n_constraints, options): each option covers a nonempty set of
    constraints, as every k-space contains at least one t-space."""
    n_constraints = draw(st.integers(min_value=1, max_value=8))
    option = st.sets(st.integers(0, n_constraints - 1), min_size=1).map(sorted).map(tuple)
    return n_constraints, draw(st.lists(option, max_size=10))


@st.composite
def wide_option_matrices(draw):
    """(n_constraints, options) where constraint 0 has 128 to 300 options, too
    many for a one-byte live-option count; a few options miss constraint 0.
    The rows come from a seeded ``random.Random``: a handful of drawn values,
    so a failing example shrinks in seconds."""
    n_constraints = draw(st.integers(min_value=2, max_value=8))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.sampled_from((0.1, 0.3, 0.6)))
    hub = draw(st.integers(min_value=128, max_value=300))
    options = [
        (0, *(c for c in range(1, n_constraints) if rnd.random() < density)) for _ in range(hub)
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        cols = [c for c in range(1, n_constraints) if rnd.random() < density]
        options.append(tuple(cols or [rnd.randrange(1, n_constraints)]))
    rnd.shuffle(options)
    return n_constraints, options


@st.composite
def tall_option_matrices(draw):
    """(n_constraints, options) with 101 to 400 constraints and 1 to 3
    constraints per option, fewer than one per hundred constraints, so a
    packed row of counts would be wide and the exact cover updates its counts
    in place.  A planted exact cover (a partition of the constraints), less one
    of its options in half the matrices, and random options, shuffled; in
    half the matrices constraint 0 is in 128 to 300 more options, so its
    count takes two bytes.  The rows come from a seeded
    ``random.Random``, as in ``wide_option_matrices``."""
    n_constraints = draw(st.integers(min_value=101, max_value=400))
    per_option = min(3, (n_constraints - 1) // 100)
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def option(first=()):
        rest = rnd.sample(range(len(first), n_constraints), rnd.randint(1, per_option) - len(first))
        return tuple(sorted((*first, *rest)))

    left = list(range(n_constraints))
    rnd.shuffle(left)
    options = []
    while left:
        size = rnd.randint(1, per_option)
        options.append(tuple(sorted(left[:size])))
        del left[:size]
    if draw(st.booleans()):
        options.pop()  # then the matrix may have no exact cover
    options += [option() for _ in range(draw(st.integers(min_value=0, max_value=n_constraints // 4)))]
    if draw(st.booleans()):
        options += [option((0,)) for _ in range(draw(st.integers(min_value=128, max_value=300)))]
    rnd.shuffle(options)
    return n_constraints, options


def covers(n_constraints, options, picks, lam):
    hits = Counter(c for pos in picks for c in options[pos])
    return all(hits[c] == lam for c in range(n_constraints))


def brute_force(n_constraints, options, lam):
    """Every set of distinct options hitting each constraint exactly lam times."""
    return [
        picks
        for r in range(len(options) + 1)
        for picks in combinations(range(len(options)), r)
        if covers(n_constraints, options, picks, lam)
    ]


@settings(derandomize=True, deadline=None)
@given(option_matrices())
def test_exact_cover_count_matches_brute_force(matrix):
    n_constraints, options = matrix
    count, _, budget_hit = _exact_cover(n_constraints, options, NO_BUDGET, count_all=True)
    assert not budget_hit
    assert count == len(brute_force(n_constraints, options, 1))


@settings(derandomize=True, deadline=None)
@given(option_matrices())
def test_exact_cover_finds_a_cover_exactly_when_one_exists(matrix):
    n_constraints, options = matrix
    picks, _, budget_hit = _exact_cover(n_constraints, options, NO_BUDGET)
    assert not budget_hit
    if brute_force(n_constraints, options, 1):
        assert picks is not None
        assert len(set(picks)) == len(picks)
        assert covers(n_constraints, options, picks, 1)
    else:
        assert picks is None


@settings(derandomize=True, deadline=None)
@given(option_matrices(), st.sampled_from((2, 3)))
def test_multicover_finds_a_design_exactly_when_one_exists(matrix, lam):
    n_constraints, options = matrix
    picks, _, budget_hit = _multicover(n_constraints, options, lam, NO_BUDGET)
    assert not budget_hit
    if brute_force(n_constraints, options, lam):
        assert picks is not None
        assert len(set(picks)) == len(picks)  # no block reuse
        assert covers(n_constraints, options, picks, lam)
    else:
        assert picks is None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.one_of(option_matrices(), wide_option_matrices(), tall_option_matrices()),
    st.integers(min_value=1, max_value=2000),
    st.booleans(),
)
def test_exact_cover_matches_the_reference_solver(matrix, node_budget, count_all):
    # same solution or count, same node count, same budget verdict
    n_constraints, options = matrix
    assert _exact_cover(n_constraints, options, node_budget, count_all) == (
        reference_exact_cover(n_constraints, options, node_budget, count_all)
    )


@settings(derandomize=True, deadline=None)
@given(
    st.one_of(option_matrices(), wide_option_matrices()),
    st.sampled_from((2, 3, 4)),
    st.integers(min_value=1, max_value=400),
)
def test_multicover_matches_the_reference_solver(matrix, lam, node_budget):
    # same picks, same node count, same budget verdict
    n_constraints, options = matrix
    assert _multicover(n_constraints, options, lam, node_budget) == (
        reference_multicover(n_constraints, options, lam, node_budget)
    )
