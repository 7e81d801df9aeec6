"""Every constant in the probabilistic existence bound chain, as exact
integers, plus the headline feasibility report.

The unspecified universal constants (C in the existence theorem, c' in the
relaxed threshold) are user parameters defaulting to 1; the log^6 factor is
evaluated with an integer ceil(log2) so the whole pipeline stays float-free.
The divisibility constant is reported as the upper witness m*|A|, not the
true minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .counting import decimal_string, lambda_ratio, polar_count
from .decode import build_decoding_system, gamma_l1_exact
from .geometry import PolarSpace


def ceil_log2(x: int) -> int:
    """Smallest L with 2^L >= x, for x >= 1."""
    if x < 1:
        raise ValueError("x must be positive")
    return (x - 1).bit_length()


@dataclass(frozen=True)
class KlpBudget:
    """Exact witnesses and coarse closed-form caps for c1..c4, |A|, dim L
    and |X|.

    ``count_kspaces_lower_bound`` is the closed form p^(2nk - ceil(3k^2/2)).
    It is derived from |X| >= p^(2nk - (3k^2-k)/2 + ke) and is valid for
    polar parameter e >= -1/2 (``twice_e >= -1``), i.e. every family except
    the hyperbolic one (e = -1, where that derivation gives only
    p^(2nk - k(3k+1)/2)).  Its flag ``X>=p^(2nk-ceil(3k^2/2))`` compares
    ``count_kspaces`` against it, so on the hyperbolic family it can be
    False.

    The flag ``c1_witness<=|detD||A|`` holds by definition: c1 is reported
    as its upper witness m*|A|, not the least divisibility constant, so the
    flag compares that witness with itself.  It stays until the least c1 is
    computed (a separate ``lattice`` computation, planned); its name and
    value are unchanged, because the layerbench digests cover them."""

    family: str
    n: int
    q: int
    p: int
    t: int
    k: int
    m: int
    gamma_l1: int
    c1_upper_witness: int
    c1_coarse_bound: int
    c2: int
    c3_from_c4: int
    c3_coarse_bound: int
    c4_exact: int
    c4_coarse_bound: int
    count_tspaces: int
    count_tspaces_coarse_bound: int
    dim_l_bound: int
    count_kspaces: int
    count_kspaces_lower_bound: int
    log_term: int
    n_threshold: int
    relaxed_threshold: int
    theorem_cap_p_21nt: int
    inequalities: tuple[tuple[str, bool], ...]


def klp_budget(
    space: PolarSpace,
    t: int,
    k: int,
    constant: Fraction | int = 1,
    c_prime: Fraction | int = 1,
) -> KlpBudget:
    """Assemble the budget for one (space, t, k); inequality outcomes are
    recorded as flags rather than asserted, so reports exist even where a
    coarse bound fails.  The |X| lower bound and its flag are the closed
    form valid for e >= -1/2 (see KlpBudget); on the hyperbolic family
    (e = -1) the flag can be False."""
    constant = Fraction(constant)
    c_prime = Fraction(c_prime)
    if constant <= 0 or c_prime <= 0:
        raise ValueError("the universal constants must be positive")
    if not 1 <= t <= k:
        raise ValueError("need 1 <= t <= k")
    if t + k > space.n:
        raise ValueError("needs t + k <= rank")
    n, p = space.n, space.p

    system = build_decoding_system(p, t, k)
    m = system.m
    gamma_l1 = gamma_l1_exact(system)
    c4 = max(m, gamma_l1)
    count_a = polar_count(space, t)
    count_x = polar_count(space, k)

    c1_witness = m * count_a
    c1_coarse = 10 * p ** (2 * n * t + k * (t + 1) ** 2)
    c4_coarse = 4 * p ** (k * t + k * (t + 1) ** 2)
    c3 = 2 * 1 * c4 * count_a
    c3_coarse = 80 * p ** (2 * n * t + k * t + k * (t + 1) ** 2)
    a_coarse = 10 * p ** (2 * n * t)
    x_lower = p ** (2 * n * k - (3 * k * k + 1) // 2)

    dim_l = count_a
    log_term = ceil_log2(2 * c3 * dim_l)
    # ceil(C * X) for C = a/b is -((-a * X) // b), all in integers
    n_threshold = -((-constant.numerator * c3**2 * dim_l**6 * log_term**6) // constant.denominator)
    relaxed = -((-c_prime.numerator * c3**3 * dim_l**7) // c_prime.denominator)
    cap = p ** (21 * n * t)

    inequalities = (
        ("c1_witness<=10p^(2nt+k(t+1)^2)", c1_witness <= c1_coarse),
        ("c4<=4p^(kt+k(t+1)^2)", c4 <= c4_coarse),
        ("2c2c4A<=80p^(2nt+kt+k(t+1)^2)", c3 <= c3_coarse),
        ("A<=10p^(2nt)", count_a <= a_coarse),
        ("X>=p^(2nk-ceil(3k^2/2))", count_x >= x_lower),
        ("c1_witness<=|detD||A|", c1_witness <= m * count_a),
    )
    return KlpBudget(
        family=space.family,
        n=n,
        q=space.q,
        p=p,
        t=t,
        k=k,
        m=m,
        gamma_l1=gamma_l1,
        c1_upper_witness=c1_witness,
        c1_coarse_bound=c1_coarse,
        c2=1,
        c3_from_c4=c3,
        c3_coarse_bound=c3_coarse,
        c4_exact=c4,
        c4_coarse_bound=c4_coarse,
        count_tspaces=count_a,
        count_tspaces_coarse_bound=a_coarse,
        dim_l_bound=dim_l,
        count_kspaces=count_x,
        count_kspaces_lower_bound=x_lower,
        log_term=log_term,
        n_threshold=n_threshold,
        relaxed_threshold=relaxed,
        theorem_cap_p_21nt=cap,
        inequalities=inequalities,
    )


def feasibility_report(
    space: PolarSpace,
    t: int,
    k: int,
    constant: Fraction | int = 1,
    c_prime: Fraction | int = 1,
) -> dict:
    """What the existence theorem guarantees at these parameters - purely
    descriptive, no design is constructed.

    The symmetry condition (C2) is an assumption here: the isometry group
    acts transitively on the k-spaces (classical), and the artifact does not
    compute orbits.
    """
    budget = klp_budget(space, t, k, constant, c_prime)
    c1w = budget.c1_upper_witness
    n_blocks = -(-budget.n_threshold // c1w) * c1w
    lam = lambda_ratio(space, t, k, n_blocks)
    return {
        **vars(budget),
        "constant_C": decimal_string(Fraction(constant)),
        "constant_c_prime": decimal_string(Fraction(c_prime)),
        "k_exceeds_21t_over_2": 2 * k > 21 * t,
        "smallest_feasible_multiple": n_blocks,
        "n_fits_within_x": n_blocks <= budget.count_kspaces - budget.n_threshold,
        "n_within_theorem_cap": n_blocks <= budget.theorem_cap_p_21nt,
        "lambda_at_n": decimal_string(lam),
        "lambda_is_integer": lam.denominator == 1,
        "inequalities": dict(budget.inequalities),
        "assumptions": {
            "symmetry_c2": "isometry group transitivity (classical), not computed",
            "c1": "upper witness m*|A|, not the minimal divisibility constant",
        },
    }
