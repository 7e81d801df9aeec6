"""Every constant in the probabilistic existence bound chain, as exact
integers, plus the headline feasibility report.

The unspecified universal constants (C in the existence theorem, c' in the
relaxed threshold) are user parameters defaulting to 1; the log^6 factor is
evaluated with an integer ceil(log2) so the whole pipeline stays float-free.
The divisibility constant is reported as the upper witness m*|A|, not the
true minimum.  ``klp_budget`` returns the chain as one dict, which
``feasibility_report`` extends with the block count and lambda.

Reports share their big powers of p through two small memos: p^(2nt) and
the cap p^(21nt) per (p, n, t); m, gamma_l1, c4, p^(kt), p^(k(t+1)^2) and
m*[k t]_p per (p, t, k).  |A| and |X| come from the count memo of
``counting``.  The block count is the least multiple j*m*|A| of that
witness at or above the threshold.  Double counting gives
|A| * N(t->k) = |X| * [k t]_p, where N(t->k) counts the k-spaces through
one t-space, so lambda at that count is j*m*|A| * N(t->k) / |X| =
j*m*[k t]_p: an integer by construction.  The report's
``lambda_is_integer`` flag is therefore always true; it keeps its name and
value because the layerbench digests cover it, as they do the flag
``c1_witness<=|detD||A|``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .counting import decimal_string, gaussian_binomial, polar_count_through_expr
from .decode import build_decoding_system
from .geometry import PolarSpace


def ceil_log2(x: int) -> int:
    """Smallest L with 2^L >= x, for x >= 1."""
    if x < 1:
        raise ValueError("x must be positive")
    return (x - 1).bit_length()


def klp_budget(
    space: PolarSpace,
    t: int,
    k: int,
    constant: Fraction | int = 1,
    c_prime: Fraction | int = 1,
) -> dict:
    """Exact witnesses and coarse closed-form caps for c1..c4, |A|, dim L
    and |X| at one (space, t, k), as the dict that ``feasibility_report``
    extends.  Inequality outcomes are recorded as flags in the
    ``inequalities`` dict rather than asserted, so reports exist even where
    a coarse bound fails.

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
    return _budget_fields(space, t, k, _exact(constant), _exact(c_prime))


def _exact(value) -> Fraction | int:
    """An int as it is, since it has ``numerator`` and ``denominator``
    already; anything else (a bool too) through ``Fraction``."""
    return value if type(value) is int else Fraction(value)


@lru_cache(maxsize=32)
def _rank_powers(p: int, n: int, t: int) -> tuple[int, int]:
    """p^(2nt) and the cap p^(21nt).  A sweep over n for each k rereads a
    (p, n, t) after one pass over the ranks, 22 in layerbench's sweep; 32
    entries cover that and bound the memory at large n."""
    return p ** (2 * n * t), p ** (21 * n * t)


@lru_cache(maxsize=32)
def _order_terms(p: int, t: int, k: int) -> tuple[int, ...]:
    """m, gamma_l1, c4, p^(kt), p^(k(t+1)^2) and m*[k t]_p at (p, t, k)."""
    system = build_decoding_system(p, t, k)
    m, gamma = system.m, system.gamma_l1
    m_kt = m * gaussian_binomial(k, t, p)
    return m, gamma, max(m, gamma), p ** (k * t), p ** (k * (t + 1) ** 2), m_kt


def _budget_fields(
    space: PolarSpace, t: int, k: int, constant: Fraction | int, c_prime: Fraction | int
) -> dict:
    """The body of ``klp_budget``, for constants already made exact."""
    # an int or Fraction keeps its sign in the numerator
    if constant.numerator <= 0 or c_prime.numerator <= 0:
        raise ValueError("the universal constants must be positive")
    if not 1 <= t <= k:
        raise ValueError("need 1 <= t <= k")
    if t + k > space.n:
        raise ValueError("needs t + k <= rank")
    n, p = space.n, space.p

    m, gamma_l1, c4, p_kt, p_det, _ = _order_terms(p, t, k)
    p_2nt, cap = _rank_powers(p, n, t)
    count_a = polar_count_through_expr(space, 0, t).value
    count_x = polar_count_through_expr(space, 0, k).value

    # the coarse caps are products of the shared powers
    c1_witness = m * count_a
    c1_coarse = 10 * p_2nt * p_det
    c4_coarse = 4 * p_kt * p_det
    c3 = 2 * 1 * c4 * count_a
    c3_coarse = 80 * p_2nt * p_kt * p_det
    a_coarse = 10 * p_2nt
    x_lower = p ** (2 * n * k - (3 * k * k + 1) // 2)

    dim_l = count_a
    c3_dim_l = c3 * dim_l
    log_term = ceil_log2(2 * c3_dim_l)
    # c3^2 dim_L^6, shared by both thresholds
    shared = (c3_dim_l * dim_l * dim_l) ** 2
    # ceil(C * X) for C = a/b is -((-a * X) // b), all in integers
    n_threshold = -((-constant.numerator * shared * log_term**6) // constant.denominator)
    relaxed = -((-c_prime.numerator * shared * c3_dim_l) // c_prime.denominator)

    return {
        "family": space.family,
        "n": n,
        "q": space.q,
        "p": p,
        "t": t,
        "k": k,
        "m": m,
        "gamma_l1": gamma_l1,
        "c1_upper_witness": c1_witness,
        "c1_coarse_bound": c1_coarse,
        "c2": 1,
        "c3_from_c4": c3,
        "c3_coarse_bound": c3_coarse,
        "c4_exact": c4,
        "c4_coarse_bound": c4_coarse,
        "count_tspaces": count_a,
        "count_tspaces_coarse_bound": a_coarse,
        "dim_l_bound": dim_l,
        "count_kspaces": count_x,
        "count_kspaces_lower_bound": x_lower,
        "log_term": log_term,
        "n_threshold": n_threshold,
        "relaxed_threshold": relaxed,
        "theorem_cap_p_21nt": cap,
        "inequalities": {
            "c1_witness<=10p^(2nt+k(t+1)^2)": c1_witness <= c1_coarse,
            "c4<=4p^(kt+k(t+1)^2)": c4 <= c4_coarse,
            "2c2c4A<=80p^(2nt+kt+k(t+1)^2)": c3 <= c3_coarse,
            "A<=10p^(2nt)": count_a <= a_coarse,
            "X>=p^(2nk-ceil(3k^2/2))": count_x >= x_lower,
            "c1_witness<=|detD||A|": c1_witness <= m * count_a,
        },
    }


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

    ``lambda_at_n`` is j*m*[k t]_p for the block count j*m*|A|, an integer
    by construction, so ``lambda_is_integer`` is always true (see the module
    docstring).
    """
    constant, c_prime = _exact(constant), _exact(c_prime)
    report = _budget_fields(space, t, k, constant, c_prime)
    # n_blocks = j m |A|, the least multiple of c1_upper_witness at or above
    # the threshold, so lambda = n_blocks N(t->k) / |X| = n_blocks [k t]_p / |A|
    # (double counting) = j m [k t]_p
    c1w = report["c1_upper_witness"]
    j = -(-report["n_threshold"] // c1w)
    n_blocks = j * c1w
    report |= {
        "constant_C": decimal_string(constant),
        "constant_c_prime": decimal_string(c_prime),
        "k_exceeds_21t_over_2": 2 * k > 21 * t,
        "smallest_feasible_multiple": n_blocks,
        "n_fits_within_x": n_blocks <= report["count_kspaces"] - report["n_threshold"],
        "n_within_theorem_cap": n_blocks <= report["theorem_cap_p_21nt"],
        "lambda_at_n": decimal_string(j * _order_terms(space.p, t, k)[-1]),
        "lambda_is_integer": True,
        "assumptions": {
            "symmetry_c2": "isometry group transitivity (classical), not computed",
            "c1": "upper witness m*|A|, not the minimal divisibility constant",
        },
    }
    return report
