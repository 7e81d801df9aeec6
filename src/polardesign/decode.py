"""The (t+1)x(t+1) decoding system: matrix D, integer solution vector f,
the support-restricted functionals gamma_V, and local-decodability checks on
live polar spaces.

Row ell < t of D counts, inside a totally isotropic (k+t)-space W, the
k-subspaces through a second t-space V' meeting the fixed t-space V in a
j-dimensional subspace; row t pins f(t)*[k t]_p = m.  The system is solved
twice - integer back-substitution and independent column determinants - and
both answers must agree exactly.  The system depends on (p, t, k) alone, so
``build_decoding_system`` is memoised: it builds and cross-checks each system
once per (p, t, k) per process and returns that same frozen object after.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .counting import gaussian_binomial, fixed_intersection_count, polar_count
from .fields import prime_power_split
from .geometry import (
    DEFAULT_ENUMERATION_BUDGET,
    PolarSpace,
    Subspace,
    _final_level,
    canonical_data,
    enumerate_extensions,
    intersection_dimension,
    is_totally_isotropic,
    subspace_contains,
    subspaces_within,
    tspace_positions,
)


def _hessenberg_det(h: Sequence[Sequence[int]]) -> int:
    """Determinant of an upper Hessenberg integer matrix (h[i][j] = 0 for
    i > j + 1), by the recurrence on its leading principal minors:
    d_m = h[m-1][m-1] d_(m-1)
          + sum_(i<m) (-1)^(m-i) h[i-1][m-1] h[i][i-1] .. h[m-1][m-2] d_(i-1)."""
    minors = [1]
    for m in range(1, len(h) + 1):
        acc = h[m - 1][m - 1] * minors[m - 1]
        chain = 1  # h[i][i-1] .. h[m-1][m-2], grown as i falls
        for i in range(m - 1, 0, -1):
            chain *= h[i][i - 1]
            term = h[i - 1][m - 1] * chain * minors[i - 1]
            acc += -term if (m - i) % 2 else term
        minors.append(acc)
    return minors[-1]


def _cramer_numerators(matrix: Sequence[Sequence[int]]) -> list[int]:
    """det D_j for each column j, where D_j is the upper-triangular D with
    column j replaced by the last unit vector.  Expanding D_j along that
    column leaves D without row t and column j, which is block triangular:
    det D_j = (-1)^(t+j) D_00 .. D_(j-1)(j-1) det H_j, where H_j (rows
    j..t-1, columns j+1..t of D) is upper Hessenberg."""
    t = len(matrix) - 1
    if any(matrix[r][c] for r in range(t + 1) for c in range(r)):
        raise AssertionError("D has a nonzero entry below its diagonal")
    dets, diagonal = [], 1
    for j in range(t + 1):
        h = [row[j + 1 :] for row in matrix[j:t]]
        sign = -1 if (t + j) % 2 else 1
        dets.append(sign * diagonal * _hessenberg_det(h))
        diagonal *= matrix[j][j]
    return dets


class DecodingSystem(NamedTuple):
    """Upper-triangular system D f = (0, .., 0, m)^T with integer solution,
    where m = det D, and the closed form of ||gamma_V||_1: k-subspaces of the
    (k+t)-space W grouped by their intersection dimension with V."""

    p: int
    t: int
    k: int
    matrix: tuple[tuple[int, ...], ...]
    det_cols: tuple[int, ...]
    f: tuple[int, ...]
    m: int
    gamma_l1: int


@lru_cache(maxsize=None)
def build_decoding_system(p: int, t: int, k: int) -> DecodingSystem:
    """Assemble D from the fixed-intersection counts and solve exactly.
    Memoised per (p, t, k); invalid input raises on every call, since the
    cache stores no exception."""
    if not 1 <= t <= k:
        raise ValueError("need 1 <= t <= k (the diagonal of D must be nonzero)")
    if prime_power_split(p) is None:
        raise ValueError(f"{p} is not a prime power")
    size = t + 1
    matrix = tuple(
        tuple(fixed_intersection_count(p, k, t, ell, j) for j in range(size)) for ell in range(size)
    )

    # m = det D, the product of the diagonal; each entry is a positive count
    m = 1
    for i in range(size):
        m *= matrix[i][i]

    # integer back-substitution on D f = (0, .., 0, m)^T
    f = [0] * size
    quotient, remainder = divmod(m, matrix[t][t])
    if remainder:
        raise AssertionError("m is not divisible by the last diagonal entry")
    f[t] = quotient
    for ell in range(t - 1, -1, -1):
        acc = sum(matrix[ell][j] * f[j] for j in range(ell + 1, size))
        quotient, remainder = divmod(-acc, matrix[ell][ell])
        if remainder:
            raise AssertionError(f"non-integer solution at row {ell}")
        f[ell] = quotient

    # independent path: Cramer column determinants
    det_cols = _cramer_numerators(matrix)
    if det_cols != f:
        raise AssertionError("back-substitution and column determinants disagree")

    return DecodingSystem(
        p=p,
        t=t,
        k=k,
        matrix=matrix,
        det_cols=tuple(det_cols),
        f=tuple(f),
        m=m,
        gamma_l1=_gamma_l1(p, t, k, f),
    )


def determinant_bound(system: DecodingSystem) -> int:
    """p^(k(t+1)^2), the shared bound on |det D| and every |det D_j|."""
    return system.p ** (system.k * (system.t + 1) ** 2)


class DeterminantBoundReport(NamedTuple):
    ok: bool
    bound: int


def determinant_bound_check(system: DecodingSystem) -> DeterminantBoundReport:
    """Exact-integer comparison of |det D|, |det D_j| against the bound."""
    bound = determinant_bound(system)
    ok = system.m <= bound and all(abs(x) <= bound for x in system.det_cols)
    return DeterminantBoundReport(ok=ok, bound=bound)


def _gamma_l1(p: int, t: int, k: int, f: Sequence[int]) -> int:
    total = 0
    for j in range(t + 1):
        count = (
            p ** ((t - j) * (k - j))
            * gaussian_binomial(t, j, p)
            * gaussian_binomial(k, k - j, p)
        )
        total += abs(f[j]) * count
    return total


class LocalDecodabilityReport(NamedTuple):
    ok: bool
    m: int
    gamma_l1: int
    c4: int
    c3_bound: int
    tspace: Subspace
    wspace: Subspace
    checked: int
    violations: tuple[tuple[Subspace, int], ...]
    l1_formula_consistent: bool
    l1_coarse_bound_ok: bool


def verify_local_decodability(
    space: PolarSpace,
    t: int,
    k: int,
    tspace: Subspace | None = None,
    wspace: Subspace | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> LocalDecodabilityReport:
    """Check sum_U gamma_V(U) phi_V'(U) = m * delta_{V,V'} against every
    isotropic t-space V' of the live space, and report the exact constants."""
    if not 1 <= t <= k:
        raise ValueError("need 1 <= t <= k")
    if k + t > space.n:
        raise ValueError("needs t + k <= rank")
    system = build_decoding_system(space.p, t, k)
    level = _final_level(space, t, budget)  # budget before arguments
    if tspace is None:
        tspace = Subspace.from_bytes(level[0], t, space.d)
    if wspace is None:
        wspace = next(enumerate_extensions(space, tspace, k + t, budget))
    for name, sub, dim in (("V", tspace, t), ("W", wspace, k + t)):
        if sub.k != dim or canonical_data(space.field, sub.data, space.d) != sub.data:
            raise ValueError(f"{name} must be the canonical RREF matrix of a {dim}-space")
    if not subspace_contains(space.field, wspace, tspace):
        raise ValueError("V must be contained in W")
    if not is_totally_isotropic(space.form, wspace):
        raise ValueError("W must be totally isotropic")

    support = subspaces_within(space.field, wspace, k)
    gammas = [system.f[intersection_dimension(space.field, u, tspace)] for u in support]
    gamma_l1 = sum(abs(g) for g in gammas)

    # sum_U gamma_V(U) phi_V'(U), tallied over the t-subspaces V' of each U
    live = [(u, g) for u, g in zip(support, gammas) if g]
    level, positions = tspace_positions(space, t, [u.data for u, _ in live], budget)
    totals = [0] * len(level)
    for (_, g), found in zip(live, positions):
        for i in found:
            totals[i] += g
    violations = []
    for data, total in zip(level, totals):  # lexicographic order
        expected = system.m if data == tspace.to_bytes() else 0
        if total != expected:
            violations.append((Subspace.from_bytes(data, t, space.d), total))

    c4 = max(system.m, gamma_l1)
    c3_bound = 2 * 1 * c4 * polar_count(space, t)
    coarse_l1_bound = gaussian_binomial(k + t, k, space.p) * determinant_bound(system)
    return LocalDecodabilityReport(
        ok=not violations,
        m=system.m,
        gamma_l1=gamma_l1,
        c4=c4,
        c3_bound=c3_bound,
        tspace=tspace,
        wspace=wspace,
        checked=len(level),
        violations=tuple(violations),
        l1_formula_consistent=gamma_l1 == system.gamma_l1,
        l1_coarse_bound_ok=gamma_l1 <= coarse_l1_bound,
    )
