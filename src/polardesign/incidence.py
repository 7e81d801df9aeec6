"""Incidence indicators phi_V, the constant-row-sum condition, and design
certification with a canonical JSON certificate format.

A design certificate round-trips byte-identically: keys are sorted, numbers
are plain integers, and blocks are the canonical RREF row lists in
lexicographic order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .counting import gaussian_binomial, lambda_ratio
from .geometry import (
    DEFAULT_ENUMERATION_BUDGET,
    PolarSpace,
    Subspace,
    is_totally_isotropic,
    isotropic_kspaces,
    rref_canonicalize,
    standard_polar_space,
    subspace_contains,
    subspaces_within,
)


def phi(space: PolarSpace, tspace: Subspace, kspace: Subspace) -> int:
    """Indicator of V <= U, decided by exact rank arithmetic."""
    return 1 if subspace_contains(space.field, kspace, tspace) else 0


@dataclass(frozen=True)
class RowSumReport:
    ok: bool
    expected: int
    checked: int
    violation: tuple[Subspace, int] | None


def constant_row_sum_check(
    space: PolarSpace, t: int, k: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> RowSumReport:
    """Condition (C1): every isotropic k-space U contains exactly [k t]_p
    isotropic t-spaces, all of which appear in the enumerated ground set.

    Equivalent to sum_V phi_V(U) = [k t]_p for every U, since the t-spaces
    inside U are exactly the t-subspaces of U (subspaces of a totally
    isotropic space are totally isotropic).
    """
    if not 0 <= t <= k <= space.n:
        raise ValueError(f"need 0 <= t <= k <= {space.n}")
    ground = set(isotropic_kspaces(space, t, budget))
    expected = gaussian_binomial(k, t, space.p)
    checked = 0
    for u in isotropic_kspaces(space, k, budget):
        subs = subspaces_within(space.field, u, t)
        row_sum = sum(1 for s in subs if s in ground)
        if len(set(subs)) != expected or row_sum != expected:
            return RowSumReport(
                ok=False, expected=expected, checked=checked, violation=(u, row_sum)
            )
        checked += 1
    return RowSumReport(ok=True, expected=expected, checked=checked, violation=None)


@dataclass(frozen=True)
class DesignInstance:
    """A claimed t-(n,k,lambda) design: blocks plus provenance metadata."""

    family: str
    q: int
    n: int
    t: int
    k: int
    lam: int
    blocks: tuple[Subspace, ...]
    provenance: dict = field(default_factory=dict)

    def space(self) -> PolarSpace:
        return standard_polar_space(self.family, self.n, self.q)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    lam: int | None
    violation: tuple[Subspace, int] | None
    block_errors: tuple[tuple[int, str], ...]
    ratio_consistent: bool


def verify_design(
    instance: DesignInstance, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> VerifyReport:
    """Certify the claimed lambda by counting, for every isotropic t-space,
    the blocks containing it.  Reports the lexicographically least failing
    t-space, ill-formed blocks by index, and the lambda_ratio cross-check."""
    space = instance.space()
    t, k = instance.t, instance.k
    errors: list[tuple[int, str]] = []
    seen: dict[Subspace, int] = {}
    usable = True
    for i, b in enumerate(instance.blocks):
        if b.ambient != space.d or b.k != k:
            errors.append((i, f"block shape {b.k}x{b.ambient}, want {k}x{space.d}"))
            usable = False
            continue
        try:
            canonical = rref_canonicalize(space.field, b.rows, space.d)
        except ValueError as exc:
            errors.append((i, f"not a basis: {exc}"))
            usable = False
            continue
        if canonical != b:
            errors.append((i, "rows are not in canonical reduced echelon form"))
            usable = False
            continue
        if not is_totally_isotropic(space.form, b):
            errors.append((i, "block is not totally isotropic"))
            usable = False
            continue
        if b in seen:
            errors.append((i, f"duplicate of block {seen[b]}"))
        else:
            seen[b] = i
    if not usable:
        return VerifyReport(
            ok=False,
            lam=None,
            violation=None,
            block_errors=tuple(errors),
            ratio_consistent=False,
        )

    ground = isotropic_kspaces(space, t, budget)
    counts = {v: 0 for v in ground}
    for b in instance.blocks:
        for sub in subspaces_within(space.field, b, t):
            counts[sub] += 1

    violation = None
    for v in ground:  # lexicographic order
        if counts[v] != instance.lam:
            violation = (v, counts[v])
            break

    ratio = lambda_ratio(space, t, k, len(instance.blocks))
    ratio_consistent = (
        ratio.value.denominator == 1 and ratio.value.numerator == instance.lam
    )
    ok = violation is None and not errors and ratio_consistent
    return VerifyReport(
        ok=ok,
        lam=instance.lam if violation is None else None,
        violation=violation,
        block_errors=tuple(errors),
        ratio_consistent=ratio_consistent,
    )


def design_to_payload(instance: DesignInstance) -> dict:
    return {
        "family": instance.family,
        "q": instance.q,
        "n": instance.n,
        "t": instance.t,
        "k": instance.k,
        "lambda": instance.lam,
        "blocks": [b.to_lists() for b in instance.blocks],
        "provenance": dict(instance.provenance),
    }


def design_to_json(instance: DesignInstance) -> str:
    """Canonical certificate text: sorted keys, two-space indent, newline."""
    return json.dumps(design_to_payload(instance), sort_keys=True, indent=2) + "\n"


def _certificate_int(payload: dict, key: str) -> int:
    value = payload[key]
    if type(value) is not int:
        raise ValueError(f"certificate {key!r} must be an integer, not {type(value).__name__}")
    return value


def _is_vector(row, space: PolarSpace) -> bool:
    return (
        isinstance(row, list)
        and len(row) == space.d
        and all(type(x) is int and 0 <= x < space.p for x in row)
    )


def design_from_payload(payload) -> DesignInstance:
    """The design a parsed certificate claims.  Malformed input raises
    ValueError: a payload that is not an object, a missing key, a value of
    the wrong type, or a block row that is not d field codes below p.
    Whether the blocks form the claimed design is for ``verify_design``."""
    if not isinstance(payload, dict):
        raise ValueError("certificate must be a JSON object")
    required = {"family", "q", "n", "t", "k", "lambda", "blocks"}
    missing = required - payload.keys()
    if missing:
        raise ValueError(f"certificate missing keys {sorted(missing)}")
    family = payload["family"]
    if not isinstance(family, str):
        raise ValueError("certificate 'family' must be a string")
    q, n, t, k, lam = (_certificate_int(payload, key) for key in ("q", "n", "t", "k", "lambda"))
    provenance = payload.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ValueError("certificate 'provenance' must be an object")
    if not isinstance(payload["blocks"], list):
        raise ValueError("certificate 'blocks' must be a list of blocks")
    space = standard_polar_space(family, n, q)
    blocks = []
    for i, rows in enumerate(payload["blocks"]):
        if not isinstance(rows, list) or not all(_is_vector(row, space) for row in rows):
            raise ValueError(
                f"block {i} must be a list of rows of {space.d} field codes below {space.p}"
            )
        blocks.append(Subspace(ambient=space.d, rows=tuple(tuple(row) for row in rows)))
    return DesignInstance(
        family=family,
        q=q,
        n=n,
        t=t,
        k=k,
        lam=lam,
        blocks=tuple(blocks),
        provenance=dict(provenance),
    )


def design_from_json(text: str) -> DesignInstance:
    return design_from_payload(json.loads(text))


def write_certificate(path, instance: DesignInstance) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(design_to_json(instance))


def read_certificate(path) -> DesignInstance:
    with open(path, encoding="utf-8") as handle:
        return design_from_json(handle.read())
