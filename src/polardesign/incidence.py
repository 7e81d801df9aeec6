"""The constant-row-sum condition and design certification with a canonical
JSON certificate format.

A design certificate round-trips byte-identically: keys are sorted, numbers
are plain integers, and blocks are the canonical RREF row lists in
lexicographic order.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain
from typing import Iterator, NamedTuple

from .counting import gaussian_binomial, lambda_ratio, polar_count
from .geometry import (
    DEFAULT_ENUMERATION_BUDGET,
    PolarSpace,
    Subspace,
    _final_level,
    canonical_data,
    is_totally_isotropic,
    standard_polar_space,
    tspace_positions,
)


class RowSumReport(NamedTuple):
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
    expected = gaussian_binomial(k, t, space.p)
    kspaces = _final_level(space, k, budget)
    _, positions = tspace_positions(space, t, kspaces, budget)
    # every list has one entry per RREF rep, [k t]_p of them, so [k t]_p
    # distinct positions and no None anywhere pass; otherwise the loop names
    # the first violation
    distinct = all(map(expected.__eq__, map(len, map(set, positions))))
    if distinct and None not in chain.from_iterable(positions):
        return RowSumReport(ok=True, expected=expected, checked=len(positions), violation=None)
    for checked, found in enumerate(positions):
        row_sum = len(found) - found.count(None)
        if row_sum != expected or len(set(found)) != expected:
            violation = (Subspace.from_bytes(kspaces[checked], k, space.d), row_sum)
            return RowSumReport(ok=False, expected=expected, checked=checked, violation=violation)
    return RowSumReport(ok=True, expected=expected, checked=len(positions), violation=None)


class DesignInstance:
    """A claimed t-(n,k,lambda) design: a tuple of Subspace blocks plus a
    provenance dict.  Not a tuple itself, so a search result is told apart
    from a SearchFailure; equal when all fields are."""

    def __init__(
        self, family: str, q: int, n: int, t: int, k: int, lam: int, blocks, provenance=None
    ):
        self.family, self.q, self.n, self.t, self.k, self.lam = family, q, n, t, k, lam
        self.blocks = blocks
        self.provenance = {} if provenance is None else provenance

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def space(self) -> PolarSpace:
        return standard_polar_space(self.family, self.n, self.q)


class VerifyReport(NamedTuple):
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
    t-space, ill-formed blocks by index, and the lambda_ratio cross-check.
    Raises AssertionError when the enumerated level t is not the
    closed-form count of t-spaces or misses a t-subspace of a block."""
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
            canonical = canonical_data(space.field, b.data, space.d)
        except ValueError as exc:
            errors.append((i, f"not a basis: {exc}"))
            usable = False
            continue
        if canonical != b.data:
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

    level, positions = tspace_positions(space, t, [b.data for b in instance.blocks], budget)
    counts = Counter(chain.from_iterable(positions))
    if len(level) != polar_count(space, t) or None in counts:
        raise AssertionError(f"the enumerated level {t} is not every isotropic {t}-space")
    violation = None
    for i in range(len(level)):  # lexicographic order
        count = counts[i]
        if count != instance.lam:
            violation = (Subspace.from_bytes(level[i], t, space.d), count)
            break

    ratio_consistent = lambda_ratio(space, t, k, len(instance.blocks)) == instance.lam
    ok = violation is None and not errors and ratio_consistent
    return VerifyReport(
        ok=ok,
        lam=instance.lam if violation is None else None,
        violation=violation,
        block_errors=tuple(errors),
        ratio_consistent=ratio_consistent,
    )


# The layout json.dumps(..., sort_keys=True, indent=2) gives a list of
# subspaces that is the value of a top-level key: per code c, the text
# before it at the start of a subspace's first row, at the start of a later
# row, and after another code of its row.
_FIRST_ROW = tuple(f"\n      [\n        {c}" for c in range(256))
_NEXT_ROW = tuple(f"\n      ],\n      [\n        {c}" for c in range(256))
_NEXT_CODE = tuple(f",\n        {c}" for c in range(256))
_CHUNK_CHARS = 1 << 16  # the text of a subspace list is handed out in chunks about this long


def _subspace_list_chunks(subspaces) -> Iterator[str]:
    """The row lists of the sequence ``subspaces`` as json.dumps lays out
    the value of a top-level key with sort_keys=True and indent=2, one code
    per line, in chunks of about _CHUNK_CHARS characters.  Each subspace's
    text is one ``str.join`` over its codes through the tables above, so no
    token per code is ever held."""
    if not subspaces:
        yield "[]"
        return
    getitem, layouts = tuple.__getitem__, {}
    parts, size, sep = [], 0, "["
    for s in subspaces:
        d, data = s.ambient, s.data
        if data:
            layout = layouts.get((len(data), d))
            if layout is None:
                row = (_NEXT_ROW,) + (_NEXT_CODE,) * (d - 1)
                layout = (_FIRST_ROW,) + row[1:] + row * (len(data) // d - 1)
                layouts[len(data), d] = layout
            text = f"{sep}\n    [{''.join(map(getitem, layout, data))}\n      ]\n    ]"
        else:
            text = f"{sep}\n    []"
        parts.append(text)
        size += len(text)
        if size >= _CHUNK_CHARS:
            yield "".join(parts)
            parts, size = [], 0
        sep = ","
    parts.append("\n  ]")
    yield "".join(parts)


def canonical_json_chunks(payload: dict, key: str, subspaces) -> Iterator[str]:
    """The text of ``json.dumps(doc, sort_keys=True, indent=2) + "\n"``, in
    chunks, where ``doc`` is ``payload`` with the row lists of ``subspaces``
    (see ``Subspace.to_lists``) under ``key``: the list is written directly
    in that layout, so memory follows the length of a chunk, not one string
    per code.  The other values are small and go through ``json.dumps``."""
    sep = "{\n  "
    for name in sorted({*payload, key}):
        yield f"{sep}{json.dumps(name)}: "
        if name == key:
            yield from _subspace_list_chunks(subspaces)
        else:
            yield json.dumps(payload[name], sort_keys=True, indent=2).replace("\n", "\n  ")
        sep = ",\n  "
    yield "\n}\n"


def design_to_json(instance: DesignInstance) -> str:
    """Canonical certificate text: sorted keys, two-space indent, newline."""
    fields = {
        "family": instance.family,
        "q": instance.q,
        "n": instance.n,
        "t": instance.t,
        "k": instance.k,
        "lambda": instance.lam,
        "provenance": dict(instance.provenance),
    }
    text = ""
    for chunk in canonical_json_chunks(fields, "blocks", instance.blocks):
        text += chunk  # CPython grows a string with no other reference in place
    return text


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
    the wrong type, a lambda below 1, or a block row that is not d field
    codes below p.
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
    if lam < 1:
        raise ValueError("lambda must be positive")
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
        blocks.append(Subspace.from_rows(space.d, rows))
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
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("certificate JSON nests too deeply to parse") from None
    return design_from_payload(payload)


def write_certificate(path, instance: DesignInstance) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(design_to_json(instance))


def read_certificate(path) -> DesignInstance:
    with open(path, encoding="utf-8") as handle:
        return design_from_json(handle.read())
