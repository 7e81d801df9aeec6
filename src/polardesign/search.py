"""Explicit design search at desk scale on bitmasks of options: the exact
cover (Knuth's Algorithm X) for lambda = 1 and the exact multiplicity-lambda
cover for lambda > 1 share per-constraint option masks and one live mask.
The exact cover keeps only the state its picks reuse: it chooses one of two
rules for its live-option counts from the matrix's shape.  Where a packed row
of counts is narrow against an option's entries, it sums the packed rows of
the killed options, caching a row from the option's second kill; where it is
wide, it decrements the killed options' counts in place and builds no rows.

Constraints are the isotropic t-spaces, options are the isotropic k-spaces,
both in lexicographic enumeration order; given (method, seed) the search and
the emitted certificate are fully deterministic.
"""

from __future__ import annotations

import random
import sys
from array import array
from typing import NamedTuple

from .counting import polar_count, polar_count_through
from .geometry import (
    DEFAULT_ENUMERATION_BUDGET,
    PolarSpace,
    Subspace,
    _final_level,
    tspace_positions,
)
from .incidence import DesignInstance, verify_design


# the search methods, in the order the CLI lists them; see find_design
METHODS = ("exact-cover", "randomized-greedy-with-backtracking")


class DivisibilityError(ValueError):
    """The necessary counting condition fails; no search is attempted."""


class SearchProblem:
    # the defaults are class attributes, read as SearchProblem.node_budget
    method = "exact-cover"
    seed = 0
    node_budget = 10_000_000
    enumeration_budget = DEFAULT_ENUMERATION_BUDGET

    def __init__(
        self,
        space: PolarSpace,
        t: int,
        k: int,
        lam: int,
        method: str = method,
        seed: int = seed,
        node_budget: int = node_budget,
        enumeration_budget: int = enumeration_budget,
    ):
        self.space, self.t, self.k, self.lam = space, t, k, lam
        self.method, self.seed = method, seed
        self.node_budget, self.enumeration_budget = node_budget, enumeration_budget


class SearchFailure(NamedTuple):
    reason: str  # "budget" or "infeasible"
    nodes: int


class CoverMatrix(NamedTuple):
    """Sparse incidence of t-spaces (rows) against k-spaces (columns); both
    levels are canonical bytes in lexicographic order."""

    tspaces: tuple[bytes, ...]
    kspaces: tuple[bytes, ...]
    column_rows: tuple[tuple[int, ...], ...]  # per k-space: covered t-space indices


def cover_matrix(
    space: PolarSpace, t: int, k: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> CoverMatrix:
    if not 0 <= t <= k <= space.n:
        raise ValueError(f"need 0 <= t <= k <= {space.n}")
    kspaces = _final_level(space, k, budget)
    tspaces, positions = tspace_positions(space, t, kspaces, budget)
    return CoverMatrix(
        tspaces=tuple(tspaces),
        kspaces=tuple(kspaces),
        column_rows=tuple(map(tuple, map(sorted, positions))),
    )


def _column_masks(n_constraints, options):
    """Per constraint: the bitmask of the option positions covering it."""
    colmask = [0] * n_constraints
    for pos, cols in enumerate(options):
        for c in cols:
            colmask[c] |= 1 << pos
    return colmask


def _exact_cover(n_constraints, options, node_budget, count_all=False):
    """Exact cover: every constraint hit once.  ``options[pos]`` lists the
    constraints option ``pos`` covers.  Returns (solution, nodes, budget_hit):
    the solution is the chosen positions (None if there is none) or, with
    count_all, the number of exact covers.

    Branches on the first live constraint with the fewest live options and
    tries them in increasing position, as Knuth's Algorithm X (and the
    branching order of dancing links).  Live options are one int bitmask.
    Each constraint's live-option count is one field ``width`` bytes wide,
    wide enough for the largest column degree; the field's top bit marks a
    covered constraint, so a covered constraint never has the fewest.  A pick
    kills every live option sharing a constraint with it, and the counts
    follow by one of two update rules, chosen by the matrix's shape alone:

    - packed, where a row of fields is narrow against an option's entries
      (constraints * width <= 100 * entries per option): ``counts`` is one
      packed int (constraint c in bytes c*width.. of its little-endian
      bytes), updated by one big-int sum of the killed options' packed 0/1
      rows.  A row is built on every kill but cached only from the option's
      second kill, as most options die once; one bit per option marks the
      first kill.
    - in place, where a row would be wide: ``counts`` is a bytearray (a
      list for wider fields), each killed option decrements its own fields,
      and no row is built.

    Depth-first with an explicit stack, one frame per chosen option, which
    keeps live and the counts before its pick (the packed int itself, or a
    bytes snapshot); backtracking restores both from the frame it resumes."""
    colmask = _column_masks(n_constraints, options)
    degrees = [mask.bit_count() for mask in colmask]
    for typecode in "BHILQ":
        width = array(typecode).itemsize
        if max(degrees, default=0) < 1 << (8 * width - 1):
            break
    covered, n_bytes = 1 << (8 * width - 1), n_constraints * width
    # a packed row of counts is wide against the entries an option has
    in_place = n_bytes * len(options) > 100 * sum(map(len, options))
    if in_place:
        # a bytearray finds the fewest at C speed; wider fields live in a list,
        # whose items update faster than an array's, and are kept as array bytes
        if width == 1:
            counts, snapshot, restore = bytearray(degrees), bytes, bytearray
        else:
            counts = degrees

            def snapshot(counts):
                return array(typecode, counts).tobytes()

            def restore(saved):
                return array(typecode, saved).tolist()

    else:
        counts = int.from_bytes(b"".join(d.to_bytes(width, "little") for d in degrees), "little")
        rows = [0] * len(options)  # per option: its packed 0/1 row, from its second kill
        once = bytearray((len(options) + 7) // 8)  # per option: a bit set by its first kill

        def packed_row(other):
            packed = bytearray(n_bytes)
            for c in options[other]:
                packed[c * width] = 1
            row = int.from_bytes(packed, "little")
            bit = 1 << (other & 7)
            if once[other >> 3] & bit:
                rows[other] = row
            else:
                once[other >> 3] |= bit
            return row

    live = (1 << len(options)) - 1
    stack = []  # per level: (candidates left, live and counts before the pick, pick)
    nodes = count = 0
    while True:
        nodes += 1
        if nodes > node_budget:
            return (count if count_all else None), nodes, True
        fields = counts if in_place else counts.to_bytes(n_bytes, "little")
        if width == 1:
            for least in range(covered):
                best = fields.find(least)
                if best >= 0:
                    break
            else:
                least = covered
        else:
            if not in_place:
                fields = array(typecode, fields)
                if sys.byteorder == "big":
                    fields.byteswap()
            least = min(fields)
            best = fields.index(least)
        if 0 < least < covered:
            candidates = live & colmask[best]
        else:
            if least:  # every constraint is covered
                count += 1
                if not count_all:
                    return [frame[3] for frame in stack], nodes, False
            # backtrack to the deepest level with another option to try
            while stack:
                candidates, live, counts, pos = stack.pop()
                if candidates:
                    break
            else:
                return (count if count_all else None), nodes, False
            if in_place:
                counts = restore(counts)
        low = candidates & -candidates
        pos = low.bit_length() - 1
        stack.append((candidates ^ low, live, snapshot(counts) if in_place else counts, pos))
        kill = 0
        for c in options[pos]:
            kill |= colmask[c]
        kill &= live
        live ^= kill
        kill ^= low  # the pick's own constraints become covered below
        if in_place:
            while kill:
                other = kill.bit_length() - 1
                kill ^= 1 << other
                for c in options[other]:
                    counts[c] -= 1
            for c in options[pos]:
                counts[c] = covered
            continue
        killed = 0
        while kill:  # highest bit first: kill shrinks as it goes
            other = kill.bit_length() - 1
            kill ^= 1 << other
            killed += rows[other] or packed_row(other)
        # the pick is left alone on its constraints: their fields go 1 -> covered
        counts += (covered - 1) * (rows[pos] or packed_row(pos)) - killed


def _multicover(n_constraints, options, lam, node_budget):
    """Exact cover with multiplicity: every constraint hit exactly lam times.
    ``options[pos]`` lists the constraints option ``pos`` covers.  Returns
    (chosen positions or None, nodes, budget_hit).

    Branches on the least-index unsatisfied constraint and tries its live
    options in increasing position.  Live options are one int bitmask, as in
    ``_exact_cover``; ``need`` holds each constraint's remaining hits.  A pick
    kills itself and every live option through a constraint whose need
    reaches 0.  The frame keeps live with the pick killed, and the next
    sibling starts from it, so the candidates of a constraint at lower
    positions are already dead: consecutive picks for one constraint go in
    increasing position, each lam-subset is tried once and no option is
    chosen twice.  Complete and deterministic.  Depth-first with an explicit
    stack, one frame per chosen option; backtracking restores the frame's
    live and the needs."""
    colmask = _column_masks(n_constraints, options)
    need = [lam] * n_constraints
    live = (1 << len(options)) - 1
    stack = []  # per level: (constraint, candidates left, live less the pick, pick)
    nodes = active = 0
    while True:
        nodes += 1
        if nodes > node_budget:
            return None, nodes, True
        while active < n_constraints and need[active] == 0:
            active += 1
        if active == n_constraints:
            return [frame[3] for frame in stack], nodes, False
        candidates = live & colmask[active]
        while not candidates:
            # exhausted: undo the option that led here, try the next one
            if not stack:
                return None, nodes, False
            active, candidates, live, pos = stack.pop()
            for c in options[pos]:
                need[c] += 1
        low = candidates & -candidates
        pos = low.bit_length() - 1
        live ^= low
        stack.append((active, candidates ^ low, live, pos))
        for c in options[pos]:
            need[c] -= 1
            if not need[c]:
                live &= ~colmask[c]


def find_design(problem: SearchProblem):
    """A verified DesignInstance, or SearchFailure distinguishing an exhausted
    budget from exhaustive infeasibility.

    Both methods run the same exact search (exact cover for lambda = 1, the
    multiplicity cover otherwise).  "exact-cover" tries the k-spaces in
    lexicographic order; "randomized-greedy-with-backtracking" tries them in
    an order shuffled by ``seed``, so it is the same exhaustive search over
    another column order."""
    space, t, k, lam = problem.space, problem.t, problem.k, problem.lam
    if lam < 1:
        raise ValueError("lambda must be positive")
    if problem.method not in METHODS:
        raise ValueError(f"unknown method {problem.method!r}")

    # lam*|X|/N(t->k) blocks; it equals lam*|A|/[k t]_p by double counting,
    # and is at least 1 since |X| >= N(t->k)
    count_x = polar_count(space, k)
    through = polar_count_through(space, t, k)
    if lam * count_x % through:
        raise DivisibilityError(
            f"no {t}-({space.n},{k},{lam}) design can exist: block count "
            f"{lam}*{count_x}/{through} is not a positive integer"
        )

    matrix = cover_matrix(space, t, k, problem.enumeration_budget)
    n_options = len(matrix.kspaces)
    order = list(range(n_options))
    if problem.method == "randomized-greedy-with-backtracking":
        random.Random(problem.seed).shuffle(order)

    options = [matrix.column_rows[oi] for oi in order]
    if lam == 1:
        picks, nodes, budget_hit = _exact_cover(
            len(matrix.tspaces), options, problem.node_budget
        )
    else:
        picks, nodes, budget_hit = _multicover(
            len(matrix.tspaces), options, lam, problem.node_budget
        )

    if budget_hit:
        return SearchFailure(reason="budget", nodes=nodes)
    if picks is None:
        return SearchFailure(reason="infeasible", nodes=nodes)

    blocks = tuple(
        Subspace.from_bytes(data, k, space.d)
        for data in sorted(matrix.kspaces[order[pos]] for pos in picks)
    )
    instance = DesignInstance(
        family=space.family,
        q=space.q,
        n=space.n,
        t=t,
        k=k,
        lam=lam,
        blocks=blocks,
        provenance={
            "method": problem.method,
            "seed": problem.seed,
            "nodes": nodes,
        },
    )
    # report.ok includes lambda_ratio's check, which holds only for lam*|X|/N(t->k) blocks
    report = verify_design(instance, problem.enumeration_budget)
    if not report.ok:
        raise AssertionError(f"search produced an invalid design: {report}")
    return instance


def count_spreads(
    space: PolarSpace,
    t: int,
    k: int,
    node_budget: int = SearchProblem.node_budget,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int:
    """Number of exact covers (lambda = 1) in the search's column order."""
    matrix = cover_matrix(space, t, k, budget)
    count, _, budget_hit = _exact_cover(
        len(matrix.tspaces), matrix.column_rows, node_budget, count_all=True
    )
    if budget_hit:
        raise RuntimeError("node budget exhausted while counting covers")
    return count
