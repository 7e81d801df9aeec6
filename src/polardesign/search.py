"""Explicit design search at desk scale: dancing-links exact cover for
lambda = 1, and an exact multiplicity-lambda cover for lambda > 1.

Constraints are the isotropic t-spaces, options are the isotropic k-spaces,
both in lexicographic enumeration order; given (method, seed) the search and
the emitted certificate are fully deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .counting import gaussian_binomial, polar_count, polar_count_through
from .geometry import (
    DEFAULT_ENUMERATION_BUDGET,
    PolarSpace,
    Subspace,
    isotropic_kspaces,
    subspaces_within,
)
from .incidence import DesignInstance, verify_design


class DivisibilityError(ValueError):
    """The necessary counting condition fails; no search is attempted."""


@dataclass(frozen=True)
class SearchProblem:
    space: PolarSpace
    t: int
    k: int
    lam: int
    method: str = "exact-cover"
    seed: int = 0
    node_budget: int = 10_000_000
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET


@dataclass(frozen=True)
class SearchFailure:
    reason: str  # "budget" or "infeasible"
    nodes: int


@dataclass(frozen=True)
class CoverMatrix:
    """Sparse incidence of t-spaces (rows) against k-spaces (columns)."""

    tspaces: tuple[Subspace, ...]
    kspaces: tuple[Subspace, ...]
    column_rows: tuple[tuple[int, ...], ...]  # per k-space: covered t-space indices
    row_columns: tuple[tuple[int, ...], ...]  # per t-space: covering k-space indices


def cover_matrix(
    space: PolarSpace, t: int, k: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> CoverMatrix:
    if not 0 <= t <= k <= space.n:
        raise ValueError(f"need 0 <= t <= k <= {space.n}")
    tspaces = tuple(isotropic_kspaces(space, t, budget))
    kspaces = tuple(isotropic_kspaces(space, k, budget))
    index = {v: i for i, v in enumerate(tspaces)}
    column_rows = []
    row_columns = [[] for _ in tspaces]
    for ci, u in enumerate(kspaces):
        rows = sorted(index[s] for s in subspaces_within(space.field, u, t))
        column_rows.append(tuple(rows))
        for ri in rows:
            row_columns[ri].append(ci)
    return CoverMatrix(
        tspaces=tspaces,
        kspaces=kspaces,
        column_rows=tuple(column_rows),
        row_columns=tuple(tuple(c) for c in row_columns),
    )


class _Dlx:
    """Knuth's dancing links over the transposed cover matrix: DLX columns
    are t-spaces, DLX rows are candidate blocks."""

    def __init__(self, n_constraints: int, options):
        n_nodes = n_constraints + 1
        for cols in options:
            n_nodes += len(cols)
        self.left = [0] * n_nodes
        self.right = [0] * n_nodes
        self.up = [0] * n_nodes
        self.down = [0] * n_nodes
        self.col = [0] * n_nodes
        self.option = [-1] * n_nodes
        self.size = [0] * (n_constraints + 1)
        head = 0
        for c in range(n_constraints + 1):
            self.left[c] = (c - 1) % (n_constraints + 1)
            self.right[c] = (c + 1) % (n_constraints + 1)
            self.up[c] = c
            self.down[c] = c
            self.col[c] = c
        node = n_constraints + 1
        for oi, cols in enumerate(options):
            first = None
            for c in cols:
                header = c + 1
                self.up[node] = self.up[header]
                self.down[node] = header
                self.down[self.up[header]] = node
                self.up[header] = node
                self.col[node] = header
                self.option[node] = oi
                self.size[header] += 1
                if first is None:
                    first = node
                    self.left[node] = node
                    self.right[node] = node
                else:
                    self.left[node] = self.left[first]
                    self.right[node] = first
                    self.right[self.left[first]] = node
                    self.left[first] = node
                node += 1
        self.head = head
        self.nodes_visited = 0

    def _cover(self, header):
        left, right, up, down, col, size = (
            self.left,
            self.right,
            self.up,
            self.down,
            self.col,
            self.size,
        )
        right[left[header]] = right[header]
        left[right[header]] = left[header]
        r = down[header]
        while r != header:
            n = right[r]
            while n != r:
                down[up[n]] = down[n]
                up[down[n]] = up[n]
                size[col[n]] -= 1
                n = right[n]
            r = down[r]

    def _uncover(self, header):
        left, right, up, down, col, size = (
            self.left,
            self.right,
            self.up,
            self.down,
            self.col,
            self.size,
        )
        r = up[header]
        while r != header:
            n = left[r]
            while n != r:
                size[col[n]] += 1
                down[up[n]] = n
                up[down[n]] = n
                n = left[n]
            r = up[r]
        right[left[header]] = header
        left[right[header]] = header

    def solve(self, node_budget: int, count_all: bool = False):
        """First solution (list of option ids) or, with count_all, the number
        of exact covers.  Returns (solution|count, exhausted_flag).

        Depth-first with an explicit stack of (column, row) choices, so the
        depth is bounded by memory, not by the interpreter's recursion limit."""
        left, right, down, col, option, size = (
            self.left,
            self.right,
            self.down,
            self.col,
            self.option,
            self.size,
        )
        head = self.head
        stack: list[tuple[int, int]] = []  # per level: (column covered, row chosen)
        count = 0
        while True:
            self.nodes_visited += 1
            if self.nodes_visited > node_budget:
                return (count if count_all else None), True
            best = -1  # the column to branch on; -1 to backtrack
            if right[head] == head:
                count += 1
                if not count_all:
                    return [option[r] for _, r in stack], False
            else:
                best_size = None
                c = right[head]
                while c != head:
                    if best_size is None or size[c] < best_size:
                        best, best_size = c, size[c]
                    c = right[c]
                if best_size == 0:
                    best = -1
            if best >= 0:
                self._cover(best)
                r = down[best]
            else:
                # backtrack to the deepest level with another row to try
                while stack:
                    best, r = stack.pop()
                    n = left[r]
                    while n != r:
                        self._uncover(col[n])
                        n = left[n]
                    r = down[r]
                    if r != best:
                        break
                    self._uncover(best)
                else:
                    return (count if count_all else None), False
            stack.append((best, r))
            n = right[r]
            while n != r:
                self._cover(col[n])
                n = right[n]


def _multicover_first(n_constraints, option_cols, lam, order, node_budget):
    """Exact cover with multiplicity: every constraint hit exactly lam times.

    Branches on the least-index unsatisfied constraint; consecutive picks for
    the same constraint are forced into increasing option order, so each
    lam-subset is tried once.  Complete and deterministic.  Depth-first with
    an explicit stack, one frame per chosen option."""
    need = [lam] * n_constraints
    per_constraint: list[list[int]] = [[] for _ in range(n_constraints)]
    for pos, oi in enumerate(order):
        for c in option_cols[oi]:
            per_constraint[c].append(pos)
    used = [False] * len(order)
    picked: list[int] = []  # positions in ``order`` of the options chosen so far
    stack = []  # per level: (constraint, least position allowed, candidates left)
    nodes = 0
    active = min_pos = 0
    while True:
        nodes += 1
        if nodes > node_budget:
            return None, nodes, True
        while active < n_constraints and need[active] == 0:
            active += 1
            min_pos = 0
        if active == n_constraints:
            return [order[pos] for pos in picked], nodes, False
        stack.append((active, min_pos, iter(per_constraint[active])))
        while stack:
            active, min_pos, candidates = stack[-1]
            for pos in candidates:
                if pos < min_pos or used[pos]:
                    continue
                cols = option_cols[order[pos]]
                if any(need[c] == 0 for c in cols):
                    continue
                for c in cols:
                    need[c] -= 1
                used[pos] = True
                picked.append(pos)
                min_pos = pos + 1 if need[active] > 0 else 0
                break
            else:
                # exhausted: undo the option that led here, try the next one
                stack.pop()
                if picked:
                    pos = picked.pop()
                    used[pos] = False
                    for c in option_cols[order[pos]]:
                        need[c] += 1
                continue
            break
        else:
            return None, nodes, False


def find_design(problem: SearchProblem):
    """A verified DesignInstance, or SearchFailure distinguishing an exhausted
    budget from exhaustive infeasibility.

    Both methods run the same exact search (DLX for lambda = 1, the
    multiplicity cover otherwise).  "exact-cover" tries the k-spaces in
    lexicographic order; "randomized-greedy-with-backtracking" tries them in
    an order shuffled by ``seed``, so it is the same exhaustive search over
    another column order."""
    space, t, k, lam = problem.space, problem.t, problem.k, problem.lam
    if lam < 1:
        raise ValueError("lambda must be positive")
    if problem.method not in ("exact-cover", "randomized-greedy-with-backtracking"):
        raise ValueError(f"unknown method {problem.method!r}")

    count_x = polar_count(space, k)
    through = polar_count_through(space, t, k)
    count_a = polar_count(space, t)
    per_block = gaussian_binomial(k, t, space.p)
    blocks_needed, rem = divmod(lam * count_x, through)
    blocks_needed2, rem2 = divmod(lam * count_a, per_block)
    if rem or rem2 or blocks_needed != blocks_needed2 or blocks_needed < 1:
        raise DivisibilityError(
            f"no {t}-({space.n},{k},{lam}) design can exist: block count "
            f"{lam}*{count_x}/{through} is not a positive integer"
        )

    matrix = cover_matrix(space, t, k, problem.enumeration_budget)
    n_options = len(matrix.kspaces)
    order = list(range(n_options))
    if problem.method == "randomized-greedy-with-backtracking":
        random.Random(problem.seed).shuffle(order)

    if lam == 1:
        options = [matrix.column_rows[oi] for oi in order]
        dlx = _Dlx(len(matrix.tspaces), options)
        picks, budget_hit = dlx.solve(problem.node_budget)
        nodes = dlx.nodes_visited
        solution = [order[i] for i in picks] if picks is not None else None
    else:
        solution, nodes, budget_hit = _multicover_first(
            len(matrix.tspaces),
            matrix.column_rows,
            lam,
            order,
            problem.node_budget,
        )

    if budget_hit:
        return SearchFailure(reason="budget", nodes=nodes)
    if solution is None:
        return SearchFailure(reason="infeasible", nodes=nodes)

    blocks = tuple(sorted(matrix.kspaces[i] for i in solution))
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
    report = verify_design(instance, problem.enumeration_budget)
    if not report.ok:
        raise AssertionError(f"search produced an invalid design: {report}")
    assert len(blocks) == blocks_needed
    return instance


def count_spreads(
    space: PolarSpace,
    t: int,
    k: int,
    node_budget: int = 10_000_000,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int:
    """Number of exact covers (lambda = 1) in the search's column order."""
    matrix = cover_matrix(space, t, k, budget)
    dlx = _Dlx(len(matrix.tspaces), list(matrix.column_rows))
    count, budget_hit = dlx.solve(node_budget, count_all=True)
    if budget_hit:
        raise RuntimeError("node budget exhausted while counting covers")
    return count
