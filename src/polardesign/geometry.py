"""Standard forms for the six polar-space families, isotropy tests, and
exhaustive enumeration of totally isotropic subspaces at desk scale.

Coordinates are fixed once and for all (the abstract theory never chooses
any): symplectic and quadratic forms pair coordinates (x1,x2), (x3,x4), ..;
the parabolic space puts its solo square first; the elliptic space appends an
anisotropic binary form g(u,v) = u^2 + uv + a*v^2 with the least valid a;
Hermitian forms use the identity Gram matrix.  Subspaces are canonical RREF
matrices, so enumeration output is deterministic and certificates are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from . import _pykernels as kernels
from .fields import FieldTable, make_field

DEFAULT_ENUMERATION_BUDGET = 10_000_000

FAMILY_NAMES = ("2A-odd", "2A-even", "B", "C", "D", "2D")

_KIND_CODES = {"alternating": 0, "hermitian": 1, "quadratic": 2}


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed its budget; never silently truncated."""


class FormEvaluator:
    """One nondegenerate form: alternating, Hermitian or quadratic.

    ``gram`` is the bilinear (for quadratic: polar) Gram matrix; quadratic
    forms additionally carry their upper-triangular coefficient matrix.
    """

    def __init__(self, kind: str, field: FieldTable, gram, quad=None):
        if kind not in _KIND_CODES:
            raise ValueError(f"unknown form kind {kind!r}")
        self.kind = kind
        self.field = field
        self.gram = tuple(tuple(row) for row in gram)
        self.quad = tuple(tuple(row) for row in quad) if quad is not None else None
        self.dimension = len(self.gram)
        if kind == "quadratic" and self.quad is None:
            raise ValueError("quadratic form needs its coefficient matrix")
        if kind == "hermitian" and not field.has_conjugation:
            raise ValueError("Hermitian form needs a square-order field")
        self._pack = None
        self._validate()

    def _validate(self):
        d, f = self.dimension, self.field
        flat = bytes(x for row in self.gram for x in row)
        _, rank = kernels.rref(
            flat, d, d, f.order, f.add_table, f.mul_table, f.neg_table, f.inv_table
        )
        if self.kind in ("alternating", "hermitian"):
            if rank != d:
                raise ValueError("degenerate bilinear form")
        else:
            # char-2 quadrics may have a radical vector; it must be nonsingular
            for vec in _kernel_vectors(flat, d, d, f):
                if any(vec) and self.quadratic(vec) == 0:
                    raise ValueError("degenerate quadratic form")

    def bilinear(self, u, w) -> int:
        """f(u, w); for quadratic kind this is the polar form of Q."""
        d, f = self.dimension, self.field
        if len(u) != d or len(w) != d:
            raise ValueError("vector dimension mismatch")
        conj = self.kind == "hermitian"
        acc = 0
        for c in range(d):
            wc = f.conjugate(w[c]) if conj else w[c]
            if wc:
                gv = 0
                for g in range(d):
                    if u[g] and self.gram[g][c]:
                        gv = f.add(gv, f.mul(u[g], self.gram[g][c]))
                acc = f.add(acc, f.mul(gv, wc))
        return acc

    def quadratic(self, u) -> int:
        """Q(u), quadratic kind only."""
        if self.kind != "quadratic":
            raise ValueError(f"{self.kind} form has no quadratic value")
        d, f = self.dimension, self.field
        if len(u) != d:
            raise ValueError("vector dimension mismatch")
        acc = 0
        for i in range(d):
            if u[i]:
                for c in range(i, d):
                    q = self.quad[i][c]
                    if q and u[c]:
                        acc = f.add(acc, f.mul(q, f.mul(u[i], u[c])))
        return acc

    def is_isotropic_vector(self, v) -> bool:
        if self.kind == "alternating":
            return True
        if self.kind == "quadratic":
            return self.quadratic(v) == 0
        return self.bilinear(v, v) == 0

    def kernel_pack(self):
        """(kind code, gram bytes, quad bytes, conj bytes) for the kernels."""
        if self._pack is None:
            gram = bytes(x for row in self.gram for x in row)
            quad = (
                bytes(x for row in self.quad for x in row)
                if self.quad is not None
                else b""
            )
            conj = self.field.conj_table if self.field.has_conjugation else b""
            self._pack = (_KIND_CODES[self.kind], gram, quad, conj)
        return self._pack

    def __eq__(self, other):
        return (
            isinstance(other, FormEvaluator)
            and other.kind == self.kind
            and other.field == self.field
            and other.gram == self.gram
            and other.quad == self.quad
        )

    def __hash__(self):
        return hash((self.kind, self.field.order, self.gram, self.quad))

    def __repr__(self):
        return f"FormEvaluator(kind={self.kind!r}, d={self.dimension}, p={self.field.order})"


def _kernel_vectors(flat, rows, cols, field):
    """All vectors in the nullspace {v : M v^T = 0}; cold path, small spaces."""
    red, rank = kernels.rref(
        flat,
        rows,
        cols,
        field.order,
        field.add_table,
        field.mul_table,
        field.neg_table,
        field.inv_table,
    )
    pivots = []
    for r in range(rank):
        for c in range(cols):
            if red[r * cols + c]:
                pivots.append(c)
                break
    free = [c for c in range(cols) if c not in pivots]
    if len(free) > 12:
        raise ValueError("nullspace too large to enumerate")
    basis = []
    for c0 in free:
        v = [0] * cols
        v[c0] = 1
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(red[i * cols + c0])
        basis.append(v)
    p = field.order
    for code in range(p ** len(basis)):
        vec = [0] * cols
        x = code
        for b in basis:
            c = x % p
            x //= p
            if c:
                for i in range(cols):
                    if b[i]:
                        vec[i] = field.add(vec[i], field.mul(c, b[i]))
        yield tuple(vec)


@dataclass(frozen=True, order=True)
class Subspace:
    """A k-space as its unique k x d RREF matrix; rows are code tuples."""

    ambient: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.rows)

    def to_bytes(self) -> bytes:
        return bytes(x for row in self.rows for x in row)

    @classmethod
    def from_bytes(cls, data: bytes, k: int, d: int) -> "Subspace":
        rows = tuple(tuple(data[i * d : (i + 1) * d]) for i in range(k))
        return cls(ambient=d, rows=rows)

    def to_lists(self):
        return [list(row) for row in self.rows]


def rref_canonicalize(field: FieldTable, rows, ambient: int | None = None) -> Subspace:
    """Canonical RREF representative of the row space; rejects rank-deficient
    input (the rows must be a basis)."""
    rows = [tuple(r) for r in rows]
    if ambient is None:
        if not rows:
            raise ValueError("ambient dimension needed for the zero space")
        ambient = len(rows[0])
    for r in rows:
        if len(r) != ambient:
            raise ValueError("ragged matrix")
        if any(not (0 <= x < field.order) for x in r):
            raise ValueError("entry outside field code range")
    if not rows:
        return Subspace(ambient=ambient, rows=())
    flat = bytes(x for row in rows for x in row)
    red, rank = kernels.rref(
        flat,
        len(rows),
        ambient,
        field.order,
        field.add_table,
        field.mul_table,
        field.neg_table,
        field.inv_table,
    )
    if rank != len(rows):
        raise ValueError(f"rank-deficient matrix: rank {rank} < {len(rows)} rows")
    return Subspace.from_bytes(red, rank, ambient)


@dataclass(frozen=True, eq=False)
class PolarSpace:
    """Descriptor plus standard form for one of the six families."""

    family: str
    n: int
    q: int
    p: int
    d: int
    twice_e: int
    group: str
    field: FieldTable
    form: FormEvaluator

    def __repr__(self):
        return f"PolarSpace({self.family}, n={self.n}, q={self.q})"


def _least_anisotropic_coeff(field: FieldTable) -> int:
    # least a with u^2 + uv + a v^2 nonzero away from the origin
    p = field.order
    for a in range(p):
        ok = True
        for u in range(p):
            for v in range(p):
                if u == 0 and v == 0:
                    continue
                val = field.add(
                    field.add(field.mul(u, u), field.mul(u, v)),
                    field.mul(a, field.mul(v, v)),
                )
                if val == 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return a
    raise RuntimeError(f"no anisotropic binary form over F_{p}")


def _zeros(d):
    return [[0] * d for _ in range(d)]


def _polar_gram(field, quad):
    d = len(quad)
    gram = _zeros(d)
    for i in range(d):
        for j in range(d):
            gram[i][j] = field.add(quad[i][j], quad[j][i])
    return gram


@lru_cache(maxsize=None)
def standard_polar_space(family: str, n: int, q: int) -> PolarSpace:
    """The fixed standard model of the given family, rank and base order."""
    if family not in FAMILY_NAMES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILY_NAMES}")
    if n < 1:
        raise ValueError("rank must be at least 1")
    hermitian = family in ("2A-odd", "2A-even")
    p = q * q if hermitian else q
    field = make_field(p)  # enforces the prime-power and desk-scale caps

    if family == "2A-odd":
        d, twice_e, group = 2 * n, -1, f"U({2 * n},{q}^2)"
    elif family == "2A-even":
        d, twice_e, group = 2 * n + 1, 1, f"U({2 * n + 1},{q}^2)"
    elif family == "C":
        d, twice_e, group = 2 * n, 0, f"Sp({2 * n},{q})"
    elif family == "D":
        d, twice_e, group = 2 * n, -2, f"O+({2 * n},{q})"
    elif family == "B":
        d, twice_e, group = 2 * n + 1, 0, f"O({2 * n + 1},{q})"
    else:  # 2D
        d, twice_e, group = 2 * n + 2, 2, f"O-({2 * n + 2},{q})"

    if hermitian:
        gram = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        form = FormEvaluator("hermitian", field, gram)
    elif family == "C":
        gram = _zeros(d)
        for i in range(n):
            gram[2 * i][2 * i + 1] = 1
            gram[2 * i + 1][2 * i] = field.neg(1)
        form = FormEvaluator("alternating", field, gram)
    else:
        quad = _zeros(d)
        if family == "D":
            for i in range(n):
                quad[2 * i][2 * i + 1] = 1
        elif family == "B":
            quad[0][0] = 1
            for i in range(n):
                quad[2 * i + 1][2 * i + 2] = 1
        else:  # 2D: n hyperbolic pairs plus an anisotropic tail
            for i in range(n):
                quad[2 * i][2 * i + 1] = 1
            a = _least_anisotropic_coeff(field)
            quad[d - 2][d - 2] = 1
            quad[d - 2][d - 1] = 1
            quad[d - 1][d - 1] = a
        form = FormEvaluator("quadratic", field, _polar_gram(field, quad), quad)

    return PolarSpace(
        family=family,
        n=n,
        q=q,
        p=p,
        d=d,
        twice_e=twice_e,
        group=group,
        field=field,
        form=form,
    )


def evaluate(form: FormEvaluator, u, w) -> int:
    """Exact form value f(u, w) (polar form for quadratic kind)."""
    return form.bilinear(u, w)


def evaluate_quadratic(form: FormEvaluator, u) -> int:
    return form.quadratic(u)


def is_totally_isotropic(form: FormEvaluator, subspace: Subspace) -> bool:
    """True iff the form vanishes on the row space (basis checks suffice)."""
    rows = subspace.rows
    if subspace.ambient != form.dimension:
        raise ValueError("ambient dimension mismatch")
    for i, u in enumerate(rows):
        if not form.is_isotropic_vector(u):
            return False
        for w in rows[i + 1 :]:
            if form.bilinear(u, w) != 0:
                return False
    return True


def _level_counts(space, k, start_k, start=None):
    from . import counting

    if start is None:
        return [counting.polar_count(space, j) for j in range(k + 1)]
    return [counting.polar_count_through(space, start_k, j) for j in range(start_k, k + 1)]


_LEVEL_CACHE: dict[tuple, list[bytes]] = {}


def clear_enumeration_cache() -> None:
    _LEVEL_CACHE.clear()


def _extend_once(space, level, j):
    """The next level of a walk from the zero space, sorted.  Kept apart
    from ``_extend_level`` with this three-argument signature because
    layerbench/tracer.py wraps it to count subspaces per level."""
    return _extend_level(space, level, j, b"")


def _extend_level(space, level, j, start_pivots):
    """The isotropic (j+1)-spaces containing the j-spaces of ``level``, all
    of which contain a start subspace with pivot columns ``start_pivots``;
    the kernel produces each once, so sorting is all that is left."""
    f = space.field
    kind, gram, quad, conj = space.form.kernel_pack()
    raw = kernels.extend_level(
        b"".join(level),
        len(level),
        j,
        space.d,
        f.order,
        f.add_table,
        f.mul_table,
        f.neg_table,
        f.inv_table,
        kind,
        gram,
        quad,
        conj,
        start_pivots,
    )
    sz = (j + 1) * space.d
    return sorted([raw[i * sz : (i + 1) * sz] for i in range(len(raw) // sz)])


def _final_level(space, k, budget, start: Subspace | None = None):
    """Canonical bytes of every totally isotropic k-space (containing
    ``start`` if given), via level-by-level perp extension.  Full levels are
    memoized; the budget is enforced against cached results too."""
    if start is None and (space, k) in _LEVEL_CACHE:
        cached = _LEVEL_CACHE[(space, k)]
        if len(cached) > budget:
            raise BudgetExceededError(
                f"level {k} holds {len(cached)} subspaces, budget {budget}"
            )
        return cached
    if start is None:
        level, j0 = [b""], 0
    else:
        level, j0 = [start.to_bytes()], start.k
        start_pivots = bytes(next(c for c, x in enumerate(row) if x) for row in start.rows)
    for predicted in _level_counts(space, k, j0, start):
        if predicted > budget:
            raise BudgetExceededError(
                f"predicted level size {predicted} exceeds budget {budget}"
            )
    for j in range(j0, k):
        if start is None:
            level = _extend_once(space, level, j)
        else:
            level = _extend_level(space, level, j, start_pivots)
        if len(level) > budget:
            raise BudgetExceededError(
                f"level {j + 1} holds {len(level)} subspaces, budget {budget}"
            )
        if start is None:
            _LEVEL_CACHE[(space, j + 1)] = level
    return level


def enumerate_isotropic_kspaces(
    space: PolarSpace, k: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Iterator[Subspace]:
    """All totally isotropic k-spaces, each exactly once, in lexicographic
    order of their RREF matrices."""
    if not 0 <= k <= space.n:
        raise ValueError(f"k must lie in 0..{space.n}")
    for data in _final_level(space, k, budget):
        yield Subspace.from_bytes(data, k, space.d)


def isotropic_kspaces(
    space: PolarSpace, k: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> list[Subspace]:
    return list(enumerate_isotropic_kspaces(space, k, budget))


def enumerate_extensions(
    space: PolarSpace,
    subspace: Subspace,
    k: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Iterator[Subspace]:
    """All totally isotropic k-spaces containing ``subspace``, lex order."""
    if not subspace.k <= k <= space.n:
        raise ValueError(f"k must lie in {subspace.k}..{space.n}")
    if not is_totally_isotropic(space.form, subspace):
        raise ValueError("base subspace is not totally isotropic")
    for data in _final_level(space, k, budget, start=subspace):
        yield Subspace.from_bytes(data, k, space.d)


def _max_isotropic_dimension(space: PolarSpace, limit: int, budget: int) -> int:
    """Largest j <= limit with a nonempty level; test hook for Witt index."""
    level, best = [b""], 0
    for j in range(limit):
        kids = _extend_once(space, level, j)
        if not kids:
            return best
        if len(kids) > budget:
            raise BudgetExceededError(f"level {j + 1} holds {len(kids)} subspaces")
        level = kids
        best = j + 1
    return best


def subspace_contains(field: FieldTable, outer: Subspace, inner: Subspace) -> bool:
    """Row space containment, decided by exact reduction against the RREF."""
    if outer.ambient != inner.ambient:
        raise ValueError("ambient dimension mismatch")
    if inner.k > outer.k:
        return False
    d = outer.ambient
    pivot_rows = []
    for row in outer.rows:
        for c in range(d):
            if row[c]:
                pivot_rows.append((c, row))
                break
    for vr in inner.rows:
        w = list(vr)
        for pc, row in pivot_rows:
            fct = w[pc]
            if fct:
                nf = field.neg(fct)
                for c in range(pc, d):
                    if row[c]:
                        w[c] = field.add(w[c], field.mul(nf, row[c]))
        if any(w):
            return False
    return True


def intersection_dimension(field: FieldTable, a: Subspace, b: Subspace) -> int:
    """dim(A cap B) = dim A + dim B - rank(stacked basis)."""
    if a.ambient != b.ambient:
        raise ValueError("ambient dimension mismatch")
    stacked = a.to_bytes() + b.to_bytes()
    _, rank = kernels.rref(
        stacked,
        a.k + b.k,
        a.ambient,
        field.order,
        field.add_table,
        field.mul_table,
        field.neg_table,
        field.inv_table,
    )
    return a.k + b.k - rank


@lru_cache(maxsize=None)
def rref_space_reps(t: int, m: int, p: int) -> tuple[bytes, ...]:
    """Every t x m full-rank RREF matrix over F_p (one per t-subspace of
    F_p^m), sorted; cached per (t, m, p)."""
    if t < 0 or t > m:
        return ()
    if t == 0:
        return (b"",)
    out = []
    for pivots in combinations(range(m), t):
        pivset = set(pivots)
        cells = [
            (i, c)
            for i in range(t)
            for c in range(pivots[i] + 1, m)
            if c not in pivset
        ]
        base = bytearray(t * m)
        for i, pc in enumerate(pivots):
            base[i * m + pc] = 1
        total = p ** len(cells)
        for code in range(total):
            mat = bytearray(base)
            x = code
            for i, c in cells:
                mat[i * m + c] = x % p
                x //= p
            out.append(bytes(mat))
    out.sort()
    return tuple(out)


def subspaces_within(field: FieldTable, outer: Subspace, t: int) -> list[Subspace]:
    """All t-subspaces of ``outer``; the products of RREF reps against an
    RREF basis are already canonical."""
    k, d = outer.k, outer.ambient
    reps = rref_space_reps(t, k, field.order)
    if not reps:
        return []
    raw = kernels.products(
        b"".join(reps),
        len(reps),
        t,
        k,
        outer.to_bytes(),
        d,
        field.order,
        field.add_table,
        field.mul_table,
    )
    sz = t * d
    return [
        Subspace.from_bytes(raw[i * sz : (i + 1) * sz], t, d) for i in range(len(reps))
    ]
