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

from functools import cached_property, lru_cache
from itertools import chain, combinations, product
from typing import Iterator, NamedTuple

from . import _pykernels as kernels
from .counting import polar_count_through
from .fields import FieldTable, field_order_split, make_field

DEFAULT_ENUMERATION_BUDGET = 10_000_000

# per family: the ambient dimension d less 2n, and twice the polar parameter e
_FAMILY_SHAPES = {
    "2A-odd": (0, -1),
    "2A-even": (1, 1),
    "B": (1, 0),
    "C": (0, 0),
    "D": (0, -2),
    "2D": (2, 2),
}
FAMILY_NAMES = tuple(_FAMILY_SHAPES)


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed its budget; never silently truncated."""


class FormEvaluator:
    """One nondegenerate form on F_p^d: alternating, Hermitian or quadratic.

    ``gram`` is the bilinear (for quadratic: polar) Gram matrix; quadratic
    forms additionally carry their upper-triangular coefficient matrix
    ``quad``.  Both are d x d row-major bytes of field codes; ValueError
    unless they define a nondegenerate ``kind`` form.

    One rule reads all three kinds.  With sigma the conjugation of a
    Hermitian form and the identity otherwise, B(u, w) sums
    u_g a sigma(w_c) over the nonzero Gram terms (g, c, a).  A vector v is
    isotropic iff the same sum over the self terms is 0: Q(v) over the
    ``quad`` terms of a quadratic form, B(v, v) over the Gram terms of a
    Hermitian one, and no terms for an alternating one, on which every
    vector is isotropic.  The kernels evaluate the form only through
    ``pairing_row`` and ``is_isotropic_vector``.
    """

    def __init__(self, kind: str, field: FieldTable, d: int, gram, quad=b""):
        if kind not in ("alternating", "hermitian", "quadratic"):
            raise ValueError(f"unknown form kind {kind!r}")
        if len(gram) != d * d or len(quad) != (d * d if kind == "quadratic" else 0):
            raise ValueError(f"a {kind} form on F_p^{d} needs {d}x{d} matrices")
        if kind == "hermitian" and not field.has_conjugation:
            raise ValueError("Hermitian form needs a square-order field")
        self.kind = kind
        self.field = field
        self.dimension = d
        self.gram = bytes(gram)
        self.quad = bytes(quad)
        if max(self.gram + self.quad, default=0) >= field.order:
            raise ValueError("entry outside field code range")
        hermitian = kind == "hermitian"
        self._sigma = field.conj_table if hermitian else bytes(range(field.order))
        self._columns = [[] for _ in range(d)]  # per column c, the Gram terms (g, a)
        for i, a in enumerate(self.gram):
            if a:
                self._columns[i % d].append((i // d, a))
        self._self_terms = [
            (i // d, i % d, a) for i, a in enumerate(self.gram if hermitian else self.quad) if a
        ]
        self._validate()

    def _validate(self):
        d, f, g, q = self.dimension, self.field, self.gram, self.quad
        cells = [(i * d + c, c * d + i) for i in range(d) for c in range(d)]
        if self.kind == "alternating":
            bad = any(g[ci] != f.neg(g[ic]) or (ic == ci and g[ic]) for ic, ci in cells)
        elif self.kind == "hermitian":
            bad = any(g[ci] != f.conjugate(g[ic]) for ic, ci in cells)
        else:  # quad upper triangular, gram its polar form quad + quad^T
            bad = any(g[ic] != f.add(q[ic], q[ci]) or (ic > ci and q[ic]) for ic, ci in cells)
        if bad:
            raise ValueError(f"the matrices do not define a {self.kind} form")
        radical = kernels.nullspace(g, d, d, f)
        if self.kind in ("alternating", "hermitian"):
            if radical:
                raise ValueError("degenerate bilinear form")
        elif radical and (len(radical) > 1 or self.quadratic(radical[0]) == 0):
            # Q must vanish on no nonzero radical vector.  In odd characteristic
            # Q(v) = B(v, v)/2 = 0 there; in characteristic 2 Q is semilinear
            # on the radical, so only a radical line <v> with Q(v) != 0 passes.
            raise ValueError("degenerate quadratic form")

    def pairing_row(self, r) -> list[int]:
        """The codes w with B(v, r) = sum of v_g w_g for every v."""
        if len(r) != self.dimension:
            raise ValueError("vector dimension mismatch")
        field, sigma = self.field, self._sigma
        p, addt, mult = field.order, field.add_table, field.mul_table
        w = [0] * self.dimension
        for rc, terms in zip(r, self._columns):
            if rc:
                s = sigma[rc]
                for g, a in terms:
                    w[g] = addt[w[g] * p + mult[a * p + s]]
        return w

    def bilinear(self, u, w) -> int:
        """B(u, w); for quadratic kind this is the polar form of Q."""
        if len(u) != self.dimension:
            raise ValueError("vector dimension mismatch")
        p, addt, mult = self.field.order, self.field.add_table, self.field.mul_table
        acc = 0
        for ug, wg in zip(u, self.pairing_row(w)):
            if ug and wg:
                acc = addt[acc * p + mult[ug * p + wg]]
        return acc

    def _self_value(self, v) -> int:
        """The sum of v_g a sigma(v_c) over the self terms (g, c, a)."""
        if len(v) != self.dimension:
            raise ValueError("vector dimension mismatch")
        field, sigma = self.field, self._sigma
        p, addt, mult = field.order, field.add_table, field.mul_table
        acc = 0
        for g, c, a in self._self_terms:
            vg, vc = v[g], v[c]
            if vg and vc:
                acc = addt[acc * p + mult[mult[vg * p + a] * p + sigma[vc]]]
        return acc

    def quadratic(self, u) -> int:
        """Q(u), quadratic kind only."""
        if self.kind != "quadratic":
            raise ValueError(f"{self.kind} form has no quadratic value")
        return self._self_value(u)

    def is_isotropic_vector(self, v) -> bool:
        return self._self_value(v) == 0

    def __repr__(self):
        return f"FormEvaluator(kind={self.kind!r}, d={self.dimension}, p={self.field.order})"


class Subspace(NamedTuple):
    """A k-space as its unique k x d RREF matrix, held as the k*d row-major
    field codes the kernels read and write.  It orders and hashes as the pair
    (ambient, data): lexicographic in the codes, as on the matrix rows."""

    ambient: int
    data: bytes

    @classmethod
    def from_rows(cls, ambient: int, rows) -> "Subspace":
        rows = [tuple(row) for row in rows]
        if any(len(row) != ambient for row in rows):
            raise ValueError("ragged matrix")
        return cls(ambient, bytes(x for row in rows for x in row))

    @classmethod
    def from_bytes(cls, data: bytes, k: int, d: int) -> "Subspace":
        if len(data) != k * d:
            raise ValueError(f"{len(data)} codes do not form a {k}x{d} matrix")
        # the NamedTuple's generated __new__ is a Python call per object
        return tuple.__new__(cls, (d, data))

    @property
    def k(self) -> int:
        return len(self.data) // self.ambient

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        d = self.ambient
        return tuple(tuple(self.data[i : i + d]) for i in range(0, len(self.data), d))

    def to_bytes(self) -> bytes:
        return self.data

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
    if any(len(r) != ambient for r in rows):
        raise ValueError("ragged matrix")
    red = canonical_data(field, list(chain.from_iterable(rows)), ambient)
    return Subspace.from_bytes(red, len(rows), ambient)


def canonical_data(field: FieldTable, codes, d: int) -> bytes:
    """The canonical RREF of the row-major matrix ``codes`` with ``d``
    columns, as bytes; rejects codes outside the field and rank-deficient
    input (the rows must be a basis)."""
    if len(codes) % d:
        raise ValueError("ragged matrix")
    if min(codes, default=0) < 0 or max(codes, default=0) >= field.order:
        raise ValueError("entry outside field code range")
    k = len(codes) // d
    if not k:
        return b""
    red, pivots = kernels.rref(bytes(codes), k, d, field)
    if len(pivots) != k:
        raise ValueError(f"rank-deficient matrix: rank {len(pivots)} < {k} rows")
    return red


class PolarSpace:
    """Descriptor of one of the six families; its form and field tables are
    built on first use, so the closed-form counts never build either.  It
    compares and hashes by identity, which keeps space-keyed caches cheap."""

    def __init__(self, family: str, n: int, q: int, p: int, d: int, twice_e: int):
        self.family, self.n, self.q, self.p, self.d, self.twice_e = family, n, q, p, d, twice_e

    def __repr__(self):
        return f"PolarSpace({self.family}, n={self.n}, q={self.q})"

    @cached_property
    def field(self) -> FieldTable:
        return make_field(self.p)

    @cached_property
    def form(self) -> FormEvaluator:
        d, field = self.d, self.field
        gram = bytearray(d * d)
        if self.family in ("2A-odd", "2A-even"):
            gram[:: d + 1] = b"\x01" * d
            return FormEvaluator("hermitian", field, d, gram)
        if self.family == "C":
            for i in range(0, d, 2):
                gram[i * d + i + 1] = 1
                gram[(i + 1) * d + i] = field.neg(1)
            return FormEvaluator("alternating", field, d, gram)
        quad = bytearray(d * d)
        solo = int(self.family == "B")  # the parabolic solo square x1^2 comes first
        quad[0] = solo
        for i in range(solo, solo + 2 * self.n, 2):
            quad[i * d + i + 1] = 1
        if self.family == "2D":  # the anisotropic tail u^2 + uv + a v^2 on (x_{d-1}, x_d)
            quad[-d - 2] = quad[-d - 1] = 1  # u^2 and uv, in row d-1
            quad[-1] = _least_anisotropic_coeff(field)  # a v^2
        for i in range(d):
            for j in range(d):
                gram[i * d + j] = field.add(quad[i * d + j], quad[j * d + i])
        return FormEvaluator("quadratic", field, d, gram, quad)


def _least_anisotropic_coeff(field: FieldTable) -> int:
    # u^2 + uv + a v^2 = v^2 ((u/v)^2 + u/v + a) is nonzero away from the
    # origin iff x^2 + x + a has no root, that is iff -a is no x^2 + x
    values = {field.add(field.mul(x, x), x) for x in range(field.order)}
    return next(a for a in range(field.order) if field.neg(a) not in values)


@lru_cache(maxsize=None)
def standard_polar_space(family: str, n: int, q: int) -> PolarSpace:
    """The fixed standard model of the given family, rank and base order."""
    if family not in FAMILY_NAMES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILY_NAMES}")
    if n < 1:
        raise ValueError("rank must be at least 1")
    if q < 2:  # before squaring, so a negative Hermitian q is refused too
        raise ValueError(f"base order q must be a prime power at least 2, not {q}")
    p = q * q if family in ("2A-odd", "2A-even") else q
    field_order_split(p)  # enforces the prime-power and desk-scale caps
    extra, twice_e = _FAMILY_SHAPES[family]
    return PolarSpace(family, n, q, p, 2 * n + extra, twice_e)


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


_LEVEL_CACHE: dict[tuple, bytes] = {}  # (space, k): the level's sorted records, joined


def clear_enumeration_cache() -> None:
    _LEVEL_CACHE.clear()


def _extend_once(space, mats, j):
    """The next level of a walk from the zero space, sorted.  Kept apart
    from ``_extend_level`` with this three-argument signature because
    layerbench/tracer.py wraps it to count subspaces per level."""
    return _extend_level(space, mats, j, b"")


def _extend_level(space, mats, j, start):
    """The words of level j + 1 of a walk from the canonical bytes
    ``start``, sorted, from ``mats``, the complete level j of its words
    joined into one string: the kernel joins them and produces each word
    once, so sorting is all that is left.  From the zero space a word is
    the subspace's canonical matrix."""
    count = len(mats) // (j * space.d) if j else 1  # level 0 is the empty word alone
    raw = kernels.extend_level(mats, count, j, space.d, space.form, start)
    level = kernels._records(raw, (j + 1) * space.d)
    level.sort()
    return level


def _with_start(field, start, words, d):
    """The canonical bytes of S + <word> for each word of a walk from S, the
    canonical bytes ``start``, sorted.  A word's rows vanish on S's pivots
    and on each other's, so the canonical matrix holds the word's rows and
    each row s of S less s[lead u] u for every word row u: that clears s on
    the word's pivots and keeps its own.  The rows go in order of their
    pivots, which for rows leading with a 1 is descending byte order."""
    scale, negt = field.scale_tables, field.neg_table
    srows = [start[i : i + d] for i in range(0, len(start), d)]
    out = []
    for word in words:
        rows = [word[i : i + d] for i in range(0, len(word), d)]
        pivoted = [(row.index(1), row) for row in rows]
        for s in srows:
            for lead, u in pivoted:
                if s[lead]:
                    s = kernels._add_strings(s, u.translate(scale[negt[s[lead]]]), field)
            rows.append(s)
        rows.sort(reverse=True)
        out.append(b"".join(rows))
    out.sort()
    return out


def _final_level(space, k, budget, start: Subspace | None = None):
    """Canonical bytes of every totally isotropic k-space (containing
    ``start`` if given).  The kernel builds each level from the complete
    level below it, the first from the base (the zero space or ``start``)
    alone; a walk from ``start`` holds its levels as words (see
    ``kernels.extend_level``), and the start's rows go into the final level
    only.  Every level the walk passes through, from the base to k, is held
    to the budget by its closed-form size before the cache is read, so the
    verdict does not depend on what is cached.  Full levels are memoized
    once they pass the produced-size check, each as one string of its
    records, and a full walk resumes from the deepest cached level.  The
    level is returned as a list of records either way."""
    base = 0 if start is None else start.k
    for j in range(base, k + 1):
        # name the level, not its predicted size, which str() refuses past 4300 digits
        if polar_count_through(space, base, j) > budget:
            raise BudgetExceededError(f"level {j} is predicted to exceed budget {budget}")
    mats, j0 = b"", 0
    if start is None:
        cached = _LEVEL_CACHE.get((space, k))
        if cached is not None:
            return kernels._records(cached, k * space.d)
        j0 = max((j for j in range(1, k) if (space, j) in _LEVEL_CACHE), default=0)
        if j0:
            mats = _LEVEL_CACHE[(space, j0)]
    level = [b""]  # level 0 of every walk: the empty word
    for j in range(j0, k - base):
        del level  # level j is held only as the string ``mats`` while j + 1 is built
        if start is None:
            level = _extend_once(space, mats, j)
        else:
            level = _extend_level(space, mats, j, start.data)
        if len(level) > budget:
            raise BudgetExceededError(
                f"level {base + j + 1} holds {len(level)} subspaces, budget {budget}"
            )
        mats = b"".join(level)
        if start is None:
            _LEVEL_CACHE[(space, j + 1)] = mats
    if start is None:
        return level
    return _with_start(space.field, start.data, level, space.d)


def isotropic_kspaces(
    space: PolarSpace, k: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> list[Subspace]:
    """All totally isotropic k-spaces, each exactly once, in lexicographic
    order of their RREF matrices."""
    if not 0 <= k <= space.n:
        raise ValueError(f"k must lie in 0..{space.n}")
    return [Subspace.from_bytes(data, k, space.d) for data in _final_level(space, k, budget)]


def enumerate_extensions(
    space: PolarSpace,
    subspace: Subspace,
    k: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Iterator[Subspace]:
    """All totally isotropic k-spaces containing ``subspace``, lex order.
    The base is checked, and the level enumerated, at call time."""
    if not subspace.k <= k <= space.n:
        raise ValueError(f"k must lie in {subspace.k}..{space.n}")
    if canonical_data(space.field, subspace.data, space.d) != subspace.data:
        raise ValueError("base subspace is not a canonical RREF matrix")
    if not is_totally_isotropic(space.form, subspace):
        raise ValueError("base subspace is not totally isotropic")
    level = _final_level(space, k, budget, start=subspace)
    return (Subspace.from_bytes(data, k, space.d) for data in level)


def subspace_contains(field: FieldTable, outer: Subspace, inner: Subspace) -> bool:
    """Row space containment: inner <= outer iff dim(inner cap outer) = dim inner."""
    return intersection_dimension(field, outer, inner) == inner.k


def intersection_dimension(field: FieldTable, a: Subspace, b: Subspace) -> int:
    """dim(A cap B) = dim A + dim B - rank(stacked basis)."""
    if a.ambient != b.ambient:
        raise ValueError("ambient dimension mismatch")
    stacked = a.data + b.data
    _, pivots = kernels.rref(stacked, a.k + b.k, a.ambient, field)
    return a.k + b.k - len(pivots)


@lru_cache(maxsize=None)
def _rep_codes(t: int, k: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Every t x k full-rank RREF matrix over F_p (one per t-subspace of
    F_p^k) as its t row codes, sorted; cached per (t, k, p).  A row code is
    the row read as a base-p numeral, first entry most significant, the code
    the products kernel takes, so sorted code tuples follow the matrices'
    byte order."""
    reps = []
    for pivots in combinations(range(k), t):
        rows = []
        for pc in pivots:  # a 1 at the pivot, any entry in the free cells after it
            codes = [p ** (k - 1 - pc)]
            for c in range(pc + 1, k):
                if c not in pivots:
                    codes = [code + x * p ** (k - 1 - c) for code in codes for x in range(p)]
            rows.append(codes)
        reps.extend(product(*rows))
    reps.sort()
    return tuple(reps)


def _tsubspace_bytes(field: FieldTable, outers: list[bytes], d: int, t: int):
    """One column per RREF rep of ``_rep_codes``, in that order, each a
    list of the canonical bytes of the rep's product with each outer
    subspace, given by its canonical bytes, outer by outer.  The product of
    an RREF rep and an RREF basis is already canonical, and row i of the
    product is the combination of the basis rows by row i of the rep, so one
    kernel call, made before this returns, gives every row of every product
    over the whole batch.  A column is built when it is reached: strided
    copies interleave its rep's row strings into one string of its products,
    and ``kernels._records`` cuts that into its t*d-byte records, so only
    the columns already reached and not yet dropped are alive.  The outers
    must all have one dimension k; ValueError otherwise."""
    sizes = set(map(len, outers))
    if len(sizes) > 1:
        raise ValueError(f"outer subspaces of different sizes {sorted(sizes)}")
    size = sizes.pop() if sizes else 0
    if size % d:
        raise ValueError(f"{size} codes do not form a matrix with {d} columns")
    k = size // d
    reps = _rep_codes(t, k, field.order)
    needed = sorted({code for rep in reps for code in rep})
    combos = kernels.products(b"".join(outers), len(outers), k, d, needed, field)
    combo = dict(zip(needed, combos))
    count, tsize = len(outers), t * d
    if not tsize:  # t = 0: the zero space in every outer; struct cuts no empty records
        return ([b""] * count for _ in reps)

    def column(rep):
        string = bytearray(count * tsize)
        for i, code in enumerate(rep):
            row = combo[code]
            for c in range(d):
                string[i * d + c :: tsize] = row[c::d]
        return kernels._records(string, tsize)

    return map(column, reps)


def subspaces_within(field: FieldTable, outer: Subspace, t: int) -> list[Subspace]:
    """All t-subspaces of ``outer``."""
    d = outer.ambient
    return [Subspace.from_bytes(b, t, d) for (b,) in _tsubspace_bytes(field, [outer.data], d, t)]


def tspace_positions(
    space: PolarSpace, t: int, outers, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[list[bytes], list[list[int | None]]]:
    """The incidence of isotropic t-spaces with ``outers``, the canonical
    bytes of subspaces of the ambient space, all of one dimension: level t
    as canonical bytes in lexicographic order, and for each outer subspace
    the positions in that list of its t-subspaces (None for one outside the
    level).  Level t is read before ``outers`` is iterated; ValueError when
    the outers differ in size or do not form matrices with d columns."""
    if not 0 <= t <= space.n:
        raise ValueError(f"t must lie in 0..{space.n}")
    level = _final_level(space, t, budget)
    position = dict(zip(level, range(len(level)))).get
    outers = list(outers)
    # one rep's column at a time, matched to the level in C, then per outer
    columns = _tsubspace_bytes(space.field, outers, space.d, t)
    columns = [list(map(position, column)) for column in columns]
    if not columns:  # t > k: no outer has a t-subspace
        return level, [[] for _ in outers]
    # lists, not zip's tuples: freed tuples of one size wait on a free list
    # that only a full collection empties, which held peak RSS higher
    return level, list(map(list, zip(*columns)))
