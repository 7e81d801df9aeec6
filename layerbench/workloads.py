"""The benchmark's three workloads: what each sets up, the operations one pass
runs, and the check that decides whether each operation's result is right.

Every operation goes through polardesign's public API (module attributes
looked up at call time, so the tracer can wrap them) and is checked by an
independent path the library already has: enumeration against the closed-form
counts, search against ``verify_design``, a byte-identical certificate round
trip, the two solves of the decoding system, and digests of outputs that the
mathematics fixes (``digests.json``).

The seed picks only sampled bases, the V/W of the local-decodability checks
and the randomized search order.  It never picks (t, k) pairs or job sizes, so
every seed does the same amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from math import isqrt

from polardesign import cli, counting, decode, geometry, incidence, klp, search

FAMILIES = ("2A-odd", "2A-even", "B", "C", "D", "2D")

# field orders p <= 32 (prime powers)
FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)

# integer fields and flags of a feasibility report that the mathematics fixes
REPORT_INTS = (
    "m",
    "gamma_l1",
    "c1_upper_witness",
    "c1_coarse_bound",
    "c2",
    "c3_from_c4",
    "c3_coarse_bound",
    "c4_exact",
    "c4_coarse_bound",
    "count_tspaces",
    "count_tspaces_coarse_bound",
    "dim_l_bound",
    "count_kspaces",
    "count_kspaces_lower_bound",
    "log_term",
    "n_threshold",
    "relaxed_threshold",
    "theorem_cap_p_21nt",
    "smallest_feasible_multiple",
)
REPORT_FLAGS = (
    "k_exceeds_21t_over_2",
    "n_fits_within_x",
    "n_within_theorem_cap",
    "lambda_is_integer",
)
# the closed-form |X| lower bound is false on the hyperbolic family, by design
X_BOUND = "X>=p^(2nk-ceil(3k^2/2))"


class CheckFailed(Exception):
    """An operation returned a result that its check rejects."""


def expect(condition, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def _int_bytes(x: int) -> bytes:
    return x.to_bytes((x.bit_length() + 8) // 8, "big", signed=True)


def _digest(parts) -> str:
    """Short hash of a sequence of ints, bools and strings, length-prefixed."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bool):
            data = b"T" if part else b"F"
        elif isinstance(part, int):
            data = _int_bytes(part)
        else:
            data = str(part).encode()
        h.update(len(data).to_bytes(4, "big"))
        h.update(data)
    return h.hexdigest()[:16]


def level_digest(level) -> str:
    return _digest(sorted(s.to_bytes() for s in level))


def label(space) -> str:
    return f"{space.family}_{space.n} q={space.q}"


class Context:
    """Per-run state: the seeded generator, reference digests, the work
    directory for certificate files and the captured CLI output size."""

    def __init__(self, seed: int, work_dir, expected: dict):
        self.seed = seed
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.expected = expected
        self.stdout_bytes = 0
        self.spaces: list = []

    def check_digest(self, key: str, value: str) -> None:
        expect(key in self.expected, f"no reference digest for {key}")
        expect(self.expected[key] == value, f"digest of {key} is {value}, want {self.expected[key]}")

    def cli(self, *argv) -> tuple[int, str]:
        """Run ``polardesign`` in-process; returns (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        text = out.getvalue()
        self.stdout_bytes += len(text.encode())
        return code, text


# -- enumerate-verify ---------------------------------------------------------

ENUMERATE_SPACES = (
    [(f, n, 2) for f in FAMILIES for n in (1, 2, 3) if (f, n) != ("2A-even", 3)]
    + [(f, n, 3) for f in ("B", "C", "D") for n in (1, 2, 3)]
    + [("2D", n, 3) for n in (1, 2)]
    + [("C", 4, 2), ("D", 4, 2)]
)
# the row sums of C_4 q=2 take a third of a pass; without them a run fits three
# or more passes, and row sums are still checked on every other space, D_4 q=2
# among them
NO_ROW_SUMS = (("C", 4, 2),)


def enumerate_setup(ctx: Context) -> None:
    ctx.spaces = [geometry.standard_polar_space(*spec) for spec in ENUMERATE_SPACES]


def enumerate_jobs(ctx: Context):
    for space in ctx.spaces:
        levels: dict[int, list] = {}
        n = space.n
        for k in range(n + 1):
            yield f"levels {label(space)} k={k}", _level_op(ctx, space, k, levels), False
        for t in range(1, n + 1):
            for k in range(t + 1, n + 1):
                yield f"extensions {label(space)} t={t} k={k}", _extension_op(ctx, space, t, k, levels), False
        if (space.family, n, space.q) in NO_ROW_SUMS:
            continue
        for t in range(n + 1):
            for k in range(t + 1, n + 1):
                yield f"row sums {label(space)} t={t} k={k}", _row_sum_op(space, t, k), False


def _level_op(ctx, space, k, levels):
    def op():
        level = geometry.isotropic_kspaces(space, k)
        levels[k] = level
        expect(len(level) == counting.polar_count(space, k), f"{len(level)} subspaces")
        ctx.check_digest(f"level {label(space)} k={k}", level_digest(level))

    return op


def _extension_op(ctx, space, t, k, levels):
    def op():
        base = ctx.rng.choice(levels[t])
        found = sum(1 for _ in geometry.enumerate_extensions(space, base, k))
        want = counting.polar_count_through(space, t, k)
        expect(found == want, f"{found} extensions, formula {want}")

    return op


def _row_sum_op(space, t, k):
    def op():
        report = incidence.constant_row_sum_check(space, t, k)
        expect(report.ok, f"violation {report.violation}")
        expect(report.checked == counting.polar_count(space, k), f"checked {report.checked}")
        expect(report.expected == counting.gaussian_binomial(k, t, space.p), "row sum")

    return op


# -- search-certify -----------------------------------------------------------

# (family, n, q, t, k, lambda, node budget, randomized?, expected outcome)
# "found": a verified design; "infeasible": exhaustive search finds none;
# "bounded": a budget exit or a verified design.
SEARCH_JOBS = (
    ("C", 2, 2, 1, 2, 1, None, False, "found"),
    ("D", 2, 2, 1, 2, 1, None, False, "found"),
    ("C", 3, 2, 1, 3, 1, None, False, "found"),
    ("B", 3, 3, 1, 3, 1, None, False, "found"),
    ("C", 4, 2, 1, 4, 1, None, False, "found"),
    ("2D", 3, 2, 1, 3, 1, None, False, "found"),
    ("B", 3, 2, 1, 3, 2, None, False, "found"),
    ("2A-odd", 3, 2, 1, 3, 1, None, False, "infeasible"),
    ("B", 3, 3, 2, 3, 1, None, False, "infeasible"),
    ("C", 3, 3, 1, 2, 1, 50_000, False, "bounded"),
    ("B", 3, 3, 2, 3, 2, 100_000, False, "bounded"),
    ("B", 3, 3, 2, 3, 3, 100_000, True, "bounded"),
    ("C", 3, 2, 1, 2, 3, 100_000, False, "bounded"),
)
# known defect: the multicover search recurses once per block (1120 here)
# and raises RecursionError instead of ending at its budget
RECURSION_DEFECT = ("B", 3, 3, 2, 3, 4, 2_000, False, "bounded")


def search_setup(ctx: Context) -> None:
    for family, n, q, t, k, *_ in SEARCH_JOBS + (RECURSION_DEFECT,):
        space = geometry.standard_polar_space(family, n, q)
        geometry.isotropic_kspaces(space, k)  # caches every level below k too
        geometry.isotropic_kspaces(space, t)


def search_jobs(ctx: Context):
    for job in SEARCH_JOBS:
        yield _search_label(job), _search_op(ctx, job), False
    yield "defect " + _search_label(RECURSION_DEFECT), _search_op(ctx, RECURSION_DEFECT), True


def _search_label(job) -> str:
    family, n, q, t, k, lam, budget, randomized, _ = job
    how = "randomized" if randomized else "exact-cover"
    limit = f" budget {budget}" if budget else ""
    return f"search {family}_{n} q={q} {t}-({n},{k},{lam}) {how}{limit}"


def _search_op(ctx, job):
    family, n, q, t, k, lam, budget, randomized, outcome = job

    def op():
        space = geometry.standard_polar_space(family, n, q)
        problem = search.SearchProblem(
            space=space,
            t=t,
            k=k,
            lam=lam,
            method="randomized-greedy-with-backtracking" if randomized else "exact-cover",
            seed=ctx.seed if randomized else 0,
            node_budget=budget or search.SearchProblem.node_budget,
        )
        result = search.find_design(problem)
        if isinstance(result, search.SearchFailure):
            allowed = {"found": (), "infeasible": ("infeasible",), "bounded": ("budget",)}
            expect(result.reason in allowed[outcome], f"search ended '{result.reason}'")
            return
        expect(outcome != "infeasible", "found a design where none exists")
        _check_design(space, result, t, k, lam)

    return op


def _check_design(space, instance, t, k, lam) -> None:
    blocks = lam * counting.polar_count(space, k) // counting.polar_count_through(space, t, k)
    expect(len(instance.blocks) == blocks, f"{len(instance.blocks)} blocks, want {blocks}")
    expect(instance.lam == lam, "lambda")
    report = incidence.verify_design(instance)
    expect(report.ok, f"verify_design rejects the design: {report}")
    text = incidence.design_to_json(instance)
    again = incidence.design_from_json(text)
    expect(again.blocks == instance.blocks, "certificate blocks differ after reading")
    expect(incidence.design_to_json(again) == text, "certificate round trip is not byte-identical")


# -- bounds-sweep -------------------------------------------------------------

# (family, n, q, [(t, k), ...]) for the local-decodability checks
DECODABILITY = (
    ("C", 3, 2, ((1, 1), (1, 2))),
    ("B", 3, 2, ((1, 1), (1, 2))),
    ("C", 4, 3, ((1, 1), (1, 2), (1, 3))),
)


def _sweep_families(p: int):
    for family in FAMILIES:
        if family.startswith("2A"):
            if isqrt(p) ** 2 == p:
                yield family, isqrt(p)
        else:
            yield family, p


def _sweep_cases():
    for t in range(1, 4):
        for k in range(t, 8):
            for n in range(t + k, 24):
                yield n, t, k


def bounds_setup(ctx: Context) -> None:
    ranks = sorted({n for n, _, _ in _sweep_cases()})
    for p in FIELD_ORDERS:
        for family, q in _sweep_families(p):
            for n in ranks:
                geometry.standard_polar_space(family, n, q)
    for family, n, q, _ in DECODABILITY:
        ctx.spaces.append(geometry.standard_polar_space(family, n, q))


def bounds_jobs(ctx: Context):
    for p in FIELD_ORDERS:
        for family, q in _sweep_families(p):
            yield f"feasibility sweep {family} p={p}", _feasibility_op(ctx, family, q, p), False
    for p in FIELD_ORDERS:
        for t in range(1, 9):
            for k in range(t, 9):
                yield f"decoding system p={p} t={t} k={k}", _decode_op(ctx, p, t, k), False
    for space, (_, _, _, pairs) in zip(ctx.spaces, DECODABILITY):
        for t, k in pairs:
            yield f"local decodability {label(space)} t={t} k={k}", _decodability_op(ctx, space, t, k), False


def _feasibility_op(ctx, family, q, p):
    def op():
        parts = []
        for n, t, k in _sweep_cases():
            report = klp.feasibility_report(geometry.standard_polar_space(family, n, q), t, k)
            for name, ok in report["inequalities"].items():
                if not ok:
                    expect(name == X_BOUND and family == "D", f"{name} fails at n={n} t={t} k={k}")
            parts += [report[key] for key in REPORT_INTS]
            parts += [report[key] for key in REPORT_FLAGS]
            parts.append(report["lambda_at_n"])
            parts += [item for pair in sorted(report["inequalities"].items()) for item in pair]
        ctx.check_digest(f"feasibility {family} p={p}", _digest(parts))

    return op


def _decode_op(ctx, p, t, k):
    def op():
        system = decode.build_decoding_system(p, t, k)
        expect(decode.determinant_bound_check(system).ok, "determinant bound")
        size = t + 1
        product = [sum(system.matrix[r][c] * system.f[c] for c in range(size)) for r in range(size)]
        expect(product == [0] * t + [system.m], "D f != (0, .., 0, m)")
        expect(system.f == system.det_cols, "the two solves disagree")
        parts = [x for row in system.matrix for x in row]
        parts += list(system.f) + [system.m] + list(system.det_cols)
        ctx.check_digest(f"decode p={p} t={t} k={k}", _digest(parts))

    return op


def _decodability_op(ctx, space, t, k):
    def op():
        vspace = ctx.rng.choice(geometry.isotropic_kspaces(space, t))
        wspace = ctx.rng.choice(list(geometry.enumerate_extensions(space, vspace, k + t)))
        report = decode.verify_local_decodability(space, t, k, vspace, wspace)
        expect(report.ok, f"{len(report.violations)} violations")
        expect(report.l1_formula_consistent, "||gamma||_1 differs from its formula")
        expect(report.checked == counting.polar_count(space, t), f"checked {report.checked}")
        expect(report.m == decode.build_decoding_system(space.p, t, k).m, "m")

    return op


# -- operations every workload ends with --------------------------------------


def common_jobs(ctx: Context):
    """The README CLI commands, one small row-sum check, and the known-defect
    probes, so that every layer is measured on every workload."""
    spread = ctx.work_dir / "spread.json"
    for argv, check in (
        (("count", "--family", "C", "--q", 2, "--n", 2, "--k", 1), _check_count),
        (("enumerate", "--family", "D", "--q", 2, "--n", 2, "--k", 1), _check_enumerate),
        (("verify-counts", "--family", "2A-odd", "--q", 2, "--n", 2, "--samples", 10), _check_verified),
        (("decode", "--p", 2, "--t", 1, "--k", 2), _check_decode),
        (("verify-decode", "--family", "C", "--q", 2, "--n", 3, "--t", 1, "--k", 2), _check_verify_decode),
        (("klp-report", "--family", "C", "--q", 2, "--n", 3, "--t", 1, "--k", 2, "--constant", 1), _check_klp),
        (
            ("search", "--family", "C", "--q", 2, "--n", 3, "--t", 1, "--k", 3, "--lambda", 1, "--output", spread),
            _check_search(spread),
        ),
        (("verify-design", spread), _check_verify_design),
    ):
        yield f"cli {argv[0]}", _cli_op(ctx, argv, check), False
    yield "row sums C_2 q=2 t=1 k=2", _row_sum_op(geometry.standard_polar_space("C", 2, 2), 1, 2), False
    # known defects: each fails today; a fix makes it pass
    yield "defect verify-design blocks=5", _bad_certificate_op(ctx, "blocks.json", {
        "family": "C", "q": 2, "n": 2, "t": 1, "k": 2, "lambda": 1, "blocks": 5,
    }), True
    yield "defect verify-design top-level array", _bad_certificate_op(ctx, "array.json", [1, 2]), True
    yield "defect klp-report 2A-odd q=5 n=60 t=3 k=7", _cli_op(
        ctx, ("klp-report", "--family", "2A-odd", "--q", 5, "--n", 60, "--t", 3, "--k", 7), _check_json
    ), True


def _cli_op(ctx, argv, check):
    def op():
        code, out = ctx.cli(*argv)
        expect(code == 0, f"exit code {code}")
        check(out)

    return op


def _check_json(out):
    json.loads(out)


def _check_count(out):
    expect(json.loads(out) == {"count": "15", "factors": ["3", "5"]}, out)


def _check_enumerate(out):
    payload = json.loads(out)
    subspaces = payload["subspaces"]
    want = counting.polar_count(geometry.standard_polar_space("D", 2, 2), 1)
    expect(payload["count"] == str(want) and len(subspaces) == want, "count")
    expect(subspaces == sorted(subspaces) and len({str(s) for s in subspaces}) == want, "order")


def _check_verified(out):
    payload = json.loads(out)
    expect(payload["verified"] is True, "not verified")
    expect(all(check["ok"] for check in payload["checks"]), "a count check failed")


def _check_decode(out):
    payload = json.loads(out)
    expect(payload["D"] == [["2", "1"], ["0", "3"]], "D")
    expect(payload["f"] == ["-1", "2"] and payload["m"] == "6", "f, m")
    expect(payload["verified"] is True, "not verified")


def _check_verify_decode(out):
    payload = json.loads(out)
    expect(payload["verified"] is True and payload["violations"] == [], "not verified")
    expect(payload["m"] == "6" and payload["gamma_l1"] == "10", "m, gamma_l1")


def _check_klp(out):
    payload = json.loads(out)
    space = geometry.standard_polar_space("C", 3, 2)
    expect(payload["count_kspaces"] == str(counting.polar_count(space, 2)), "count_kspaces")
    expect(all(payload["inequalities"].values()), "an inequality fails")


def _check_search(path):
    def check(out):
        expect(path.read_text(encoding="utf-8") == out, "certificate file differs from stdout")
        _check_design(geometry.standard_polar_space("C", 3, 2), incidence.design_from_json(out), 1, 3, 1)

    return check


def _check_verify_design(out):
    payload = json.loads(out)
    expect(payload["verified"] is True and payload["lambda"] == "1", "not verified")


def _bad_certificate_op(ctx, name, payload):
    """A malformed certificate must be a usage error (exit 2)."""

    def op():
        path = ctx.work_dir / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, _ = ctx.cli("verify-design", path)
        expect(code == 2, f"exit code {code}")

    return op


# -- registry -----------------------------------------------------------------

WORKLOADS = {
    "enumerate-verify": (enumerate_setup, enumerate_jobs),
    "search-certify": (search_setup, search_jobs),
    "bounds-sweep": (bounds_setup, bounds_jobs),
}


def jobs(name: str, ctx: Context):
    """Every (op id, operation, known defect?) of one pass of a workload."""
    yield from WORKLOADS[name][1](ctx)
    yield from common_jobs(ctx)
