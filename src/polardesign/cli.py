"""Command-line surface: every subsystem behind one executable with JSON on
stdout, diagnostics on stderr, and reproducible flags.

Exit codes: 0 success/verified, 1 violation found, 2 usage error, 3 budget
exhausted, 4 internal error (a bug, never a verdict on the input).  Counts,
determinants and thresholds are serialized as decimal strings (they routinely
exceed 64 bits); structural parameters stay numbers.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import cache

from . import counting, decode, klp
from .counting import decimal_string
from .geometry import (
    DEFAULT_ENUMERATION_BUDGET,
    FAMILY_NAMES,
    BudgetExceededError,
    enumerate_extensions,
    isotropic_kspaces,
    standard_polar_space,
)
from .incidence import (
    canonical_json_chunks,
    design_to_json,
    read_certificate,
    verify_design,
)
from .search import METHODS, DivisibilityError, SearchFailure, SearchProblem, find_design

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _stringify(value):
    """Decimal strings for anything that may exceed 64 bits."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return decimal_string(value)
    if isinstance(value, dict):
        return {key: _stringify(val) for key, val in value.items()}
    return value


def non_negative_int(text: str) -> int:
    """A budget or sample count: an integer, at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _space_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=FAMILY_NAMES)
    parser.add_argument(
        "--q",
        required=True,
        type=int,
        help="base order q: a prime power q >= 2 with q <= 32, or with q^2 <= 32 for "
        "the Hermitian families 2A-odd and 2A-even, whose field has order q^2",
    )
    parser.add_argument("--n", required=True, type=int, help="polar-space rank")


def _common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=non_negative_int,
        default=DEFAULT_ENUMERATION_BUDGET,
        help="enumeration budget (subspaces per level)",
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: a parse keeps
    no state in it, and argparse looks up sys.stdout and sys.stderr only
    when it prints help or a usage error."""
    parser = argparse.ArgumentParser(
        prog="polardesign",
        description="Exact-arithmetic engine for designs in finite classical "
        "polar spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="closed-form subspace counts")
    _space_args(p_count)
    p_count.add_argument("--k", required=True, type=int)
    p_count.add_argument("--t", type=int, help="count k-spaces through a t-space")

    p_enum = sub.add_parser("enumerate", help="list totally isotropic k-spaces")
    _space_args(p_enum)
    p_enum.add_argument("--k", required=True, type=int)
    _common_args(p_enum)

    p_vc = sub.add_parser("verify-counts", help="enumeration vs formula oracle suite")
    _space_args(p_vc)
    p_vc.add_argument(
        "--samples", type=non_negative_int, default=10, help="random extension checks"
    )
    p_vc.add_argument("--seed", type=int, default=0)
    _common_args(p_vc)

    p_dec = sub.add_parser("decode", help="build and solve the decoding system")
    p_dec.add_argument("--p", required=True, type=int)
    p_dec.add_argument("--t", required=True, type=int)
    p_dec.add_argument("--k", required=True, type=int)

    p_vd = sub.add_parser("verify-decode", help="local decodability on a live space")
    _space_args(p_vd)
    p_vd.add_argument("--t", required=True, type=int)
    p_vd.add_argument("--k", required=True, type=int)
    p_vd.add_argument("--seed", type=int, help="pick V and W at random (default: lex-least)")
    _common_args(p_vd)

    p_klp = sub.add_parser("klp-report", help="existence-bound budget and feasibility")
    _space_args(p_klp)
    p_klp.add_argument("--t", required=True, type=int)
    p_klp.add_argument("--k", required=True, type=int)
    p_klp.add_argument("--constant", default="1", help="universal constant C, a fraction")
    p_klp.add_argument("--c-prime", default="1", help="relaxed-threshold constant")

    p_search = sub.add_parser("search", help="search for an explicit design")
    _space_args(p_search)
    p_search.add_argument("--t", required=True, type=int)
    p_search.add_argument("--k", required=True, type=int)
    p_search.add_argument("--lambda", dest="lam", required=True, type=int)
    p_search.add_argument(
        "--method",
        default=SearchProblem.method,
        choices=METHODS,
        help="exact-cover tries the k-spaces in lexicographic order; "
        "randomized-greedy-with-backtracking runs the same exact cover over "
        "an order shuffled by --seed",
    )
    p_search.add_argument(
        "--seed", type=int, default=0, help="shuffle seed of the randomized method"
    )
    p_search.add_argument(
        "--node-budget", type=non_negative_int, default=SearchProblem.node_budget
    )
    p_search.add_argument("--output", help="also write the certificate to this path")
    _common_args(p_search)

    p_verify = sub.add_parser("verify-design", help="re-verify a certificate")
    p_verify.add_argument("certificate", help="path to a certificate JSON file")
    _common_args(p_verify)

    return parser


def _cmd_count(args) -> int:
    space = standard_polar_space(args.family, args.n, args.q)
    if args.t is None:
        expr = counting.polar_count_expr(space, args.k)
    else:
        expr = counting.polar_count_through_expr(space, args.t, args.k)
    _emit(
        {
            "count": decimal_string(expr.value),
            "factors": [decimal_string(f) for f in expr.factors],
        }
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    space = standard_polar_space(args.family, args.n, args.q)
    subspaces = isotropic_kspaces(space, args.k, args.budget)
    payload = {"count": decimal_string(len(subspaces))}
    for chunk in canonical_json_chunks(payload, "subspaces", subspaces):
        sys.stdout.write(chunk)
    return EXIT_OK


def _cmd_verify_counts(args) -> int:
    space = standard_polar_space(args.family, args.n, args.q)
    rng = random.Random(args.seed)
    checks = []
    ok = True
    levels = {}
    for k in range(space.n + 1):
        levels[k] = isotropic_kspaces(space, k, args.budget)
        formula = counting.polar_count(space, k)
        match = len(levels[k]) == formula
        ok = ok and match
        checks.append(
            {
                "check": f"k={k} count",
                "enumerated": decimal_string(len(levels[k])),
                "formula": decimal_string(formula),
                "ok": match,
            }
        )
    for _ in range(args.samples):
        t = rng.randint(0, space.n)
        k = rng.randint(t, space.n)
        base = rng.choice(levels[t])
        found = sum(1 for _ in enumerate_extensions(space, base, k, args.budget))
        formula = counting.polar_count_through(space, t, k)
        match = found == formula
        ok = ok and match
        checks.append(
            {
                "check": f"extensions t={t} k={k}",
                "enumerated": decimal_string(found),
                "formula": decimal_string(formula),
                "ok": match,
            }
        )
    _emit({"verified": ok, "checks": checks})
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_decode(args) -> int:
    system = decode.build_decoding_system(args.p, args.t, args.k)
    bounds = decode.determinant_bound_check(system)
    _emit(
        {
            "p": args.p,
            "t": args.t,
            "k": args.k,
            "D": [[decimal_string(x) for x in row] for row in system.matrix],
            "detD": decimal_string(system.m),
            "detDj": [decimal_string(x) for x in system.det_cols],
            "f": [decimal_string(x) for x in system.f],
            "m": decimal_string(system.m),
            "gamma_l1": decimal_string(system.gamma_l1),
            "c4": decimal_string(max(system.m, system.gamma_l1)),
            "verified": bounds.ok,
        }
    )
    return EXIT_OK if bounds.ok else EXIT_VIOLATION


def _cmd_verify_decode(args) -> int:
    space = standard_polar_space(args.family, args.n, args.q)
    tspace = wspace = None
    if args.seed is not None:
        rng = random.Random(args.seed)
        ground = isotropic_kspaces(space, args.t, args.budget)
        tspace = rng.choice(ground)
        wspace = rng.choice(
            list(enumerate_extensions(space, tspace, args.k + args.t, args.budget))
        )
    report = decode.verify_local_decodability(
        space, args.t, args.k, tspace, wspace, args.budget
    )
    _emit(
        {
            "p": space.p,
            "t": args.t,
            "k": args.k,
            "m": decimal_string(report.m),
            "gamma_l1": decimal_string(report.gamma_l1),
            "c4": decimal_string(report.c4),
            "c3_bound": decimal_string(report.c3_bound),
            "tspace": report.tspace.to_lists(),
            "wspace": report.wspace.to_lists(),
            "tspaces_checked": decimal_string(report.checked),
            "violations": [
                {"tspace": v.to_lists(), "sum": decimal_string(total)}
                for v, total in report.violations
            ],
            "l1_formula_consistent": report.l1_formula_consistent,
            "l1_coarse_bound_ok": report.l1_coarse_bound_ok,
            "verified": report.ok,
        }
    )
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_klp_report(args) -> int:
    space = standard_polar_space(args.family, args.n, args.q)
    try:
        constant, c_prime = Fraction(args.constant), Fraction(args.c_prime)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in a constant: {exc}") from None
    report = klp.feasibility_report(space, args.t, args.k, constant, c_prime)
    _emit(_stringify(report))
    return EXIT_OK


def _cmd_search(args) -> int:
    space = standard_polar_space(args.family, args.n, args.q)
    problem = SearchProblem(
        space=space,
        t=args.t,
        k=args.k,
        lam=args.lam,
        method=args.method,
        seed=args.seed,
        node_budget=args.node_budget,
        enumeration_budget=args.budget,
    )
    result = find_design(problem)
    if isinstance(result, SearchFailure):
        _emit(
            {"found": False, "reason": result.reason, "nodes": decimal_string(result.nodes)}
        )
        return EXIT_BUDGET if result.reason == "budget" else EXIT_VIOLATION
    text = design_to_json(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify_design(args) -> int:
    instance = read_certificate(args.certificate)
    report = verify_design(instance, args.budget)
    payload = {
        "verified": report.ok,
        "lambda": decimal_string(report.lam) if report.lam is not None else None,
        "blocks": decimal_string(len(instance.blocks)),
        "block_errors": [
            {"index": i, "reason": reason} for i, reason in report.block_errors
        ],
        "ratio_consistent": report.ratio_consistent,
    }
    if report.violation is not None:
        violating, count = report.violation
        payload["violating_tspace"] = violating.to_lists()
        payload["cover_count"] = decimal_string(count)
    _emit(payload)
    return EXIT_OK if report.ok else EXIT_VIOLATION


_HANDLERS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "verify-counts": _cmd_verify_counts,
    "decode": _cmd_decode,
    "verify-decode": _cmd_verify_decode,
    "klp-report": _cmd_klp_report,
    "search": _cmd_search,
    "verify-design": _cmd_verify_design,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DivisibilityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only an internal error prints one
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
