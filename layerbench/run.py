"""Layered benchmark for polardesign.

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  enumerate-verify  level walks, extensions and row sums checked against the
                    closed-form counts and level digests
  search-certify    design searches on warmed levels, each result re-verified
                    and its certificate round-tripped
  bounds-sweep      feasibility reports, decoding systems and local
                    decodability, checked by digests and the two solves

Every workload ends with the README CLI commands and the known-defect probes.

With ``--trace 0`` the command runs repetitions of one set-up and pass, each
in a fresh interpreter (``worker.py``), for about ``--seconds`` seconds (at
least one).  It reports the medians of wall_ref, setup_s and peak_rss_mib and
the fail_share over all repetitions.  wall_ref is the pass's wall time in
reference units (the time of 200 slices of plain Python arithmetic and dict
work, a slice sampled every 50 ms during the pass; see worker.SpeedProbe),
because a shared host's speed can drift by tens of percent within minutes.
setup_s is the set-up's cost in the same units, turned into seconds at a
fixed speed (worker.REF_UNIT_S).  The plain wall seconds of each set-up and
pass are in the run record.  With ``--trace 1`` it runs one untraced and one
traced pass with the same seed and reports the per-layer metrics, plus
trace.overhead_ref, the traced wall_ref minus the untraced one.

The last line of output is one JSON object: correct, attempted, failed,
metrics.  fail_share counts every failed operation, the known-defect probes
included; ``failed`` and ``correct`` count only the other operations, since
the probes are expected to fail until their defects are fixed.  Details of
each run (per-repetition values, failures, the level table, git sha, Python
version, kernel backend, CPU count) go to .layerbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".layerbench"
WORKLOADS = ("enumerate-verify", "search-certify", "bounds-sweep")
TIME_LIMIT_S = 170


class RunFailed(Exception):
    """A repetition crashed, timed out or printed no result."""


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--work-dir",
        str(WORK_DIR),
    ]
    cmd += flags
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload} repetition passed the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{workload} repetition exited {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise RunFailed(f"{workload} repetition printed no result") from exc
    result["process_s"] = time.monotonic() - started
    return result


def _summary(reps: list[dict]) -> tuple[int, int, int]:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    unexpected = sum(1 for r in reps for f in r["failures"] if not f["known_defect"])
    return attempted, failed, unexpected


def measure(workload: str, seed: int, seconds: int, deadline: float):
    """Untraced repetitions until the next one would overrun ``seconds``."""
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        reps.append(_worker(workload, seed, deadline))
        if time.monotonic() - start + max(r["process_s"] for r in reps) > seconds:
            break
    attempted, failed, _ = _summary(reps)
    metrics = {
        "wall_ref": statistics.median(r["wall_ref"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
        "fail_share": failed / attempted,
    }
    return reps, metrics


def trace(workload: str, seed: int, deadline: float):
    """One untraced and one traced pass with the same seed."""
    plain = _worker(workload, seed, deadline)
    traced = _worker(workload, seed, deadline, "--trace")
    layers = dict(traced["layers"])
    layers["cli.stdout_bytes"] = traced["cli_stdout_bytes"]
    layers["trace.overhead_ref"] = traced["wall_ref"] - plain["wall_ref"]
    return [plain, traced], layers


def main() -> int:
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if not (ROOT / "src" / "polardesign" / "__init__.py").is_file():
        print(f"error: no polardesign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            reps, metrics = trace(args.workload, args.seed, deadline)
        else:
            reps, metrics = measure(args.workload, args.seed, args.seconds, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = sorted(units.keys() - metrics.keys())
    if missing:
        print(f"error: no value for declared metrics {missing}", file=sys.stderr)
        return 1

    attempted, _, unexpected = _summary(reps)
    environment = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "backend": reps[0]["backend"],
        "nproc": len(os.sched_getaffinity(0)),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "metrics": metrics,
        "repetitions": reps,
    }
    results = WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    wall_s = statistics.median(r["wall_s"] for r in reps)
    setup_wall_s = statistics.median(r["setup_wall_s"] for r in reps)
    print(
        f"{args.workload} seed={args.seed} repetitions={len(reps)} median wall_s={wall_s:.3f}"
        f" setup_wall_s={setup_wall_s:.3f} {json.dumps(environment)}",
        file=sys.stderr,
    )
    for failure in {f["op"]: f for r in reps for f in r["failures"]}.values():
        kind = "known defect" if failure["known_defect"] else "FAILED"
        print(f"  {kind}: {failure['op']}: {failure['error']}", file=sys.stderr)
    if args.trace:
        walks = reps[1]["extend_calls_per_walk"]
        if walks:
            print(f"  extend_level calls per cold level walk: {json.dumps(walks)}", file=sys.stderr)
        for row in reps[1]["levels"]:
            if row["walk"] == "full":
                print(
                    f"  {row['space']} level {row['level']}: produced {row['produced']}"
                    f" kept {row['kept']} ratio {row['produced_per_kept']:.3f}",
                    file=sys.stderr,
                )
    print(
        json.dumps(
            {
                "correct": unexpected == 0,
                "attempted": attempted,
                "failed": unexpected,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
