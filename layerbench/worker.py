"""One repetition of one benchmark workload, in a fresh interpreter.

Imports polardesign from the ``src`` directory next to this benchmark, sets
the workload up, runs one pass of its operations, checks each result and
prints one JSON object as its last line of output.  ``run.py`` starts it once
per repetition so module caches start cold and peak memory is per workload.

    python3 layerbench/worker.py --workload NAME --seed N --work-dir DIR [--trace]

The set-up (importing polardesign, building the workload's spaces and warming
what its jobs read) and the pass are both timed in reference units (see
SpeedProbe).  setup_s is the set-up's cost in reference units times
REF_UNIT_S; the plain wall seconds of both are in the result too.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
DIGESTS = BENCH_DIR / "digests.json"

PROBE_LOOP = 5_000  # arithmetic loop iterations in one probe slice
PROBE_KEYS = [random.Random(0).randbytes(12) for _ in range(2_000)]
PROBE_TABLE = {key: i for i, key in enumerate(PROBE_KEYS)}
REF_UNIT = 200  # probe slices in one reference unit
PROBE_PERIOD_S = 0.05
# about the seconds one reference unit takes on a 2-vCPU 2.1 GHz Xeon with
# Python 3.11.7; setup_s is the set-up's cost in reference units at that speed
REF_UNIT_S = 0.2


class SpeedProbe:
    """Times a fixed slice of plain Python work every PROBE_PERIOD_S seconds
    (SIGALRM, same thread) while a pass runs: an arithmetic loop, then dict
    lookups and byte slicing, the two kinds of work polardesign does most.

    The speed of a shared host can drift by tens of percent within minutes.
    Dividing each stretch of the pass by the slice time sampled at its two
    ends gives the pass's cost in reference units (the time of REF_UNIT
    slices), which drifts far less with the host."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i * i
        for key in PROBE_KEYS:
            x += PROBE_TABLE[key] ^ hash(key[:6])
        self.samples.append((start, time.perf_counter()))

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def totals(self) -> tuple[float, float]:
        """Time between the samples, in seconds and in reference units."""
        seconds = units = 0.0
        for (s0, e0), (s1, e1) in zip(self.samples, self.samples[1:]):
            gap = s1 - e0
            seconds += gap
            units += gap / ((e0 - s0 + e1 - s1) / 2) / REF_UNIT
        return seconds, units


def run_ops(ops, tracer):
    """Run every operation; a failure is an exception or a rejected check."""
    attempted, failures = 0, []
    for op_id, op, known_defect in ops:
        if tracer is not None:
            tracer.start_job(op_id)
        attempted += 1
        try:
            op()
        except Exception as exc:  # every failure is counted, never fatal
            message = f"{type(exc).__name__}: {exc}"
            failures.append({"op": op_id, "known_defect": known_defect, "error": message[:300]})
    return attempted, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC_DIR))

    with SpeedProbe() as setup_probe:
        import polardesign
        import polardesign.cli

        if Path(polardesign.__file__).resolve().parent != SRC_DIR / "polardesign":
            print(f"error: imported polardesign from {polardesign.__file__}", file=sys.stderr)
            return 2
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
        ctx = workloads.Context(args.seed, args.work_dir, expected)
        setup, _ = workloads.WORKLOADS[args.workload]
        setup(ctx)
    setup_wall_s, setup_ref = setup_probe.totals()

    with SpeedProbe() as probe:
        attempted, failures = run_ops(workloads.jobs(args.workload, ctx), tracer)
    wall_s, wall_ref = probe.totals()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "wall_s": wall_s,
        "wall_ref": wall_ref,
        "setup_s": setup_ref * REF_UNIT_S,
        "setup_wall_s": setup_wall_s,
        "peak_rss_mib": peak_rss_mib,
        "attempted": attempted,
        "failures": failures,
        "cli_stdout_bytes": ctx.stdout_bytes,
        "backend": polardesign.BACKEND_NAME,
        "python": platform.python_version(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["levels"] = tracer.level_table()
        per_job = tracer.extend_calls_by_job()
        result["extend_calls_by_job"] = per_job
        walks: dict[str, int] = {}
        for op_id, calls in per_job.items():
            if op_id.startswith("levels "):
                space = op_id[len("levels ") : op_id.rindex(" k=")]
                walks[space] = walks.get(space, 0) + calls
        result["extend_calls_per_walk"] = walks
        spans = args.work_dir / f"spans-{args.workload}.tsv"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
