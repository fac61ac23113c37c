"""Benchmark of the eflcolor command line.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``search``, ``certify`` and ``chi``. One process,
one thread, one client in a closed loop: each operation starts when the
previous one returns. The library is imported from the ``src/`` directory
next to this one; nothing needs building.

Set-up (importing the library, generating the seeded instances and writing
their files) runs SETUP_REPEATS times, each in a fresh interpreter, and
``setup_s`` is the median. Then, with ``--trace 0``, operations run until
their summed duration reaches ``--seconds`` and the end-to-end metrics are
reported. With ``--trace 1``, each instance's operations run untraced and
then again with every layer wrapped, until the untraced ones reach half of
``--seconds``; the per-layer metrics of the traced operations are reported
together with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same numbers for reading.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
# No operation starts after this much wall time, whatever --seconds says, so
# that a run ends well within its 180 s limit even if the program slows down.
WALL_LIMIT_S = 120.0
TAIL_BEYOND = 10
# The tail percentile of each workload: high, with more than TAIL_BEYOND
# samples beyond it at the operation counts of a 30 s run (search about 130
# to 200, certify 600 to 950, chi 550 to 850), and where the latency
# distribution is flat, so that the tail does not jump between kinds of
# operation from run to run. A percentile that moved with the operation count
# would report a larger tail for a faster program.
TAIL_PERCENTILE = {"search": 90.0, "certify": 95.0, "chi": 96.0}
# Lower percentiles to fall back on when a run is too short.
TAIL_FALLBACK = (75.0, 50.0)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "certify", "chi"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "eflcolor" / "cli.py").is_file():
        print(f"error: no eflcolor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_into:
        return _setup_child(args)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = [_timed_setup(args, workdir) for _ in range(SETUP_REPEATS)]
        return _measure(args, workdir / "manifest.json", statistics.median(setup_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup_child(args: argparse.Namespace) -> int:
    start = perf_counter()
    import instances  # imports eflcolor, which set-up time includes

    instances.write(args.workload, args.seed, Path(args.setup_into))
    print(perf_counter() - start)
    return 0


def _timed_setup(args: argparse.Namespace, workdir: Path) -> float:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--setup-into",
            str(workdir),
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def closed_loop(
    runner, run_one, stream: list[dict], seconds: float, wall_limit: float
) -> None:
    """Run instances from the stream, cycling, until ``seconds`` of operations."""
    wall_start = perf_counter()
    for inst in itertools.cycle(stream):
        run_one(runner, inst)
        if runner.busy_s >= seconds or perf_counter() - wall_start >= wall_limit:
            break


def paired_trace(run_one, stream: list[dict], seconds: float):
    """Run each instance untraced, then at once again with every layer wrapped.

    Pairing the two runs of an instance keeps drift in machine speed out of
    the tracing overhead. The wrappers are in place only for the traced run.
    """
    from tracer import Tracer
    from workloads import Runner

    tracer = Tracer()
    plain, traced = Runner(), Runner(tracer)

    def untraced_then_traced(runner, inst):
        run_one(runner, inst)
        with tracer:
            run_one(traced, inst)

    closed_loop(plain, untraced_then_traced, stream, seconds, WALL_LIMIT_S)
    return tracer, plain, traced


def end_to_end(runner, setup_s: float, percentile: float) -> dict[str, tuple[float, str]]:
    lat = sorted(runner.latencies)
    _, tail = tail_rank(len(lat), percentile)
    return {
        "setup_s": (setup_s, "s"),
        "op_ms.tail": (1000 * lat[tail], "ms"),
        "ops_per_s": (len(lat) / runner.busy_s, "1/s"),
        "decided_frac": (runner.decided / len(lat), "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    }


def tail_rank(count: int, percentile: float) -> tuple[float, int]:
    """Percentile and sorted index of the tail sample (nearest rank).

    The tail is ``percentile`` or, when fewer than TAIL_BEYOND samples lie
    beyond it, the highest of TAIL_FALLBACK that leaves that many; with
    fewer than 2 * TAIL_BEYOND samples the maximum stands in.
    """
    for p in (percentile, *TAIL_FALLBACK):
        index = math.ceil(p * count / 100) - 1
        if count - 1 - index >= TAIL_BEYOND:
            return p, index
    return 100.0, count - 1


def _measure(args: argparse.Namespace, manifest: Path, setup_s: float) -> int:
    import instances
    import workloads

    stream = [inst for cycle in instances.load(manifest) for inst in cycle]
    run_one = workloads.RUN[args.workload]
    if args.trace:
        tracer, plain, traced = paired_trace(run_one, stream, args.seconds / 2)
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = (traced.busy_s / plain.busy_s - 1, "ratio")
        runners = [plain, traced]
    else:
        plain = workloads.Runner()
        closed_loop(plain, run_one, stream, args.seconds, WALL_LIMIT_S)
        metrics = end_to_end(plain, setup_s, TAIL_PERCENTILE[args.workload])
        runners = [plain]

    attempted = sum(r.attempted for r in runners)
    failed = sum(len(r.failures) for r in runners)
    _print_report(args, plain, runners, metrics, attempted, failed)
    for runner in runners:
        for failure in runner.failures[:20]:
            print(f"failed: {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _print_report(args, plain, runners, metrics, attempted, failed) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed} ({mode})")
    print(f"  attempted {attempted}  failed {failed}  error_frac {failed / attempted:.4f}")
    percentile, index = tail_rank(plain.attempted, TAIL_PERCENTILE[args.workload])
    print(
        f"  op_ms.tail is p{percentile:g} of {plain.attempted} operations"
        f" ({plain.attempted - 1 - index} beyond it)"
    )
    # The median is printed, not gated: on search and chi it falls where the
    # latency distribution is steep and moves by 15-25% from seed to seed.
    print(f"  op_ms.p50 {1000 * statistics.median(plain.latencies):.6f} ms")
    for runner in runners:
        mix = "  ".join(f"{k} {v}" for k, v in sorted(Counter(runner.labels).items()))
        print(f"  outcomes: {mix}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6f} {unit}")


if __name__ == "__main__":
    sys.exit(main())
