"""Benchmark for the kolchin toolkit.

    python3 bench/run.py --workload structure-q --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
Each run generates its instances from ``--seed`` (see ``gen.py``),
writes them as rep files under ``bench/.work/``, sets up (imports the
package and loads every rep file, several times, reporting the median),
then times passes over the whole instance set, each pass on freshly
loaded representations, until the next pass would end after
``--seconds``.  One process, one thread.  Times are scaled for the
host's speed with a calibration kernel (see ``kernel_seconds``).

With ``--trace 0`` it reports the end-to-end metrics; every answer is
checked against the one the generator derived, and a wrong answer or
an exception counts as a failed instance.  ``failed_ratio`` and the raw
(unscaled) times are printed in the table; the JSON line carries the
failures as ``failed`` / ``attempted``.  With ``--trace 1`` it times one
untraced pass, then loads and runs the same instances again with every
layer wrapped (``tracer.py``) and reports the per-layer metrics and the
tracing overhead; the spans go to ``bench/.work/``.

Self-checks: ``python3 -m pytest -q bench/check_bench.py``.  Baseline
numbers and their spreads: ``bench/BASELINE.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import exact
import gen
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SETUP_REPEATS = 7
END_TO_END = {"throughput_ips": "1/s", "instance_p50_ms": "ms", "instance_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mib": "MiB"}

# The host is shared, and the speed of one core drifts by up to a half
# over minutes as neighbours come and go.  A fixed kernel of the
# benchmark's own exact arithmetic (no code of the package) runs before
# every instance and every setup, and each measured time is scaled by
# NOMINAL_KERNEL_S / (median kernel time around it): the reported times
# are seconds of a core running the kernel in NOMINAL_KERNEL_S, which is
# its time on an idle 2-core sandbox with Python 3.11.  Raw wall times
# and the speed factor are printed alongside.
NOMINAL_KERNEL_S = 0.0022
_KERNEL_MATRIX = tuple(tuple(Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4)
                             for j in range(5)) for i in range(5))


def kernel_seconds() -> float:
    """Best of two timings of six chained 5x5 rational products."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = perf_counter()
            acc = _KERNEL_MATRIX
            for _ in range(6):
                acc = exact.mul(acc, _KERNEL_MATRIX)
            best = min(best, perf_counter() - start)
        return best
    finally:
        gc.enable()


def scaled(times: list[float], kernel: list[float]) -> list[float]:
    """``times[i]`` ran between ``kernel[i]`` and ``kernel[i + 1]``."""
    return [t * NOMINAL_KERNEL_S / statistics.median(kernel[max(0, i - 2):i + 4])
            for i, t in enumerate(times)]


def setup(paths: list[str]):
    """Import the package afresh and load every rep file; returns (seconds, K, reps)."""
    for name in [m for m in sys.modules if m == "kolchin" or m.startswith("kolchin.")]:
        del sys.modules[name]
    start = perf_counter()
    K = importlib.import_module("kolchin")
    importlib.import_module("kolchin.cli")
    reps = [K.load_representation(p) for p in paths]
    return perf_counter() - start, K, reps


def timed_pass(K, runner, instances, reps, workdir):
    """Run every instance once, with a kernel timing before each and after
    the last; returns (per-instance seconds, failures, kernel seconds)."""
    times, failed, kernel = [], 0, []
    for inst, rep in zip(instances, reps):
        kernel.append(kernel_seconds())
        start = perf_counter()
        try:
            reason = runner(K, rep, inst, workdir)
        except Exception:  # an instance that raises is a failed instance
            reason = traceback.format_exc(limit=3)
        times.append(perf_counter() - start)
        if reason is not None:
            failed += 1
            print(f"FAILED {inst.name}: {reason}", file=sys.stderr)
    kernel.append(kernel_seconds())
    return times, failed, kernel


def measure(K, runner, instances, reps, workdir, seconds):
    """Whole passes until the next one would end after ``seconds``;
    returns (raw times, scaled times, failures, wall seconds)."""
    raw, times, failed, wall = [], [], 0, 0.0
    while True:
        start = perf_counter()
        t, f, kernel = timed_pass(K, runner, instances, reps, workdir)
        elapsed = perf_counter() - start
        raw += t
        times += scaled(t, kernel)
        failed += f
        wall += elapsed
        if wall + elapsed > seconds:
            return raw, times, failed, wall
        reps = [K.load_representation(i.path) for i in instances]


def end_to_end(K, runner, instances, reps, workdir, seconds, setup_times, setup_kernel):
    raw, times, failed, wall = measure(K, runner, instances, reps, workdir, seconds)
    deciles = statistics.quantiles(times, n=10)
    values = {
        "throughput_ips": len(times) / sum(times),
        "instance_p50_ms": deciles[4] * 1e3,
        "instance_p90_ms": deciles[8] * 1e3,
        "setup_s": statistics.median(scaled(setup_times, setup_kernel)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    table = {k: (v, END_TO_END[k]) for k, v in values.items()}
    raw_deciles = statistics.quantiles(raw, n=10)
    table.update({
        "failed_ratio": (failed / len(times), "1"),
        "samples": (len(times), "instances"),
        "passes": (len(times) // len(instances), "passes"),
        "raw_throughput_ips": (len(raw) / sum(raw), "1/s"),
        "raw_instance_p50_ms": (raw_deciles[4] * 1e3, "ms"),
        "raw_instance_p90_ms": (raw_deciles[8] * 1e3, "ms"),
        "raw_setup_s": (statistics.median(setup_times), "s"),
        "speed_factor": (sum(raw) / sum(times), "raw/scaled"),
        "wall_s": (wall, "s"),
    })
    return metrics, table, len(times), failed


def traced(K, runner, instances, workdir, span_path):
    """Load and run one pass untraced, then load and run it again traced.

    The overhead is the ratio of the two wall times, each divided by the
    median kernel time of its pass, so that host drift between them
    cancels."""
    start = perf_counter()
    reps = [K.load_representation(i.path) for i in instances]
    _, _, kernel = timed_pass(K, runner, instances, reps, workdir)
    untraced = (perf_counter() - start) / statistics.median(kernel)
    tracer = Tracer()
    start = perf_counter()
    with tracer:
        reps = [K.load_representation(i.path) for i in instances]
        times, failed, kernel = timed_pass(K, runner, instances, reps, workdir)
    traced_wall = (perf_counter() - start) / statistics.median(kernel)
    tracer.dump_spans(span_path)
    metrics = tracer.metrics(overhead_ratio=traced_wall / untraced)
    table = {k: (v["value"], v["unit"]) for k, v in metrics.items()}
    return metrics, table, len(times), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "kolchin" / "__init__.py").is_file():
        print(f"error: no kolchin package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))

    workdir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        instances = gen.generate(args.workload, args.seed, str(workdir))
        paths = [inst.path for inst in instances]
        setup_times, setup_kernel = [], []
        for _ in range(SETUP_REPEATS if not args.trace else 1):
            setup_kernel.append(kernel_seconds())
            elapsed, K, reps = setup(paths)
            setup_times.append(elapsed)
        setup_kernel.append(kernel_seconds())
        if not Path(K.__file__).resolve().is_relative_to(SRC_DIR.resolve()):
            print(f"error: kolchin was imported from {K.__file__}", file=sys.stderr)
            return 2
        runner = workloads.RUNNERS[args.workload]
        if args.trace:
            metrics, table, attempted, failed = traced(
                K, runner, instances, str(workdir),
                str(BENCH_DIR / ".work" / f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            metrics, table, attempted, failed = end_to_end(
                K, runner, instances, reps, str(workdir), args.seconds, setup_times,
                setup_kernel)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    props = gen.properties(args.workload, instances)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in props.items():
        print(f"  input {key}: {value}")
    for name, (value, unit) in table.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
