"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload engine_warm --seed 1 --seconds 20 --trace 0

Workloads: ``engine_warm``, ``http_serve``, ``cold_plan``,
``solver_sharded`` (README.md says what each one measures and why).
With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics instead, and the spans go to a Chrome trace-event file under
``.perfbench/``.  Progress and failure reasons go to the lines before it.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 before doing anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: set-up is measured this many times per run (this process plus fresh
#: helper processes) and reported as the median
SETUP_REPEATS = 3

#: a run stops after the round in which this many times ``--seconds`` of
#: wall time has passed, whatever the timed total (checks take time too)
WALL_CAP_FACTOR = 4.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "sim_gflops": "GFLOP/s",
    "peak_rss_mb": "MB",
}


def isolate() -> Path:
    """Cut the run off from machine state; returns the run's state directory.

    Every ``REPRO_*`` variable is cleared, the tuning cache points at a
    file made fresh for this run, and BLAS pools are pinned to one thread
    (the program's own pools are sized by the workloads, at most nproc).
    Must run before numpy is imported.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[key] = "1"
    state = STATE / f"run-{os.getpid()}-{time.time_ns()}"
    state.mkdir(parents=True)
    os.environ["REPRO_TUNING_CACHE"] = str(state / "tuning.json")
    return state


def pin_one_cpu() -> None:
    """Keep this process, and every thread and process it starts from now
    on, on the first CPU it may use.

    Spread over two vCPUs of a shared host, the program's threads and
    pool workers drew CPU steal from the host that one vCPU does not, and
    their wall clock followed it (README, Isolation).
    """
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="measure one set-up in this process and print it (helper mode)",
    )
    return parser.parse_args(argv)


def emit(result: dict) -> None:
    print(json.dumps(result), flush=True)


def measure_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def helper_setups(args, count: int) -> list:
    """Set-up times measured in ``count`` fresh processes, one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up helper failed:\n{proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def engine_counters(workload) -> dict:
    totals = {"hits": 0, "misses": 0, "evictions": 0}
    for engine in workload.engines():
        stats = engine.cache_stats
        for key in totals:
            totals[key] += getattr(stats, key)
    return totals


def run_untraced(args, workload, arch) -> int:
    from harness import Runner, peak_rss_mb

    try:
        setup_s = [measure_setup(workload)]
        runner = Runner(arch)
        runner.run(workload, args.seconds, wall_cap_s=WALL_CAP_FACTOR * args.seconds)
        rss = peak_rss_mb()
    finally:
        workload.close()
    setup_s += helper_setups(args, SETUP_REPEATS - 1)
    metrics = runner.end_to_end(statistics.median(setup_s), rss)
    print(f"workload {args.workload} seed {args.seed}: {runner.attempted} operations, "
          f"{runner.failed} failed, {runner.timed_s:.2f} s timed, "
          f"{100 * runner.steal:.0f}% of the machine's CPU time stolen by the host")
    print("  setup samples: " + ", ".join(f"{s:.3f}s" for s in setup_s))
    for name, unit in END_TO_END.items():
        print(f"  {name:16s} {metrics[name]:14.6g} {unit}")
    for line in runner.kind_lines() + runner.failure_lines():
        print(line)
    emit({
        "correct": runner.unexpected == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END.items()},
    })
    return 0


def run_traced(args, workload, arch) -> int:
    from harness import Runner
    from tracing import PER_LAYER, Recorder, layer_metrics

    rec = Recorder()
    half = args.seconds / 2.0
    cap = WALL_CAP_FACTOR * half
    try:
        rec.install()
        try:
            workload.setup()
        finally:
            rec.uninstall()
        # first half untraced, second half traced: their throughput ratio
        # is the wrappers' overhead.  The untraced half runs rounds that
        # the traced half never repeats, so cold inputs stay unseen.
        untraced = Runner(arch, first_round=1_000_000)
        untraced.run(workload, half, round_offset=1_000_000, wall_cap_s=cap)
        before = engine_counters(workload)
        traced = Runner(arch, recorder=rec)
        rec.install()
        try:
            traced.run(workload, half, wall_cap_s=cap)
        finally:
            rec.uninstall()
        after = engine_counters(workload)
        executor = {}
        for engine in workload.engines():
            stats = engine.telemetry().executor
            if stats is not None and stats.kind == "process":
                executor = {"placement_imbalance": stats.placement_imbalance,
                            "segment_bytes": float(stats.segment_bytes)}
    finally:
        workload.close()
    delta = {k: after[k] - before[k] for k in after}
    metrics = layer_metrics(rec, traced, untraced, delta, executor)
    STATE.mkdir(exist_ok=True)
    trace_path = STATE / f"trace-{args.workload}-seed{args.seed}.json"
    rec.write_chrome_trace(trace_path)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    print(f"workload {args.workload} seed {args.seed} (traced): {attempted} operations, "
          f"{failed} failed; {len(rec.spans)} spans -> {trace_path.relative_to(ROOT)}")
    for name, (unit, _) in PER_LAYER.items():
        print(f"  {name:30s} {metrics[name]:14.6g} {unit}")
    for line in untraced.failure_lines() + traced.failure_lines():
        print(line)
    emit({
        "correct": untraced.unexpected + traced.unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in PER_LAYER.items()},
    })
    return 0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it.

    The process pool's shared memory starts the tracker as a helper
    process; stopping it here means no process outlives the run.  The
    standard library has no public call for this.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    state = isolate()
    try:
        sys.path.insert(0, str(SRC))
        from workloads import WORKLOADS, arch

        if args.workload not in WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; "
                  f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload](args.seed)
        pin_one_cpu()
        if args.setup_only:
            try:
                setup_s = measure_setup(workload)
            finally:
                workload.close()
            emit({"setup_s": setup_s})
            return 0
        if args.trace:
            return run_traced(args, workload, arch())
        return run_untraced(args, workload, arch())
    finally:
        stop_resource_tracker()
        shutil.rmtree(state, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
