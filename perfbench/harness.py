"""The closed-loop runner: times operations, checks them, and sums the metrics.

A workload hands the runner rounds of :class:`Op`\\ s.  The runner times
each operation's call into the program (wall clock and CPU), then --
outside the timed interval -- runs the oracle on what it returned and
counts the operation as failed, with a reason, when any check fails.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import oracle

_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class Product:
    """One SpMM an operation executed, as the oracle and the clocks see it.

    ``C`` is ``None`` for products whose result is checked another way
    (the iterations inside a solve); they still count towards the
    simulated clock.
    """

    case: object
    B: Optional[np.ndarray]
    C: Optional[np.ndarray]
    sim_ms: float
    useful_flops: float
    gflops: float
    precision: str = "fp16"


@dataclass
class Outcome:
    """What one operation returned: products, extra checks, layer samples."""

    products: List[Product] = field(default_factory=list)
    checks: List[Callable[[], Optional[str]]] = field(default_factory=list)
    #: per-layer samples read off the program's own reports (ms, counts)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: housekeeping run after the checks, outside the timed interval
    cleanup: List[Callable[[], None]] = field(default_factory=list)

    def sample(self, name: str, value: float) -> None:
        """Add one per-layer sample."""
        self.samples.setdefault(name, []).append(float(value))


@dataclass
class Op:
    """One user action: ``fn`` calls the program and returns an Outcome."""

    kind: str
    fn: Callable[[], Outcome]
    #: returns a wrong product every time through a known program fault
    #: (README); that failure is counted in ``failed`` without making the
    #: run incorrect, any other failure of the operation still does
    known_fault: bool = False


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process, from /proc."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_times() -> List[int]:
    """The machine-wide CPU time counters (ticks) from /proc/stat."""
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of the machine's CPU time stolen by the hypervisor between
    two :func:`cpu_times` readings (column 8 of the cpu line)."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def self_cpu_s() -> float:
    """User + system CPU seconds of this process, all threads."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def worker_pids() -> List[int]:
    """Live child processes started through multiprocessing (pool workers)."""
    return sorted(p.pid for p in multiprocessing.active_children())


def workers_cpu_s() -> Dict[int, float]:
    """CPU seconds per live pool worker."""
    return {pid: _proc_cpu_s(pid) for pid in worker_pids()}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_proc_hwm_mb(pid) for pid in worker_pids())


def _reason_class(reason: str) -> str:
    """The reason's class for the failure table (text before the colon)."""
    return reason.split(":", 1)[0]


def _is_known_fault(op: Op, reason: str) -> bool:
    """Whether a failure is the known fault: a finite product off the bound."""
    return op.known_fault and reason.startswith(oracle.WRONG_VALUES)


class Runner:
    """Times, checks and counts the operations of one phase.

    ``arch`` is the simulated architecture whose peak rates bound every
    reported simulated rate.  Simulated totals are kept for the first
    round only (``first_round``): every round repeats the same mix, and
    one fixed set of products makes ``sim_gflops`` reproducible to the
    bit whatever the run length.
    """

    def __init__(self, arch, *, first_round: int = 0, recorder=None):
        self.arch = arch
        self.first_round = first_round
        self.recorder = recorder
        #: wall seconds of every operation, by operation kind
        self.by_kind: Dict[str, List[float]] = {}
        #: per round: operations per timed second, the wall seconds of each
        #: operation, and the share of the machine's CPU time the host stole
        self.round_rates: List[float] = []
        self.round_lat: List[List[float]] = []
        self.round_steal: List[float] = []
        self.cpu_s = 0.0
        self.attempted = 0
        self.failed = 0
        #: failures outside the known faults: any makes the run incorrect
        self.unexpected = 0
        #: (operation kind, reason class) of the failures that are the known fault
        self.known_fault_keys: set = set()
        #: failures by (operation kind, reason class)
        self.failed_kinds: Counter = Counter()
        self._examples: Dict[tuple, str] = {}
        self.sim_ms = 0.0
        self.sim_flops = 0.0
        self.samples: Dict[str, List[float]] = {}
        self.round0_samples: Dict[str, List[float]] = {}
        self.timed_s = 0.0
        #: scipy time of each traced operation's products, by operation id
        self.scipy_ms_by_op: Dict[int, float] = {}
        self._worker_cpu0: Dict[int, float] = {}
        self.worker_cpu_s = 0.0

    # -- phase bookkeeping ----------------------------------------------------
    def start(self) -> None:
        """Mark the start of the timed phase (pool workers' CPU baseline)."""
        self._worker_cpu0 = workers_cpu_s()
        self._machine0 = cpu_times()

    def stop(self) -> None:
        """Mark the end of the timed phase."""
        now = workers_cpu_s()
        self.worker_cpu_s = sum(now[p] - self._worker_cpu0.get(p, 0.0) for p in now)
        self.steal = steal_share(self._machine0, cpu_times())

    def run(self, workload, seconds: float, *, round_offset: int = 0,
            wall_cap_s: Optional[float] = None) -> int:
        """Run whole rounds until ``seconds`` of timed operations have passed.

        Returns the number of rounds run.  ``wall_cap_s`` stops the loop
        (after a whole round) when checks make the wall time run away.
        """
        self.start()
        start = time.perf_counter()
        rounds = 0
        while True:
            index = round_offset + rounds
            ops = workload.ops(index)
            timed0 = self.timed_s
            machine0 = cpu_times()
            self.round_lat.append([])
            for op in ops:
                self.run_op(op, index)
            self.round_steal.append(steal_share(machine0, cpu_times()))
            self.round_rates.append(len(ops) / (self.timed_s - timed0))
            rounds += 1
            if self.timed_s >= seconds:
                break
            if wall_cap_s is not None and time.perf_counter() - start > wall_cap_s:
                break
        self.stop()
        return rounds

    # -- one operation ----------------------------------------------------------
    def run_op(self, op: Op, round_index: int) -> None:
        """Time one operation, then check it outside the timed interval."""
        rec = self.recorder
        op_id = None
        if rec is not None:
            rec.begin_op(op.kind, round_index - self.first_round)
            op_id = rec.op
        c0 = self_cpu_s()
        t0 = time.perf_counter()
        outcome: Optional[Outcome] = None
        reason: Optional[str] = None
        try:
            outcome = op.fn()
        except Exception as exc:  # the boundary that must keep running
            status = getattr(exc, "status", None)
            if status is not None:
                reason = f"http {status}: {exc}"
            else:
                reason = f"exception: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = self_cpu_s()
        if rec is not None:
            rec.end_op(t0, t1)
        self.timed_s += t1 - t0
        self.by_kind.setdefault(op.kind, []).append(t1 - t0)
        self.round_lat[-1].append(t1 - t0)
        self.cpu_s += c1 - c0
        self.attempted += 1
        if outcome is not None:
            reason = self._check(outcome, round_index, op_id)
            for tidy in outcome.cleanup:
                tidy()
        if reason is not None:
            self.failed += 1
            key = (op.kind, _reason_class(reason))
            if _is_known_fault(op, reason):
                self.known_fault_keys.add(key)
            else:
                self.unexpected += 1
            self.failed_kinds[key] += 1
            self._examples[key] = reason

    def _check(self, outcome: Outcome, round_index: int, op_id) -> Optional[str]:
        first = None
        scipy_ms = 0.0
        for p in outcome.products:
            if p.C is not None:
                reason, ms = oracle.check_product(p.case, p.B, p.C, p.precision)
                scipy_ms += ms
                first = first or reason
            first = first or oracle.check_peak(p.gflops, p.precision, self.arch)
        for check in outcome.checks:
            first = first or check()
        if op_id is not None:
            self.scipy_ms_by_op[op_id] = scipy_ms
        for name, values in outcome.samples.items():
            self.samples.setdefault(name, []).extend(values)
            if round_index == self.first_round:
                self.round0_samples.setdefault(name, []).extend(values)
        if round_index == self.first_round:
            for p in outcome.products:
                self.sim_ms += p.sim_ms
                self.sim_flops += p.useful_flops
        return first

    # -- end-to-end metrics ------------------------------------------------------
    def quiet_rounds(self) -> List[int]:
        """The half of the rounds (rounded up) in which the host stole the
        least CPU time, in round order among equals.

        Every round runs the same mix, so the rounds differ only in what
        the machine around them did; on a host that steals CPU time in
        bursts, the wall clock of the quiet rounds is the program's.
        """
        order = np.argsort(self.round_steal, kind="stable")
        return sorted(order[: (len(order) + 1) // 2].tolist())

    def quiet_rate(self) -> float:
        """Median operations per timed second over the quiet rounds."""
        return float(np.median([self.round_rates[i] for i in self.quiet_rounds()]))

    def end_to_end(self, setup_s: float, rss_mb: float) -> Dict[str, float]:
        """The end-to-end metrics of the phase, by name.

        The wall-clock figures (``ops_per_s``, ``op_p50_ms``,
        ``op_p90_ms``) are taken over :meth:`quiet_rounds`; CPU time,
        memory and the simulated clock over the whole phase.
        """
        quiet = self.quiet_rounds()
        lat_ms = 1e3 * np.concatenate([np.asarray(self.round_lat[i]) for i in quiet])
        return {
            "setup_s": setup_s,
            "ops_per_s": self.quiet_rate(),
            "op_p50_ms": float(np.percentile(lat_ms, 50)),
            "op_p90_ms": float(np.percentile(lat_ms, 90)),
            "cpu_ms_per_op": 1e3 * (self.cpu_s + self.worker_cpu_s) / self.attempted,
            "sim_gflops": self.sim_flops / (1e6 * self.sim_ms) if self.sim_ms > 0 else 0.0,
            "peak_rss_mb": rss_mb,
        }

    def kind_lines(self) -> List[str]:
        """Count and median latency of each operation kind."""
        return [
            f"  {len(lat):5d} x {kind:40s} p50 {1e3 * float(np.median(lat)):9.3f} ms"
            for kind, lat in self.by_kind.items()
        ]

    def failure_lines(self) -> List[str]:
        """One human-readable line per (operation kind, failure reason)."""
        return [
            f"  failed {count:4d}x  {key[0]}: {self._examples[key]}"
            + ("  (known fault)" if key in self.known_fault_keys else "")
            for key, count in sorted(self.failed_kinds.items())
        ]
