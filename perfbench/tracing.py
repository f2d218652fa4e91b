"""The traced mode: spans recorded around calls into the program's modules.

:class:`Recorder` installs timing wrappers over public functions of each
layer of the program (formats, reorder, kernels, core, engine, shard
executors, tuner, workloads, serve) by replacing them on their classes
and modules, and restores the originals when uninstalled.  The program's
own tracing (``ObservabilityConfig``) stays off.

Spans are kept in memory -- name, start, end, parent span, thread, the
id of the benchmark operation they ran under, and the round -- and
written out as Chrome trace-event JSON when the run ends.  A layer's
self time is its span's duration minus the part its child spans cover.
Wrappers only record in the benchmark's own process: process-pool
workers forked while they are installed call straight through, and
worker time comes from the per-shard times in ``ShardedReport``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

import numpy as np


class Span:
    """One timed call into the program."""

    __slots__ = ("id", "parent", "name", "t0", "t1", "tid", "op", "round", "attrs")

    def __init__(self, sid, parent, name, tid, op, round_):
        self.id = sid
        self.parent = parent
        self.name = name
        self.tid = tid
        self.op = op
        self.round = round_
        self.attrs: Dict[str, float] = {}
        self.t0 = self.t1 = 0.0

    @property
    def ms(self) -> float:
        return 1e3 * (self.t1 - self.t0)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.ops: List[tuple] = []
        self._ids = itertools.count(1)
        self._tl = threading.local()
        self._patches: List[tuple] = []
        #: the operation in flight (one caller: at most one at a time)
        self.op: Optional[int] = None
        #: ``"setup"`` or the round index within the traced phase
        self.round: object = "setup"
        self._op_ids = itertools.count(1)
        self._op_kind = ""
        self.t_origin = time.perf_counter()

    # -- spans ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tl, "stack", None)
        if stack is None:
            stack = self._tl.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids), stack[-1].id if stack else None, name,
            threading.get_ident(), self.op, self.round,
        )
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def mine(self) -> bool:
        """Whether the caller runs in the benchmark's own process."""
        return os.getpid() == self.pid

    def begin_op(self, kind: str, round_index: int) -> None:
        self.op = next(self._op_ids)
        self.round = round_index
        self._op_kind = kind

    def end_op(self, t0: float, t1: float) -> None:
        self.ops.append((self.op, self._op_kind, self.round, t0, t1))
        self.op = None
        # calls the oracle makes into the program between operations
        # (the never-lose rebuild) are kept apart from the measured ones
        self.round = "check"

    # -- patching -------------------------------------------------------------------
    def _timed(self, name: str, func: Callable, attrs=None, when=None) -> Callable:
        rec = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not rec.mine() or (when is not None and not when(args, kwargs)):
                return func(*args, **kwargs)
            span = rec.begin(name)
            try:
                out = func(*args, **kwargs)
            finally:
                rec.end(span)
            if attrs is not None:
                span.attrs = attrs(args, out)
            return out

        return wrapper

    def patch_method(self, cls, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def time_method(self, cls, attr: str, name: str, **kw) -> None:
        """Wrap a method defined on ``cls`` itself."""
        self.patch_method(cls, attr, self._timed(name, cls.__dict__[attr], **kw))

    def time_function(self, module, attr: str, name: str, *, everywhere=True, **kw) -> None:
        """Wrap a module function -- with ``everywhere``, also where other
        program modules imported it by name."""
        orig = getattr(module, attr)
        wrapper = self._timed(name, orig, **kw)
        owners = [module]
        if everywhere:
            owners = [
                mod for mod_name, mod in list(sys.modules.items())
                if (mod_name == "repro" or mod_name.startswith("repro."))
                and mod is not None and vars(mod).get(attr) is orig
            ]
        for mod in owners:
            self._patches.append((mod, attr, orig))
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def install(self) -> None:
        """Wrap the public functions of each layer."""
        import urllib.request

        import repro.core.plan as plan_mod
        import repro.serve.app as app_mod
        import repro.shard.partition as partition_mod
        from repro.core.plan import ExecutionPlan
        from repro.engine import SpMMEngine
        from repro.formats import BCSRMatrix, CSRMatrix, DenseMatrix, SRBCRSMatrix
        from repro.kernels import KERNEL_REGISTRY
        from repro.reorder.base import Reorderer
        from repro.serve.admission import AdmissionController
        from repro.serve.client import SpMMClient
        from repro.tuner import Tuner
        from repro.workloads import SpMMOperator

        # formats
        self.time_method(
            CSRMatrix, "__init__", "formats.csr_check",
            when=lambda a, k: k.get("check", True),
        )
        self.time_method(CSRMatrix, "permute_rows", "formats.permute")
        self.time_method(CSRMatrix, "permute_cols", "formats.permute")
        for cls in (BCSRMatrix, SRBCRSMatrix, CSRMatrix, DenseMatrix):
            self.time_method(cls, "spmm", "formats.spmm")
        # reorder
        self.time_method(Reorderer, "reorder", "reorder", attrs=_reorder_attrs)
        # kernels (+ the format conversion each backend runs in prepare)
        for cls in dict.fromkeys(KERNEL_REGISTRY.values()):
            self.time_method(cls, "prepare", "formats.convert", attrs=_prepare_attrs)
            self.time_method(cls, "run", "kernels.run", attrs=_run_attrs)
        # core
        self.time_function(plan_mod, "build_with_fallback", "core.build", attrs=_build_attrs)
        self.time_method(ExecutionPlan, "execute", "core.execute")
        self.time_method(ExecutionPlan, "run_kernel", "core.run_kernel")
        # engine and executors
        self.time_method(SpMMEngine, "execute_one", "engine.execute_one")
        self.time_method(SpMMEngine, "multiply_batch", "engine.batch")
        self.time_method(SpMMEngine, "multiply_sharded", "executors.sharded")
        self.time_method(
            SpMMEngine, "execute_sharded", "executors.execute", attrs=_sharded_attrs
        )
        self._install_queue_wait(SpMMEngine)
        # shard
        self.time_function(
            partition_mod, "make_partition", "shard.partition",
            attrs=lambda a, out: {"imbalance": float(out.imbalance)},
        )
        # tuner
        self.time_method(Tuner, "tune", "tuner.search", attrs=_tune_attrs)
        # workloads
        self.time_method(SpMMOperator, "matmul", "workloads.matmul")
        # serve: the server's codec calls, the client's registration
        # round trip, admission, and every HTTP exchange's body bytes
        self.time_function(app_mod, "decode_array", "serve.decode", everywhere=False)
        self.time_function(app_mod, "encode_array", "serve.encode", everywhere=False)
        self.time_method(SpMMClient, "register", "serve.register")
        self._install_admission(AdmissionController)
        self._install_urlopen(urllib.request)

    def _install_queue_wait(self, engine_cls) -> None:
        """Submit-to-start wait of async jobs and stream items."""
        rec, tl = self, self._tl
        orig_submit = engine_cls.__dict__["submit"]
        orig_stream = engine_cls.__dict__["stream"]
        orig_pool_submit = ThreadPoolExecutor.__dict__["submit"]

        @functools.wraps(orig_submit)
        def submit(self, *args, **kwargs):
            tl.queued = True
            try:
                return orig_submit(self, *args, **kwargs)
            finally:
                tl.queued = False

        @functools.wraps(orig_stream)
        def stream(self, *args, **kwargs):
            inner = orig_stream(self, *args, **kwargs)
            try:
                while True:
                    tl.queued = True
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tl.queued = False
                    yield item
            finally:
                inner.close()

        @functools.wraps(orig_pool_submit)
        def pool_submit(self, fn, *args, **kwargs):
            if not getattr(tl, "queued", False) or not rec.mine():
                return orig_pool_submit(self, fn, *args, **kwargs)
            queued_at = time.perf_counter()
            op, round_ = rec.op, rec.round

            def started(*a, **k):
                span = Span(next(rec._ids), None, "engine.queue_wait",
                            threading.get_ident(), op, round_)
                span.t0, span.t1 = queued_at, time.perf_counter()
                rec.spans.append(span)
                return fn(*a, **k)

            return orig_pool_submit(self, started, *args, **kwargs)

        self.patch_method(engine_cls, "submit", submit)
        self.patch_method(engine_cls, "stream", stream)
        self.patch_method(ThreadPoolExecutor, "submit", pool_submit)

    def _install_admission(self, cls) -> None:
        rec = self
        orig = cls.__dict__["admit"]

        @contextlib.contextmanager
        def admit(self):
            if not rec.mine():
                with orig(self):
                    yield
                return
            with contextlib.ExitStack() as stack:
                span = rec.begin("serve.admission_wait")
                try:
                    stack.enter_context(orig(self))
                finally:
                    rec.end(span)
                yield

        self.patch_method(cls, "admit", admit)

    def _install_urlopen(self, module) -> None:
        def body_bytes(args, resp):
            sent = len(getattr(args[0], "data", None) or b"")
            received = int(resp.headers.get("Content-Length") or 0)
            return {"bytes": float(sent + received)}

        orig = module.urlopen
        self._patches.append((module, "urlopen", orig))
        module.urlopen = self._timed("serve.http", orig, attrs=body_bytes)

    # -- output ---------------------------------------------------------------------
    def write_chrome_trace(self, path) -> None:
        """Write every span as a Chrome trace-event ("X") record."""
        events = []
        for s in self.spans:
            args = {"id": s.id, "parent": s.parent, "op": s.op, "round": s.round}
            args.update(s.attrs)
            events.append({
                "name": s.name, "ph": "X", "pid": self.pid, "tid": s.tid,
                "ts": 1e6 * (s.t0 - self.t_origin), "dur": 1e6 * (s.t1 - s.t0),
                "args": args,
            })
        for op, kind, round_, t0, t1 in self.ops:
            events.append({
                "name": f"op {kind}", "ph": "X", "pid": self.pid, "tid": 0,
                "ts": 1e6 * (t0 - self.t_origin), "dur": 1e6 * (t1 - t0),
                "args": {"op": op, "round": round_},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- span attributes (computed after the span closes) ----------------------------------
def _reorder_attrs(args, result) -> dict:
    before, after = result.stats_before, result.stats_after
    if before is None or after is None:
        return {}
    return {"blocks_before": float(before.n_blocks), "blocks_after": float(after.n_blocks)}


def _prepare_attrs(args, _out) -> dict:
    bcsr = getattr(args[0], "bcsr", None)
    if bcsr is None:
        return {}
    return {"stored": float(bcsr.stored_values), "nnz": float(bcsr.nnz)}


def _run_attrs(_args, result) -> dict:
    c = result.counters
    return {
        "sim_ms": float(result.time_ms),
        "bytes": float(c.bytes_global_read + c.bytes_global_write),
    }


def _build_attrs(_args, plan) -> dict:
    return {"fallback": 1.0 if plan.report.fallback_from else 0.0}


def _sharded_attrs(_args, out) -> dict:
    report = out[1]
    slowest = max((s.wall_ms for s in report.shards), default=0.0)
    return {"slowest_shard_ms": float(slowest)}


def _tune_attrs(_args, result) -> dict:
    return {
        "measured": float(result.n_measured),
        "pruned": float(result.n_pruned),
        "tuned_vs_default": float(result.tuned_vs_default),
    }


# -- per-layer metrics --------------------------------------------------------------------
#: name -> (unit, better); the order BENCHMARK.json lists them in
PER_LAYER = {
    "formats.csr_check_ms": ("ms", "lower"),
    "formats.convert_ms": ("ms", "lower"),
    "formats.permute_ms": ("ms", "lower"),
    "formats.fill_in": ("ratio", "lower"),
    "reorder.ms": ("ms", "lower"),
    "reorder.block_reduction": ("ratio", "higher"),
    "kernels.run_ms": ("ms", "lower"),
    "kernels.numeric_ms": ("ms", "lower"),
    "kernels.numeric_vs_scipy": ("ratio", "lower"),
    "kernels.useful_gflop": ("GFLOP", "higher"),
    "gpu.model_ms": ("ms", "lower"),
    "gpu.sim_ms": ("ms", "lower"),
    "gpu.sim_bytes": ("MB", "lower"),
    "core.build_ms": ("ms", "lower"),
    "core.execute_ms": ("ms", "lower"),
    "core.unpermute_ms": ("ms", "lower"),
    "core.fallbacks": ("count", "lower"),
    "engine.item_ms": ("ms", "lower"),
    "engine.batch_ms": ("ms", "lower"),
    "engine.plan_hit_rate": ("ratio", "higher"),
    "engine.plan_builds": ("count", "lower"),
    "engine.evictions": ("count", "lower"),
    "engine.queue_wait_ms": ("ms", "lower"),
    "executors.sharded_ms": ("ms", "lower"),
    "executors.overhead_ms": ("ms", "lower"),
    "executors.placement_imbalance": ("ratio", "lower"),
    "executors.segment_bytes": ("MB", "lower"),
    "shard.partition_ms": ("ms", "lower"),
    "shard.imbalance": ("ratio", "lower"),
    "tuner.search_ms": ("ms", "lower"),
    "tuner.measured": ("count", "lower"),
    "tuner.pruned": ("count", "higher"),
    "tuner.tuned_vs_default": ("ratio", "higher"),
    "workloads.iterations": ("count", "lower"),
    "workloads.spmm_ms": ("ms", "lower"),
    "workloads.other_ms": ("ms", "lower"),
    "serve.overhead_ms": ("ms", "lower"),
    "serve.decode_ms": ("ms", "lower"),
    "serve.encode_ms": ("ms", "lower"),
    "serve.register_ms": ("ms", "lower"),
    "serve.admission_wait_ms": ("ms", "lower"),
    "serve.body_bytes": ("kB", "lower"),
    "serve.rejected": ("count", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
}


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _children(spans) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def _covered_ms(span: Span, kids: List[Span]) -> float:
    """Milliseconds of ``span`` covered by the union of its children."""
    total, end = 0.0, span.t0
    for k in sorted(kids, key=lambda s: s.t0):
        lo, hi = max(k.t0, end), min(k.t1, span.t1)
        if hi > lo:
            total += hi - lo
            end = hi
    return 1e3 * total


def _under(span: Span, name: str, by_id: Dict[int, Span]) -> bool:
    """Whether a span runs inside a span called ``name``."""
    parent = span.parent
    while parent is not None:
        p = by_id.get(parent)
        if p is None:
            return False
        if p.name == name:
            return True
        parent = p.parent
    return False


def layer_metrics(rec: Recorder, traced, untraced, engines_delta, executor) -> Dict[str, float]:
    """Every per-layer metric from the traced phase.

    Timings are medians per call over the traced phase.  The structural
    ratios and counts marked exact in README.md are taken over set-up
    and the first traced round, a fixed set of calls, and leave out the
    builds the tuner makes while it searches.
    """
    spans = [s for s in rec.spans if s.round != "check"]
    by_id = {s.id: s for s in spans}
    kids = _children(spans)
    timed = [s for s in spans if s.round != "setup"]
    fixed = [
        s for s in spans
        if s.round in ("setup", 0) and not _under(s, "tuner.search", by_id)
    ]

    def named(pool, name):
        return [s for s in pool if s.name == name]

    def ms(pool, name):
        return _median([s.ms for s in named(pool, name)])

    def total(pool, name, attr):
        return sum(s.attrs.get(attr, 0.0) for s in named(pool, name))

    runs = named(timed, "kernels.run")
    run_ids = {s.id for s in runs}
    numeric = [s for s in named(timed, "formats.spmm") if s.parent in run_ids]
    numeric_by_run = {}
    for s in numeric:
        numeric_by_run[s.parent] = numeric_by_run.get(s.parent, 0.0) + s.ms
    # numeric time of each operation over the scipy time of the same products
    numeric_by_op: Dict[int, float] = {}
    for s in numeric:
        numeric_by_op[s.op] = numeric_by_op.get(s.op, 0.0) + s.ms
    scipy_by_op = traced.scipy_ms_by_op
    ratios = [numeric_by_op[o] / scipy_by_op[o] for o in numeric_by_op
              if scipy_by_op.get(o, 0.0) > 0.0]

    executes = named(timed, "core.execute")
    unpermute = [s.ms - _covered_ms(s, kids.get(s.id, [])) for s in executes]
    sharded = named(timed, "executors.execute")
    tunes = named(spans, "tuner.search")
    tunes_fixed = [s for s in tunes if s.round in ("setup", 0)]
    reorders = named(fixed, "reorder")
    blocks_before = sum(s.attrs.get("blocks_before", 0.0) for s in reorders)
    blocks_after = sum(s.attrs.get("blocks_after", 0.0) for s in reorders)
    stored = total(fixed, "formats.convert", "stored")
    stored_nnz = total(fixed, "formats.convert", "nnz")
    http = named(timed, "serve.http")
    lookups = engines_delta["hits"] + engines_delta["misses"]
    samples = traced.samples
    round0 = traced.round0_samples

    out = {
        "formats.csr_check_ms": ms(spans, "formats.csr_check"),
        "formats.convert_ms": ms(spans, "formats.convert"),
        "formats.permute_ms": ms(spans, "formats.permute"),
        "formats.fill_in": stored / stored_nnz if stored_nnz else 0.0,
        "reorder.ms": ms(spans, "reorder"),
        "reorder.block_reduction": blocks_before / blocks_after if blocks_after else 0.0,
        "kernels.run_ms": _median([s.ms for s in runs]),
        "kernels.numeric_ms": _median(list(numeric_by_run.values())),
        "kernels.numeric_vs_scipy": _median(ratios),
        "kernels.useful_gflop": traced.sim_flops / 1e9,
        "gpu.model_ms": _median([s.ms - numeric_by_run.get(s.id, 0.0) for s in runs]),
        "gpu.sim_ms": traced.sim_ms,
        "gpu.sim_bytes": total(
            [s for s in fixed if s.round == 0], "kernels.run", "bytes"
        ) / 1e6,
        "core.build_ms": ms(spans, "core.build"),
        "core.execute_ms": _median([s.ms for s in executes]),
        "core.unpermute_ms": _median(unpermute),
        "core.fallbacks": total(fixed, "core.build", "fallback"),
        "engine.item_ms": _median(samples.get("engine.item_ms", [])),
        "engine.batch_ms": ms(timed, "engine.batch"),
        "engine.plan_hit_rate": engines_delta["hits"] / lookups if lookups else 0.0,
        "engine.plan_builds": float(engines_delta["misses"]),
        "engine.evictions": float(engines_delta["evictions"]),
        "engine.queue_wait_ms": ms(timed, "engine.queue_wait"),
        "executors.sharded_ms": ms(timed, "executors.sharded"),
        "executors.overhead_ms": _median(
            [s.ms - s.attrs.get("slowest_shard_ms", 0.0) for s in sharded]
        ),
        "executors.placement_imbalance": executor.get("placement_imbalance", 0.0),
        "executors.segment_bytes": executor.get("segment_bytes", 0.0) / 1e6,
        "shard.partition_ms": ms(spans, "shard.partition"),
        "shard.imbalance": _median(
            [s.attrs["imbalance"] for s in named(fixed, "shard.partition")]
        ),
        "tuner.search_ms": _median([s.ms for s in tunes]),
        "tuner.measured": _median([s.attrs["measured"] for s in tunes_fixed]),
        "tuner.pruned": _median([s.attrs["pruned"] for s in tunes_fixed]),
        "tuner.tuned_vs_default": float(np.exp(np.mean(np.log(
            [s.attrs["tuned_vs_default"] for s in tunes_fixed]
        )))) if tunes_fixed else 0.0,
        "workloads.iterations": float(np.mean(round0["workloads.iterations"]))
        if round0.get("workloads.iterations") else 0.0,
        "workloads.spmm_ms": _median(samples.get("workloads.spmm_ms", [])),
        "workloads.other_ms": _median(samples.get("workloads.other_ms", [])),
        "serve.overhead_ms": _median(samples.get("serve.overhead_ms", [])),
        "serve.decode_ms": ms(timed, "serve.decode"),
        "serve.encode_ms": ms(timed, "serve.encode"),
        "serve.register_ms": ms(timed, "serve.register"),
        "serve.admission_wait_ms": ms(timed, "serve.admission_wait"),
        "serve.body_bytes": _median([s.attrs.get("bytes", 0.0) for s in http]) / 1e3,
        "serve.rejected": float(sum(
            count for (_, cls), count in traced.failed_kinds.items()
            if cls.startswith("http ")
        )),
        "obs.trace_overhead": (
            untraced.quiet_rate() / traced.quiet_rate()
        ),
    }
    return out
