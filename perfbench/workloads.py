"""The four benchmark workloads.

Each workload is a closed loop with one caller.  Its constructor makes
the inputs from the seed (the benchmark's own work, never timed);
:meth:`setup` constructs the program's objects and warms them (timed as
``setup_s``); :meth:`ops` returns one round of operations, the same mix
in every round; :meth:`close` releases everything the program started.
Input make-up and mix shares are listed in README.md.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Dict, List, Optional

import numpy as np

import inputs
import oracle
from harness import Op, Outcome, Product
from inputs import operand, rng_for

#: pool widths, HTTP connections in flight and BLAS threads stay at or below nproc
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: the four baseline libraries of the paper, besides SMaT
BASELINES = ("cusparse", "dasp", "magicube", "cublas")

#: the nine Table-I stand-ins, in the paper's order
TABLE1 = (
    "mip1", "conf5_4-8x8", "cant", "pdb1HYS", "rma10",
    "cop20k_A", "consph", "shipsec1", "dc2",
)


def arch():
    from repro.gpu import A100_SXM4_40GB

    return A100_SXM4_40GB


def _product(case, B, C, report) -> Product:
    """A Product from an engine/plan MultiplyReport."""
    return Product(
        case, B, C, float(report.simulated_ms), float(report.useful_flops),
        float(report.gflops),
    )


def _batch_outcome(case, Bs, results, extra_checks=()) -> Outcome:
    out = Outcome(checks=list(extra_checks))
    for B, res in zip(Bs, results):
        out.products.append(_product(case, B, res.C, res.report))
        out.sample("engine.item_ms", res.wall_ms)
    return out


class EngineWarm:
    """In-process SpMMEngine with every plan built during set-up."""

    name = "engine_warm"
    scale = 0.01
    widths = (1, 8, 64)

    def __init__(self, seed: int):
        self.cases = []
        self.B: Dict[tuple, np.ndarray] = {}
        for i, name in enumerate(TABLE1):
            A = inputs.standin(name, self.scale, rng_for(seed, 1, i))
            self.cases.append(inputs.case_from_matrix(name, A))
            for N in self.widths:
                self.B[i, N] = operand(rng_for(seed, 2, i, N), A.ncols, N)
        self.engine = None
        self.default_sim: Dict[int, float] = {}

    def setup(self) -> None:
        from repro import ExecutionPolicy, SMaTConfig, SpMMEngine

        self.cfg_default = SMaTConfig()
        self.cfg_auto = SMaTConfig(kernel="auto")
        self.cfg_base = [SMaTConfig(kernel=BASELINES[i % 4]) for i in range(len(self.cases))]
        self.engine = SpMMEngine(
            policy=ExecutionPolicy(max_workers=WORKERS), cache_size=3 * len(self.cases) + 4
        )
        for i, case in enumerate(self.cases):
            B = self.B[i, 8]
            res = self.engine.execute_one(case.matrix, B, config=self.cfg_default)
            self.default_sim[i] = res.report.simulated_ms
            self.engine.execute_one(case.matrix, B, config=self.cfg_auto)
            self.engine.execute_one(case.matrix, B, config=self.cfg_base[i])

    def engines(self):
        return [self.engine]

    def _one(self, i, cfg, N, *, tuned=False) -> Op:
        case, B, engine = self.cases[i], self.B[i, N], self.engine
        default_ms = self.default_sim[i]

        def fn() -> Outcome:
            res = engine.execute_one(case.matrix, B, config=cfg)
            checks = []
            if tuned:  # the tuner optimises for N = 8, where it must never lose
                sim = res.report.simulated_ms
                checks.append(lambda: oracle.check_never_lose(sim, default_ms))
            return _batch_outcome(case, [B], [res], checks)

        return Op(f"execute_one/{'auto' if tuned else cfg.kernel}/N{N}", fn)

    def _batch(self, i, cfg, widths) -> Op:
        case, engine = self.cases[i], self.engine
        Bs = [self.B[i, N] for N in widths]

        def fn() -> Outcome:
            outcome = engine.multiply_many(case.matrix, Bs, config=cfg)
            return _batch_outcome(case, Bs, outcome.results)

        return Op(f"multiply_many/{cfg.kernel}/N{'+'.join(map(str, widths))}", fn)

    def ops(self, round_index: int) -> List[Op]:
        ops = []
        for i in range(len(self.cases)):
            ops += [
                self._one(i, self.cfg_default, 1),
                self._one(i, self.cfg_default, 8),
                self._one(i, self.cfg_auto, 8, tuned=True),
                self._one(i, self.cfg_base[i], 8),
                self._batch(i, self.cfg_auto, (1, 8)),
                self._batch(i, self.cfg_base[i], (8, 64)),
            ]
        return ops

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()


class HttpServe:
    """SpMMServer on an ephemeral loopback port with one SpMMClient."""

    name = "http_serve"
    scale = 0.01
    #: every write registers a fresh draw of this stand-in
    write_name = "cant"
    write_scale = 0.003
    #: writes per round: more than a tenth of the round's operations, so
    #: that ``op_p90_ms`` falls among them (the slowest kind)
    writes = 4
    token = "perfbench"
    #: (requests per round) sync multiplies at N = 1 / 8 / 64
    sync_mix = ((1, 6), (8, 7), (64, 3))
    #: server plan cache: the nine warm plans plus room for the last few
    #: writes' plans, so every write evicts one.  A larger cache only keeps
    #: more dead write plans, and the server's peak memory then depends on
    #: how many rounds a run gets through
    cache_size = 16
    #: a job is polled after pauses that start here and double up to the cap
    poll_first_s = 0.0002
    poll_max_s = 0.004

    def __init__(self, seed: int):
        self.seed = seed
        self.cases = []
        self.B: Dict[tuple, np.ndarray] = {}
        for i, name in enumerate(TABLE1):
            A = inputs.standin(name, self.scale, rng_for(seed, 3, i))
            self.cases.append(inputs.case_from_matrix(name, A))
            for N in (1, 8, 64):
                self.B[i, N] = operand(rng_for(seed, 4, i, N), A.ncols, N)
        # skewed popularity: Zipf(1) over the stand-ins, one request
        # sequence replayed every round.  It is drawn from a fixed stream,
        # not the seed, so every seed runs the same mix
        rng = rng_for(inputs.FIXED_STREAM, 5)
        weights = 1.0 / np.arange(1, len(self.cases) + 1)
        widths = [N for N, count in self.sync_mix for _ in range(count)]
        picks = rng.choice(len(self.cases), size=len(widths) + 3, p=weights / weights.sum())
        self.sync_reads = list(zip(picks[: len(widths)].tolist(), widths))
        self.job_reads = [int(picks[-3]), int(picks[-2])]
        self.stream_read = int(picks[-1])
        self.server = self.client = None
        self.fingerprints: Dict[int, str] = {}

    def setup(self) -> None:
        from repro import ExecutionPolicy, SpMMClient, SpMMServer
        from repro.serve.auth import Tenant

        # one tenant with room for every write a run makes, so quotas
        # never turn the write share into 429s
        tenant = self.tenant = Tenant(
            "perfbench", max_matrices=1_000_000, max_plans=1_000_000
        )
        self.server = SpMMServer(
            policy=ExecutionPolicy(max_workers=WORKERS),
            tokens={self.token: tenant},
            registry_capacity=1_000_000,
            cache_size=self.cache_size,
        ).start()
        self.client = SpMMClient(self.server.url, token=self.token)
        for i, case in enumerate(self.cases):
            self.fingerprints[i] = self.client.register(case.matrix)
            self.client.multiply(self.fingerprints[i], self.B[i, 8])

    def engines(self):
        return [self.server.engine]

    def _multiply_op(self, i, N) -> Op:
        case, B, fp, client = self.cases[i], self.B[i, N], self.fingerprints[i], self.client

        def fn() -> Outcome:
            t0 = time.perf_counter()
            C, info = client.multiply(fp, B)
            rt_ms = 1e3 * (time.perf_counter() - t0)
            out = Outcome([_http_product(case, B, C, info["report"])])
            out.sample("engine.item_ms", float(info["wall_ms"]))
            out.sample("serve.overhead_ms", rt_ms - float(info["wall_ms"]))
            return out

        return Op(f"POST /multiply N{N}", fn)

    def _job_op(self, i) -> Op:
        case, B, fp, client = self.cases[i], self.B[i, 8], self.fingerprints[i], self.client

        def fn() -> Outcome:
            job = client.submit(fp, B)
            pause = self.poll_first_s
            while True:
                payload = client.poll(job)
                if payload["status"] == "done":
                    return Outcome([_http_product(case, B, payload["C"], payload["report"])])
                if payload["status"] == "failed":
                    raise RuntimeError(f"job failed: {payload.get('error')}")
                time.sleep(pause)
                pause = min(2.0 * pause, self.poll_max_s)

        return Op("POST /jobs + polls", fn)

    def _stream_op(self, i) -> Op:
        case, fp, client = self.cases[i], self.fingerprints[i], self.client
        Bs = [self.B[i, 1], self.B[i, 8], self.B[i, 8]]

        def fn() -> Outcome:
            results = dict(client.stream(fp, Bs))
            # stream records carry no execution report: checked, not clocked
            return Outcome(
                [Product(case, B, results.get(k), 0.0, 0.0, 0.0) for k, B in enumerate(Bs)]
            )

        return Op("POST /stream x3", fn)

    def _write_op(self, round_index, k) -> Op:
        A = inputs.standin(
            self.write_name, self.write_scale, rng_for(self.seed, 6, round_index, k)
        )
        case = inputs.case_from_matrix(f"new-{self.write_name}", A)
        B = operand(rng_for(self.seed, 7, round_index, k), A.ncols, 8)
        client, registry, tenant = self.client, self.server.registry, self.tenant

        def fn() -> Outcome:
            fp = client.register(A)
            C, info = client.multiply(fp, B)
            # the HTTP API has no route to drop a registration; without this
            # the server's memory would grow with the number of rounds run
            drop = functools.partial(registry.delete, fp, tenant)
            return Outcome([_http_product(case, B, C, info["report"])], cleanup=[drop])

        return Op("POST /matrices + /multiply", fn)

    def ops(self, round_index: int) -> List[Op]:
        ops = [self._multiply_op(i, N) for i, N in self.sync_reads]
        ops += [self._job_op(i) for i in self.job_reads]
        ops.append(self._stream_op(self.stream_read))
        ops += [self._write_op(round_index, k) for k in range(self.writes)]
        return ops

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


def _http_product(case, B, C, report: dict) -> Product:
    """A Product from the JSON report of a served multiply."""
    n_cols = 1 if np.ndim(B) == 1 else B.shape[1]
    sim_ms = float(report["simulated_ms"])
    return Product(
        case, B, C, sim_ms, 2.0 * case.ref.nnz * n_cols, float(report["gflops"])
    )


class ColdPlan:
    """Every operation: a never-seen matrix, its plan build, one product."""

    name = "cold_plan"
    scale = 0.01
    #: one plan per Table-I stand-in, the same in every round: the
    #: default SMaT pipeline, each baseline library's own conversion,
    #: and a tuned share
    standin_plans = (
        ("mip1", "smat"), ("conf5_4-8x8", "magicube"), ("cant", "smat"),
        ("pdb1HYS", "auto"), ("rma10", "cusparse"), ("cop20k_A", "auto"),
        ("consph", "dasp"), ("shipsec1", "cublas"), ("dc2", "auto"),
    )
    #: stand-ins drawn at another scale than ``scale``: pdb1HYS at 0.04
    #: (1440 rows, like cop20k_A's 1200 and dc2's 1080) so that the three
    #: tuned plans take similar times.  They are the slowest kind and
    #: 3/16 of a round, so ``op_p90_ms`` falls near their middle, not in
    #: the tail of one or two of them
    scales = {"pdb1HYS": 0.04}
    band_n = 1200
    #: (half-bandwidth, kernel) of the two band matrices of a round
    band_plans = ((16, "smat"), (40, "cusparse"))
    fem_nodes = (30, 30)
    #: kernels every FEM-assembled matrix is built for, in this order
    fem_kernels = ("smat",) + BASELINES
    #: the kernels whose plans keep only the last of repeated entries
    #: (README, known fault); cuSPARSE and DASP sum them and must be right
    fem_faulty = ("smat", "magicube", "cublas")

    def __init__(self, seed: int):
        self.seed = seed
        self.engine = None

    def setup(self) -> None:
        from repro import ExecutionPolicy, SMaTConfig, SpMMEngine

        self.engine = SpMMEngine(policy=ExecutionPolicy(max_workers=WORKERS), cache_size=8)
        # pay what a process pays once (lazy imports, the tuner's model
        # calibration) on one seed-derived matrix per plan kind
        A = inputs.standin("cant", self.scale, rng_for(self.seed, 8))
        B = operand(rng_for(self.seed, 9), A.ncols, 8)
        for kernel in ("smat", "auto") + BASELINES:
            M = type(A)(A.rowptr.copy(), A.col.copy(), A.val.copy(), A.shape)
            self.engine.execute_one(M, B, config=SMaTConfig(kernel=kernel))

    def engines(self):
        return [self.engine]

    def _op(self, case, kernel, B, *, known_fault=False) -> Op:
        from repro import SMaTConfig
        from repro.core.plan import ExecutionPlan
        from repro.formats import CSRMatrix

        cfg = SMaTConfig(kernel=kernel)
        engine = self.engine
        rowptr, col, val, shape = case.arrays()

        def fn() -> Outcome:
            A = CSRMatrix(rowptr, col, val, shape)
            res = engine.execute_one(A, B, config=cfg)
            checks = []
            if kernel == "auto":
                sim = res.report.simulated_ms

                def never_lose() -> Optional[str]:
                    _, default = ExecutionPlan.build(A, SMaTConfig()).execute(B)
                    return oracle.check_never_lose(sim, default.simulated_ms)

                checks.append(never_lose)
            return _batch_outcome(case, [B], [res], checks)

        return Op(f"{case.label.split('-')[0]}/{kernel}", fn, known_fault=known_fault)

    def ops(self, round_index: int) -> List[Op]:
        r, seed = round_index, self.seed
        cases, kernels = [], []
        for k, (name, kernel) in enumerate(self.standin_plans):
            scale = self.scales.get(name, self.scale)
            A = inputs.standin(name, scale, rng_for(seed, 10, r, k))
            cases.append(inputs.case_from_matrix(f"{name}-{r}", A))
            kernels.append(kernel)
        for k, (bw, kernel) in enumerate(self.band_plans):
            A = inputs.band(self.band_n, bw, rng_for(seed, 12, r, k))
            cases.append(inputs.case_from_matrix(f"band{bw}-{r}", A))
            kernels.append(kernel)
        ops = [
            self._op(case, kernel, operand(rng_for(seed, 13, r, k), case.shape[1], 8))
            for k, (case, kernel) in enumerate(zip(cases, kernels))
        ]
        # FEM-assembled, repeated (row, col) entries: inputs drawn from the
        # round index alone, never from the seed (see README, known fault)
        fem = inputs.fem_assembled(*self.fem_nodes, rng_for(inputs.FIXED_STREAM, r))
        B = operand(rng_for(inputs.FIXED_STREAM, r, 1), fem.shape[1], 8)
        ops += [
            self._op(fem, kernel, B, known_fault=kernel in self.fem_faulty)
            for kernel in self.fem_kernels
        ]
        return ops

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()


class SolverSharded:
    """PageRank and Chebyshev solves on warm operators, sharded grid=2."""

    name = "solver_sharded"
    #: (stand-in, scale) of the PageRank graphs, sized so that every
    #: solve of a round takes a similar time
    graph_plans = (("dc2", 0.02), ("pdb1HYS", 0.05))
    scale = 0.02
    band_n = 4800
    damping = 0.85
    pagerank_tol = 1e-4
    smoother_tol = 1e-3
    max_iter = 300
    rhs = 4

    def __init__(self, seed: int):
        self.graphs = [
            inputs.case_from_matrix(name, inputs.standin(name, scale, rng_for(seed, 20, i)))
            for i, (name, scale) in enumerate(self.graph_plans)
        ]
        cant = inputs.standin("cant", self.scale, rng_for(seed, 21))
        band = inputs.band(self.band_n, 12, rng_for(seed, 22))
        self.meshes = [inputs.spd_operator("cant", cant), inputs.spd_operator("band", band)]
        self.b = [
            rng_for(seed, 23, i).standard_normal((m.shape[0], self.rhs))
            for i, m in enumerate(self.meshes)
        ]
        self._expected: Dict[int, np.ndarray] = {}
        self.thread = self.process = None
        self.per_iter: Dict[tuple, tuple] = {}

    def setup(self) -> None:
        from repro import ExecutionPolicy, SpMMEngine
        from repro.formats import transition_matrix

        def engine(executor, workers):
            return SpMMEngine(
                policy=ExecutionPolicy(
                    max_workers=workers, sharded=True, grid=2, executor=executor
                ),
                cache_size=32,
            )

        # the thread executor runs its two shards in the calling thread:
        # the shard products hold the GIL, so a second thread adds only
        # hand-offs (and, on a host that steals CPU, convoys behind them)
        self.thread, self.process = engine("thread", 1), engine("process", WORKERS)
        for eng in self.engines():
            for gi, g in enumerate(self.graphs):
                self._pagerank(eng, gi)
                M = transition_matrix(g.matrix)
                self._clock(eng, ("pr", gi), M, np.ones((M.ncols, 1), dtype=np.float32))
            for mi, m in enumerate(self.meshes):
                self._chebyshev(eng, mi)
                B = np.ones((m.shape[1], self.rhs), dtype=np.float32)
                self._clock(eng, ("ch", mi), m.matrix, B)

    def _clock(self, eng, key, M, B) -> None:
        """Simulated critical path and useful flops of one sharded product
        (every iteration of a solve repeats it)."""
        _, report = eng.multiply_sharded(M, B, return_report=True)
        flops = 2.0 * M.nnz * B.shape[1]
        self.per_iter[id(eng), key] = (report.critical_path_ms, flops)

    def engines(self):
        return [self.thread, self.process]

    def _pagerank(self, eng, gi):
        from repro.workloads import pagerank

        return pagerank(
            self.graphs[gi].matrix, engine=eng, damping=self.damping,
            tol=self.pagerank_tol, max_iter=self.max_iter,
        )

    def _chebyshev(self, eng, mi):
        from repro.workloads import chebyshev_smoother

        return chebyshev_smoother(
            self.meshes[mi].matrix, self.b[mi], engine=eng,
            tol=self.smoother_tol, max_iter=self.max_iter,
        )

    def _solve_outcome(self, eng, key, result, wall_ms, check) -> Outcome:
        report = result.report
        crit_ms, flops = self.per_iter[id(eng), key]
        n = report.iterations
        out = Outcome([Product(None, None, None, n * crit_ms, n * flops,
                               flops / (1e6 * crit_ms))])
        if not report.converged:
            out.checks.append(
                lambda: f"iteration cap: {n} iterations, residual {report.final_residual:.3g}"
            )
        out.checks.append(check)
        out.sample("workloads.iterations", n)
        for ms in report.spmm_ms:
            out.sample("workloads.spmm_ms", ms)
        out.sample("workloads.other_ms", (wall_ms - report.total_spmm_ms) / max(1, n))
        return out

    def expected(self, gi) -> np.ndarray:
        """The oracle's PageRank of graph ``gi`` (computed once)."""
        if gi not in self._expected:
            self._expected[gi] = oracle.pagerank_reference(self.graphs[gi].ref, self.damping)
        return self._expected[gi]

    def _solve_op(self, eng, key, kind, solve, check) -> Op:
        """One solve to tolerance; ``check(result)`` runs the oracle on it."""

        def fn() -> Outcome:
            t0 = time.perf_counter()
            result = solve(eng)
            wall_ms = 1e3 * (time.perf_counter() - t0)
            return self._solve_outcome(eng, key, result, wall_ms, lambda: check(result))

        return Op(kind, fn)

    def _pagerank_op(self, eng, gi, label) -> Op:
        ref = self.graphs[gi].ref

        def check(result) -> Optional[str]:
            return oracle.check_pagerank(
                ref, result.scores, damping=self.damping, tol=self.pagerank_tol,
                expected=self.expected(gi),
            )

        return self._solve_op(
            eng, ("pr", gi), f"pagerank/{self.graphs[gi].label}/{label}",
            lambda e: self._pagerank(e, gi), check,
        )

    def _chebyshev_op(self, eng, mi, label) -> Op:
        ref, b = self.meshes[mi].ref, self.b[mi]

        def check(result) -> Optional[str]:
            return oracle.check_residual(ref, result.x, b, tol=self.smoother_tol)

        return self._solve_op(
            eng, ("ch", mi), f"chebyshev/{self.meshes[mi].label}/{label}",
            lambda e: self._chebyshev(e, mi), check,
        )

    def ops(self, round_index: int) -> List[Op]:
        ops = []
        for eng, label in ((self.thread, "thread"), (self.process, "process")):
            ops += [self._pagerank_op(eng, gi, label) for gi in range(len(self.graphs))]
            ops += [self._chebyshev_op(eng, mi, label) for mi in range(len(self.meshes))]
        return ops

    def close(self) -> None:
        for eng in (self.thread, self.process):
            if eng is not None:
                eng.close()


WORKLOADS = {w.name: w for w in (EngineWarm, HttpServe, ColdPlan, SolverSharded)}
