"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracle  # noqa: E402
from harness import Op, Outcome, Product, Runner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=300, cwd=str(cwd),
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_reaches_its_end(workload):
    result = last_json(run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
    ))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload == "cold_plan":
        # whole rounds of 16 operations, 3 of them the duplicate-entry fault
        assert result["failed"] * 16 == result["attempted"] * 3
    else:
        assert result["failed"] == 0


def test_every_metric_is_printed_with_its_unit():
    untraced = last_json(run_bench(
        "--workload", "engine_warm", "--seed", "4", "--seconds", "1", "--trace", "0",
    ))
    traced = last_json(run_bench(
        "--workload", "http_serve", "--seed", "4", "--seconds", "1", "--trace", "1",
    ))
    for result, declared in ((untraced, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            printed = result["metrics"][m["name"]]
            assert printed["unit"] == m["unit"]
            assert isinstance(printed["value"], (int, float))
    for name in ("setup_s", "ops_per_s", "sim_gflops"):
        assert untraced["metrics"][name]["value"] > 0
    assert (ROOT / ".perfbench" / "trace-http_serve-seed4.json").is_file()


def test_missing_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "engine_warm", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


class _Arch:
    @staticmethod
    def peak_tflops(precision):
        return 312.0


class _Ops:
    def __init__(self, ops):
        self._ops = ops

    def ops(self, round_index):
        return self._ops


def _case(seed=0, n=60):
    A = sp.random(n, n, density=0.1, format="csr", random_state=seed, dtype=np.float32)
    A.data += 0.5
    return inputs.case_from_arrays("t", A.indptr, A.indices, A.data, A.shape)


def test_oracle_counts_perturbed_product_as_failed():
    case = _case()
    B = np.random.default_rng(0).standard_normal((60, 8)).astype(np.float32)
    C = (case.ref @ B).astype(np.float32)
    wrong = C.copy()
    wrong[7, 3] += 1e-2 * (abs(case.ref) @ abs(B))[7, 3] + 1e-3

    def op(C_out):
        return Op("product", lambda: Outcome([Product(case, B, C_out, 1.0, 1.0, 1.0)]))

    runner = Runner(_Arch())
    runner.run(_Ops([op(C), op(wrong)]), 0.0)
    assert (runner.attempted, runner.failed, runner.unexpected) == (2, 1, 1)
    assert runner.failed_kinds[("product", "wrong result")] == 1


def test_only_a_wrong_product_is_the_known_fault():
    case = _case(seed=2)
    B = np.random.default_rng(2).standard_normal((60, 8)).astype(np.float32)
    right = (case.ref @ B).astype(np.float32)
    wrong = right + 1.0

    def raises():
        raise RuntimeError("build failed")

    ops = [
        Op("fem/smat", lambda: Outcome([Product(case, B, wrong, 1.0, 1.0, 1.0)]),
           known_fault=True),
        Op("fem/smat", raises, known_fault=True),
        Op("fem/smat", lambda: Outcome([Product(case, B, right, 1.0, 1.0, 4e5)]),
           known_fault=True),
    ]
    runner = Runner(_Arch())
    runner.run(_Ops(ops), 0.0)
    # the wrong product is the fault; an exception is not, and neither is
    # a right product whose simulated rate breaks the peak
    assert (runner.attempted, runner.failed, runner.unexpected) == (3, 3, 2)


class _Refused(Exception):
    status = 429


def test_http_refusals_count_as_serve_rejected():
    from tracing import Recorder, layer_metrics

    def refused():
        raise _Refused("too many requests")

    def ok():
        return Outcome()

    untraced = Runner(_Arch())
    untraced.run(_Ops([Op("ok", ok)]), 0.0)
    rec = Recorder()
    traced = Runner(_Arch(), recorder=rec)
    traced.run(_Ops([Op("POST /multiply", refused), Op("ok", ok)]), 0.0)
    delta = {"hits": 0, "misses": 0, "evictions": 0}
    metrics = layer_metrics(rec, traced, untraced, delta, {})
    assert metrics["serve.rejected"] == 1.0
    assert (traced.failed, traced.unexpected) == (1, 1)


def test_oracle_counts_wrong_pagerank_as_failed():
    case = _case(seed=1)
    damping, tol = 0.85, 1e-8
    scores = oracle.pagerank_reference(case.ref, damping)
    shuffled = np.random.default_rng(1).permutation(scores)

    def op(x):
        check = lambda: oracle.check_pagerank(case.ref, x, damping=damping, tol=tol)  # noqa: E731
        return Op("pagerank", lambda: Outcome(checks=[check]))

    runner = Runner(_Arch())
    runner.run(_Ops([op(scores), op(shuffled)]), 0.0)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_duplicate_entries_are_summed_by_the_oracle():
    case = inputs.fem_assembled(3, 3, np.random.default_rng(0))
    assert case.ref.nnz < case.val.size
    dense = np.zeros(case.shape)
    rows = np.repeat(np.arange(case.shape[0]), np.diff(case.rowptr))
    np.add.at(dense, (rows, case.col), case.val)
    assert np.allclose(case.ref.toarray(), dense)


def test_peak_and_never_lose_properties():
    assert oracle.check_peak(400e3, "fp16", _Arch()) is not None
    assert oracle.check_peak(100.0, "fp16", _Arch()) is None
    assert oracle.check_never_lose(1.0, 2.0) is None
    assert oracle.check_never_lose(2.0, 1.0) is not None
