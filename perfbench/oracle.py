"""The correctness oracle: checks made apart from the program.

Every check here uses only numpy and scipy on the benchmark's own copy
of the inputs (see :mod:`inputs`), never a result or helper of the
program under test.  Each check returns ``None`` when the output is
right, or a short reason string that the runner counts as a failure.

Tolerances
----------
The simulated precision is a property of the A100 cost model; the
numeric product itself is computed on the host in the dtype of the
stored values.  Each simulated precision therefore maps to the host
dtype its products come back in, and to a tolerance on
``|C - A B| <= rtol * (|A| |B|) + atol`` element-wise, the standard
bound for a sum of products rounded in that dtype:

=========  ===========  ======  =======
precision  host dtype   rtol    atol
=========  ===========  ======  =======
fp16       float32      1e-4    1e-6
bf16       float32      1e-4    1e-6
tf32       float32      1e-4    1e-6
fp64       float64      1e-10   1e-12
=========  ===========  ======  =======
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

#: the start of the reason given to a finite product outside its bound
WRONG_VALUES = "wrong result: error"

#: precision -> (rtol, atol) of a product, relative to |A| |B|
TOLERANCE = {
    "fp16": (1e-4, 1e-6),
    "bf16": (1e-4, 1e-6),
    "tf32": (1e-4, 1e-6),
    "fp64": (1e-10, 1e-12),
}


def check_product(
    case, B: np.ndarray, C: np.ndarray, precision: str = "fp16"
) -> Tuple[Optional[str], float]:
    """Compare one product ``C`` with scipy's ``case.ref @ B``.

    Returns ``(reason, scipy_ms)``: the failure reason (``None`` when the
    product is right) and the wall time of the scipy CSR product itself,
    a plain single-threaded baseline of the same multiply.  Workloads
    that multiply the same matrix by the same operand every round get
    scipy's answer computed once and kept on the case.
    """
    answer = case.answers.get(id(B))
    if answer is None or answer[0] is not B:
        B64 = np.asarray(B, dtype=np.float64)
        if B64.ndim == 1:
            B64 = B64.reshape(-1, 1)
        t0 = time.perf_counter()
        expected = case.ref @ B64
        scipy_ms = 1e3 * (time.perf_counter() - t0)
        rtol, atol = TOLERANCE[precision]
        bound = rtol * (abs(case.ref) @ np.abs(B64)) + atol
        answer = case.answers[id(B)] = (B, expected, bound, scipy_ms)
    _, expected, bound, scipy_ms = answer
    got = np.asarray(C, dtype=np.float64)
    if got.size != expected.size:
        return f"wrong result: shape {got.shape}, expected {expected.shape}", scipy_ms
    got = got.reshape(expected.shape)
    if not np.all(np.isfinite(got)):
        return "wrong result: non-finite values", scipy_ms
    err = np.abs(got - expected)
    if np.any(err > bound):
        worst = float((err / bound).max())
        return f"{WRONG_VALUES} {worst:.3g}x the {precision} bound", scipy_ms
    return None, scipy_ms


def pagerank_reference(ref: sp.csr_matrix, damping: float, tol: float = 1e-13) -> np.ndarray:
    """PageRank of the graph with adjacency ``ref``, by power iteration in scipy.

    ``M = |A|^T D_out^-1`` (column-stochastic; dangling columns stay
    zero and their mass is spread over the uniform teleport vector),
    iterated in float64 until the L1 change is below ``tol``.
    """
    n = ref.shape[0]
    S = abs(ref).tocsr()
    out_degree = np.asarray(S.sum(axis=1)).ravel()
    dangling = out_degree <= 0.0
    inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, out_degree))
    M = (sp.diags(inv) @ S).T.tocsr()
    v = np.full(n, 1.0 / n)
    x = v.copy()
    for _ in range(10_000):
        x_new = damping * (M @ x + x[dangling].sum() * v) + (1.0 - damping) * v
        x_new /= x_new.sum()
        if np.abs(x_new - x).sum() < tol:
            return x_new
        x = x_new
    return x


def check_pagerank(
    ref: sp.csr_matrix,
    scores: np.ndarray,
    *,
    damping: float,
    tol: float,
    expected: Optional[np.ndarray] = None,
) -> Optional[str]:
    """Compare PageRank scores with :func:`pagerank_reference`.

    A solve stopped at an L1 change below ``tol`` is within
    ``tol * d / (1 - d)`` of the fixed point; the check allows twice
    that, plus float32 rounding of the products.  ``expected`` passes a
    reference computed earlier for the same graph.
    """
    if expected is None:
        expected = pagerank_reference(ref, damping)
    got = np.asarray(scores, dtype=np.float64).ravel()
    if got.shape != expected.shape or not np.all(np.isfinite(got)):
        return "wrong result: pagerank scores malformed"
    limit = 2.0 * tol * damping / (1.0 - damping) + 1e-5
    dist = float(np.abs(got - expected).sum())
    if dist > limit:
        return f"wrong result: pagerank L1 distance {dist:.3g} > {limit:.3g}"
    return None


def check_residual(
    ref: sp.csr_matrix, x: np.ndarray, b: np.ndarray, *, tol: float
) -> Optional[str]:
    """Recompute a smoother's relative residual ``max_j ||b_j - A x_j|| / ||b_j||``.

    The smoother tracks its residual incrementally from float32
    products; the recomputed float64 residual may drift from it, so the
    check allows twice the solver tolerance.
    """
    X = np.asarray(x, dtype=np.float64).reshape(b.shape)
    r = b - ref @ X
    rel = float((np.linalg.norm(r, axis=0) / np.linalg.norm(b, axis=0)).max())
    if not np.isfinite(rel) or rel > 2.0 * tol:
        return f"wrong result: recomputed residual {rel:.3g} > {2.0 * tol:.3g}"
    return None


def check_peak(gflops: float, precision: str, arch) -> Optional[str]:
    """A simulated rate may not exceed the A100 peak of its precision."""
    peak = 1e3 * arch.peak_tflops(precision)
    if not gflops <= peak:
        return f"property: simulated {gflops:.4g} GFLOP/s above the {precision} peak {peak:.4g}"
    return None


def check_never_lose(tuned_ms: float, default_ms: float) -> Optional[str]:
    """A tuned plan's simulated time may not exceed the default plan's."""
    if not tuned_ms <= default_ms * (1.0 + 1e-12):
        return f"property: tuned plan {tuned_ms:.6g} ms slower than default {default_ms:.6g} ms"
    return None
