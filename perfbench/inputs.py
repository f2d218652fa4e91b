"""Input generation for the benchmark workloads.

Every input is derived from the run's ``--seed`` (and, for inputs that
change from round to round, the round index) through
:func:`rng_for`, so the same seed always produces the same matrices and
operands.  The program only ever receives the generated arrays.

Each matrix comes with an independent *reference copy* for the oracle:
a float64 ``scipy.sparse`` CSR matrix built from copies of the same
arrays, with repeated ``(row, col)`` entries summed (scipy's and
MATLAB's convention).  The program never sees the reference arrays, so
nothing it does to its own inputs can change the oracle's answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

#: seed-independent entropy for inputs that must not depend on ``--seed``
#: (the duplicate-entry matrices: they fail every time, on every seed)
FIXED_STREAM = 7_919


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """A generator keyed by the run seed and any number of integer tags."""
    return np.random.default_rng([int(seed), *(int(t) for t in tags)])


def reference(rowptr, col, val, shape) -> sp.csr_matrix:
    """The oracle's float64 copy of a CSR matrix, duplicates summed."""
    ref = sp.csr_matrix(
        (np.array(val, dtype=np.float64), np.array(col, dtype=np.int64),
         np.array(rowptr, dtype=np.int64)),
        shape=tuple(int(s) for s in shape),
    )
    ref.sum_duplicates()
    return ref


@dataclass
class Case:
    """One input matrix: raw CSR arrays, the oracle's copy, and a label.

    ``matrix`` is the program's :class:`~repro.formats.CSRMatrix` when the
    workload hands the program a ready-made matrix; workloads that time
    CSR construction build it from :meth:`arrays` inside the operation.
    """

    label: str
    rowptr: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: Tuple[int, int]
    ref: sp.csr_matrix
    matrix: Optional[object] = None
    #: the oracle's answers for operands this case was already checked
    #: against, by operand identity (see :func:`oracle.check_product`)
    answers: dict = field(default_factory=dict, repr=False)

    def arrays(self):
        """Fresh copies of the CSR arrays (the program may sort them in place)."""
        return self.rowptr.copy(), self.col.copy(), self.val.copy(), self.shape


def case_from_matrix(label: str, A) -> Case:
    """Wrap a program-side CSRMatrix, copying its arrays for the oracle."""
    rowptr, col, val = (np.array(a) for a in (A.rowptr, A.col, A.val))
    return Case(
        label, rowptr, col, val, tuple(A.shape), reference(rowptr, col, val, A.shape), A
    )


def case_from_arrays(label: str, rowptr, col, val, shape) -> Case:
    """A case the program receives as raw arrays (no CSRMatrix yet)."""
    return Case(label, rowptr, col, val, tuple(shape), reference(rowptr, col, val, shape))


def standin(name: str, scale: float, rng: np.random.Generator):
    """A Table-I stand-in drawn from ``rng`` (not the module's fixed seed)."""
    from repro.matrices import suitesparse

    return suitesparse.load(name, scale=scale, rng=rng, use_cache=False)


def band(n: int, bandwidth: int, rng: np.random.Generator):
    """A band stand-in (the paper's Figure 9 family)."""
    from repro.matrices import band_matrix

    return band_matrix(n, bandwidth, rng=rng)


def fem_assembled(nx: int, ny: int, rng: np.random.Generator) -> Case:
    """A bilinear-quad FEM mesh assembled element by element.

    Every element adds a dense 4x4 element matrix to its four nodes'
    rows, and the CSR arrays keep each contribution as its own entry, as
    FEM codes emit them before compression: node pairs shared by ``k``
    elements appear ``k`` times.  Rows are grouped, columns within a row
    are left unsorted.  Values are positive, so a product that keeps
    only one of the repeated values is off by whole entries, far outside
    any rounding tolerance.
    """
    nodes = np.arange(nx * ny).reshape(ny, nx)
    quads = np.stack(
        [nodes[:-1, :-1], nodes[:-1, 1:], nodes[1:, 1:], nodes[1:, :-1]], axis=-1
    ).reshape(-1, 4)
    rows = np.repeat(quads, 4, axis=1).ravel()
    cols = np.tile(quads, (1, 4)).ravel()
    vals = rng.uniform(0.5, 1.5, size=rows.size).astype(np.float32)
    order = np.argsort(rows, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    n = nx * ny
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=rowptr[1:])
    return case_from_arrays(f"fem{nx}x{ny}", rowptr, cols.astype(np.int64), vals, (n, n))


def spd_operator(label: str, A) -> Case:
    """A symmetric, strictly diagonally dominant M-matrix with ``A``'s pattern.

    ``D - W`` with ``W = |A| + |A|^T`` (diagonal dropped) and ``D`` the
    row sums of ``W`` plus their mean, so the spectrum lies in
    ``[mean, 2 max + mean]``: the Chebyshev smoother converges on it at a
    rate set by that interval.  Built by the benchmark (scipy) and handed
    to the program as plain arrays.
    """
    from repro.formats import CSRMatrix

    S = abs(A.to_scipy().astype(np.float64))
    W = (S + S.T).tocsr()
    W.setdiag(0.0)
    W.eliminate_zeros()
    d = np.asarray(W.sum(axis=1)).ravel()
    M = (sp.diags(d + d.mean()) - W).tocsr().astype(np.float32)
    M.sort_indices()
    program = CSRMatrix(M.indptr.copy(), M.indices.copy(), M.data.copy(), M.shape)
    return case_from_matrix(label, program)


def operand(rng: np.random.Generator, rows: int, n_cols: int) -> np.ndarray:
    """A dense float32 operand ``B`` of shape ``(rows, n_cols)``."""
    return rng.standard_normal((rows, n_cols)).astype(np.float32)
