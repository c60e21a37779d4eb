"""Linear-solver core: cached factorizations, dense batches, shared patterns.

The solver layer owns everything between "here is an assembled MNA system"
and "here is the solution vector":

* :func:`dense_solve` — LAPACK solves of small systems, one matrix or an
  ``(F, n, n)`` stack of them in a single call.  Circuits with at most
  :data:`DENSE_MAX_UNKNOWNS` unknowns (the paper's impact netlists) take
  this path for DC Newton steps and whole AC / transfer sweeps; sparse LU
  only pays off above it.
* :class:`Factorization` — one LU factorization of a sparse matrix, reusable
  for any number of right-hand sides (single vectors or multi-RHS blocks).
  Linear transient analysis has a constant left-hand side and factorizes
  exactly once for the whole time grid; the substrate Kron reduction solves
  its internal block against all port columns in a single call.
* :class:`SharedPatternPair` — ``G`` and ``C`` expanded onto one shared CSC
  sparsity pattern so a sparse AC sweep can assemble ``G + s*C`` per
  frequency by combining ``.data`` arrays in place, never reallocating
  matrix structure.
* :func:`solve_sparse` — one-shot solve with proper singular-matrix
  diagnostics: an exactly singular factorization becomes a
  :class:`~repro.errors.SimulationError` (naming the offending node when the
  MNA structure is available) and a finite-check backstop catches anything
  that slips through.
* :func:`add_gmin_diagonal` — the vectorized "gmin from every node to
  ground" regularisation shared by the DC, AC and transient analyses.

scipy is imported inside the sparse paths only: a process whose circuits all
take the dense path never loads it.

A module-level :data:`stats` counter records factorizations and solves so
tests (and benchmarks) can assert the caching behaviour — e.g. that a linear
transient performs exactly one factorization regardless of step count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SimulationError
from ..obs import trace_span

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass
class SolverStats:
    """Counters of the expensive solver operations (for tests / benchmarks).

    The module-level :data:`stats` is the one instance the solves count
    into; campaign runners read deltas of it around each run and task.
    """

    factorizations: int = 0     #: numeric factorizations (LU, dense or sparse)
    solves: int = 0             #: triangular / LAPACK solve calls
    fallbacks: int = 0          #: layered-mesh Kron reductions that needed a mesh solve
    dc_gmin_steps: int = 0      #: gmin-continuation rungs taken by DC Newton
    dc_source_steps: int = 0    #: source-stepping rungs taken by DC Newton

    _COUNTERS = ("factorizations", "solves", "fallbacks",
                 "dc_gmin_steps", "dc_source_steps")

    #: The subset of counters that record *graceful degradation* — a solve or
    #: analysis that only succeeded by stepping down a robustness ladder
    #: (contact-space -> mesh-solve Kron, plain Newton -> gmin stepping ->
    #: source stepping).  Campaign runners snapshot these around each task
    #: and surface non-zero deltas in result sidecars.
    DEGRADATION_COUNTERS = ("fallbacks", "dc_gmin_steps", "dc_source_steps")

    def reset(self) -> None:
        for name in self._COUNTERS:
            setattr(self, name, 0)


#: Global solver counters; ``stats.reset()`` before a run to measure it.
stats = SolverStats()

#: Largest MNA system solved densely with LAPACK instead of sparse LU.  At
#: or below it, DC Newton steps and whole AC / transfer sweeps (one
#: ``(F, n, n)`` stack) go through :func:`dense_solve`; above it the sparse
#: per-frequency path runs on SuperLU.  The value sits at the
#: measured crossover of a 60-point transfer sweep on resistor-grid circuits
#: (2-CPU x86-64, OpenBLAS): dense is 2-3x faster up to ~50 unknowns, the
#: two paths meet between ~60 and ~80, and sparse is 7x faster at 577.
DENSE_MAX_UNKNOWNS = 64


def is_dense(size: int) -> bool:
    """Whether an MNA system of ``size`` unknowns takes the dense path.

    Reads :data:`DENSE_MAX_UNKNOWNS` at call time, so tests can lower it to
    push a small circuit through the sparse path.
    """
    return size <= DENSE_MAX_UNKNOWNS


def _row_names(rows: np.ndarray, structure) -> list[str]:
    """Best-effort mapping of MNA row indices to node / branch names."""
    if structure is None:
        return [f"row {int(row)}" for row in rows]
    inverse: dict[int, str] = {}
    for name, row in structure.node_index.items():
        inverse[row] = f"node {name!r}"
    for name, row in structure.branch_index.items():
        inverse[row] = f"branch {name!r}"
    return [inverse.get(int(row), f"row {int(row)}") for row in rows]


def _singular_hint(matrix, structure=None, limit: int = 3) -> str:
    """Describe structurally empty rows (floating nodes) of a singular matrix.

    ``matrix`` is sparse, a dense array, or a dense ``(F, n, n)`` stack (a row
    counts as empty when it is empty in any matrix of the stack).
    """
    if isinstance(matrix, np.ndarray):
        row_abs_sum = np.abs(np.asarray(matrix)).sum(axis=-1)
        row_abs_sum = row_abs_sum.reshape(-1, row_abs_sum.shape[-1]).min(axis=0)
    else:
        row_abs_sum = np.asarray(abs(matrix.tocsr()).sum(axis=1)).ravel()
    bad = np.flatnonzero(row_abs_sum == 0.0)
    if bad.size == 0:
        return ""
    names = ", ".join(_row_names(bad[:limit], structure))
    suffix = ", ..." if bad.size > limit else ""
    return f" (all-zero matrix row for {names}{suffix} — floating node?)"


def _check_finite(solution: np.ndarray, matrix,
                  structure=None) -> np.ndarray:
    if not np.all(np.isfinite(solution)):
        raise SimulationError(
            "MNA solution contains non-finite values (singular matrix or "
            "floating node)" + _singular_hint(matrix, structure))
    return solution


def dense_solve(matrices: np.ndarray, rhs: np.ndarray, structure=None,
                factorizations: bool = True) -> np.ndarray:
    """Solve ``matrices[k] @ x[k] = rhs`` with LAPACK for every matrix.

    ``matrices`` is one dense ``(n, n)`` system or an ``(F, n, n)`` stack;
    ``rhs`` is a vector or an ``(n, k)`` block shared by every matrix, so the
    result has shape ``matrices.shape[:-2] + rhs.shape``.  Each matrix counts
    one solve — and one factorization unless ``factorizations`` is False,
    the one-shot :func:`solve_sparse` convention.  An exactly singular
    matrix becomes a :class:`~repro.errors.SimulationError` naming the
    floating node when ``structure`` is given; non-finite solutions are
    rejected as in the sparse path.
    """
    count = int(np.prod(matrices.shape[:-2], dtype=np.int64))
    if matrices.shape[-1] == 0:
        return np.zeros(matrices.shape[:-2] + rhs.shape,
                        dtype=np.result_type(matrices, rhs))
    try:
        with trace_span("solver.solve"):
            solution = np.linalg.solve(matrices, rhs)
    except np.linalg.LinAlgError as exc:
        raise SimulationError(
            f"dense factorization failed: {exc}"
            + _singular_hint(matrices, structure)) from exc
    if factorizations:
        stats.factorizations += count
    stats.solves += count
    return _check_finite(solution, matrices, structure)


class Factorization:
    """One LU factorization of a square sparse matrix, reusable across solves.

    ``solve`` accepts a single right-hand side vector or a dense ``(n, k)``
    multi-RHS block, real or complex (a complex RHS against a real
    factorization is solved as two real solves).
    """

    def __init__(self, matrix: sp.spmatrix, structure=None,
                 counted: bool = True):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        if matrix.shape[0] != matrix.shape[1]:
            raise SimulationError("MNA matrix must be square")
        self.shape = matrix.shape
        self._structure = structure
        self._counted = counted
        self._matrix = sp.csc_matrix(matrix)
        self._complex = np.iscomplexobj(self._matrix.data)
        if self.shape[0] == 0:
            self._lu = None
        else:
            # splu signals an exactly singular matrix with a RuntimeError
            # (no warning machinery involved — the solver layer stays free
            # of interpreter-global warnings-filter mutation).
            try:
                with trace_span("solver.factorize"):
                    self._lu = spla.splu(self._matrix)
            except RuntimeError as exc:
                raise SimulationError(
                    f"sparse factorization failed: {exc}"
                    + _singular_hint(self._matrix, structure)) from exc
        if counted:
            stats.factorizations += 1

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` using the cached factorization."""
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.shape[0]:
            raise SimulationError(
                f"RHS length {rhs.shape[0]} does not match matrix size "
                f"{self.shape[0]}")
        if self._lu is None:
            return np.zeros_like(rhs)
        with trace_span("solver.solve"):
            if np.iscomplexobj(rhs) and not self._complex:
                solution = (self._lu.solve(np.ascontiguousarray(rhs.real))
                            + 1j * self._lu.solve(
                                np.ascontiguousarray(rhs.imag)))
            else:
                if self._complex and not np.iscomplexobj(rhs):
                    rhs = rhs.astype(complex)
                solution = self._lu.solve(np.ascontiguousarray(rhs))
        if self._counted:
            stats.solves += 1
        return _check_finite(solution, self._matrix, self._structure)


def factorize(matrix: sp.spmatrix, structure=None) -> Factorization:
    """Factorize ``matrix`` once for reuse over many right-hand sides."""
    return Factorization(matrix, structure=structure)


def solve_sparse(matrix: sp.spmatrix, rhs: np.ndarray,
                 structure=None) -> np.ndarray:
    """One-shot sparse solve raising :class:`SimulationError` on failure.

    An exactly singular matrix fails the factorization with a
    :class:`SimulationError` naming the offending node when ``structure``
    (an :class:`~repro.simulator.mna.MnaStructure`) is available; the
    finite-check stays as a backstop for near-singular systems that solve
    without error.  Counts one ``solve`` (and no ``factorization``) in the
    stats, matching the historical one-shot-solve semantics.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise SimulationError("MNA matrix must be square")
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=rhs.dtype)
    solution = Factorization(matrix, structure=structure,
                             counted=False).solve(rhs)
    stats.solves += 1
    return np.atleast_1d(solution)


def gmin_diagonal(size: int, n_nodes: int,
                  gmin: float) -> sp.csr_matrix | None:
    """The reusable ``gmin``-to-ground diagonal matrix, or ``None`` for a no-op.

    Sparse Newton loops build this once and add it per iteration, so the
    regularisation costs one CSR addition per solve instead of a format
    conversion plus diagonal construction.
    """
    if gmin <= 0.0 or n_nodes <= 0:
        return None
    import scipy.sparse as sp

    diagonal = np.zeros(size)
    diagonal[:n_nodes] = gmin
    return sp.diags(diagonal, format="csr")


def add_gmin_diagonal(matrix: sp.spmatrix | np.ndarray, n_nodes: int,
                      gmin: float) -> sp.csr_matrix | np.ndarray:
    """Add ``gmin`` from every node to ground in one vectorized operation.

    Only the first ``n_nodes`` rows (the node equations) receive the shunt;
    branch-current rows are left untouched.  A dense array is updated in
    place and returned.  Otherwise returns CSR; a matrix that is already CSR
    is not re-canonicalized (the no-op path returns it as-is).
    """
    if isinstance(matrix, np.ndarray):
        if gmin > 0.0:
            nodes = np.arange(n_nodes)
            matrix[nodes, nodes] += gmin
        return matrix
    import scipy.sparse as sp

    base = matrix if sp.issparse(matrix) and matrix.format == "csr" \
        else sp.csr_matrix(matrix)
    diagonal = gmin_diagonal(matrix.shape[0], n_nodes, gmin)
    if diagonal is None:
        return base
    return base + diagonal


class SharedPatternPair:
    """``G`` and ``C`` expanded onto one shared CSC sparsity pattern.

    :meth:`assemble` builds ``G + s*C`` for any complex frequency ``s`` by
    writing into the ``.data`` array of a single preallocated matrix — no
    sparse additions, conversions or structure allocations per frequency
    point, which is what keeps many-point sparse AC sweeps cheap.
    """

    def __init__(self, g_matrix: sp.spmatrix, c_matrix: sp.spmatrix):
        import scipy.sparse as sp

        if g_matrix.shape != c_matrix.shape:
            raise SimulationError("G and C must have the same shape")
        g = self._canonical(g_matrix)
        c = self._canonical(c_matrix)
        # Union sparsity pattern via |G| + |C|: abs prevents cancellation, so
        # every slot that is nonzero in either matrix survives the addition.
        union = sp.csc_matrix(abs(g) + abs(c))
        union.sort_indices()
        n_rows = union.shape[0]
        union_cols = np.repeat(np.arange(union.shape[1], dtype=np.int64),
                               np.diff(union.indptr))
        union_keys = union_cols * n_rows + union.indices
        self.g_data = self._aligned_data(g, union, union_keys)
        self.c_data = self._aligned_data(c, union, union_keys)
        self._matrix = sp.csc_matrix(
            (np.zeros(union.nnz, dtype=complex), union.indices, union.indptr),
            shape=union.shape)

    @staticmethod
    def _canonical(matrix: sp.spmatrix) -> sp.csc_matrix:
        csc = matrix.tocsc(copy=True)
        csc.sum_duplicates()
        csc.eliminate_zeros()
        csc.sort_indices()
        return csc

    @staticmethod
    def _aligned_data(matrix: sp.csc_matrix, union: sp.csc_matrix,
                      union_keys: np.ndarray) -> np.ndarray:
        """Scatter ``matrix.data`` into the slots of the union pattern.

        Both matrices are canonical CSC, so their (column, row) keys are
        sorted and the matrix's pattern is a subset of the union's; a single
        ``searchsorted`` finds every slot.
        """
        cols = np.repeat(np.arange(matrix.shape[1], dtype=np.int64),
                         np.diff(matrix.indptr))
        keys = cols * matrix.shape[0] + matrix.indices
        data = np.zeros(union.nnz)
        data[np.searchsorted(union_keys, keys)] = matrix.data
        return data

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    def assemble(self, s: complex) -> sp.csc_matrix:
        """Return ``G + s*C`` on the shared pattern (in-place data update)."""
        np.multiply(self.c_data, s, out=self._matrix.data)
        self._matrix.data += self.g_data
        return self._matrix
