"""The pluggable linear-solver backends.

Every analysis in the simulator used to call ``splu``/``spsolve`` directly;
this module is the strategy seam that replaced those hard-wired calls.  A
:class:`LinearSolver` exposes the same two operations the analyses always
needed —

* :meth:`LinearSolver.factorize` — prepare a matrix for repeated solves,
  returning a handle with a ``solve(rhs)`` accepting vectors or multi-RHS
  blocks,
* :meth:`LinearSolver.solve` — a one-shot solve,

— plus per-instance :class:`~repro.simulator.solver.SolverStats`, mirrored
into the module-level global.  Circuits small enough for the dense LAPACK
path (:data:`~repro.simulator.solver.DENSE_MAX_UNKNOWNS`) bypass the
backends and only count through :meth:`LinearSolver.solve_dense`.

Three implementations ship behind the seam:

* :class:`DirectLUSolver` — the historical SuperLU path, extracted verbatim.
* :class:`ReusePatternLUSolver` — reuses the fill-reducing column ordering
  (``perm_c`` of the first factorization) across every later matrix with the
  same sparsity pattern: Newton iterations, transient steps, V_tune points
  and AC frequency points all refactorize values only, skipping the COLAMD
  analysis and the structure scaffolding.
* :class:`IterativeSolver` — conjugate gradients with an AMG (when
  :mod:`pyamg` is available) or incomplete-LU preconditioner for symmetric
  positive-definite systems — the substrate mesh Laplacian — with automatic
  fallback to direct LU on non-SPD systems or CG breakdown.

A fourth backend, the geometric-multigrid
:class:`~repro.simulator.linalg.MultigridSolver`, lives in
:mod:`repro.simulator.linalg.multigrid` and self-registers via
:func:`register_backend`.
"""

from __future__ import annotations

import hashlib
import inspect
import warnings
from collections import OrderedDict

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Keyword spelling of CG's relative tolerance: ``rtol`` since SciPy 1.12,
#: ``tol`` before that (the package declares scipy >= 1.10).
_CG_RTOL_KEYWORD = ("rtol" if "rtol" in inspect.signature(spla.cg).parameters
                    else "tol")

from ...errors import SimulationError
from ...obs import get_logger, trace_span
from ..solver import (
    Factorization,
    SolverStats,
    _check_finite,
    _singular_hint,
    dense_solve,
    solve_sparse,
    stats as global_stats,
)
from .options import (
    BACKEND_DIRECT,
    BACKEND_ITERATIVE,
    BACKEND_REUSE_LU,
    SolverOptions,
)

logger = get_logger(__name__)


class LinearSolver:
    """Base class / protocol of the solver backends.

    Subclasses implement :meth:`factorize`; :meth:`solve` defaults to
    factorize-then-solve.  ``stats`` is per-instance; single-threaded solvers
    additionally mirror their counts into the module-level
    :data:`repro.simulator.solver.stats` so existing counter-based tests and
    benchmarks keep working (``mirror_global=False`` opts out, for the
    inner solvers of a degradation ladder).
    """

    name = "?"

    def __init__(self, options: SolverOptions | None = None, *,
                 mirror_global: bool = True):
        self.options = options or SolverOptions()
        self.stats = SolverStats(backend=self.name)
        self._mirror_global = mirror_global

    # -- counting ------------------------------------------------------------

    @property
    def _sinks(self) -> tuple[SolverStats, ...]:
        if self._mirror_global:
            return (self.stats, global_stats)
        return (self.stats,)

    def _bump(self, counter: str, amount: int = 1) -> None:
        for sink in self._sinks:
            setattr(sink, counter, getattr(sink, counter) + amount)

    # -- the seam ------------------------------------------------------------

    def factorize(self, matrix: sp.spmatrix, structure=None, grid=None):
        """Prepare ``matrix`` for repeated solves; returns a handle with
        ``solve(rhs)`` accepting a vector or a dense ``(n, k)`` block.

        ``grid`` optionally describes the structured mesh geometry behind the
        matrix (a :class:`~repro.simulator.linalg.GridGeometry`); the
        multigrid backend coarsens along it, every other backend ignores it.
        """
        raise NotImplementedError

    def solve(self, matrix: sp.spmatrix, rhs: np.ndarray,
              structure=None, grid=None) -> np.ndarray:
        """One-shot solve of ``matrix @ x = rhs``."""
        return self.factorize(matrix, structure=structure, grid=grid).solve(rhs)

    def solve_dense(self, matrices: np.ndarray, rhs: np.ndarray,
                    structure=None, factorizations: bool = True) -> np.ndarray:
        """LAPACK solve of a small dense system or ``(F, n, n)`` stack.

        Circuits at or below
        :data:`~repro.simulator.solver.DENSE_MAX_UNKNOWNS` unknowns bypass
        the sparse backends; this only routes the counts into this solver's
        stats (see :func:`~repro.simulator.solver.dense_solve`).
        """
        return dense_solve(matrices, rhs, structure=structure,
                           sinks=self._sinks, factorizations=factorizations)


class DirectLUSolver(LinearSolver):
    """The reference backend: one SuperLU factorization per matrix."""

    name = BACKEND_DIRECT

    def factorize(self, matrix: sp.spmatrix, structure=None,
                  grid=None) -> Factorization:
        return Factorization(matrix, structure=structure, sinks=self._sinks)

    def solve(self, matrix: sp.spmatrix, rhs: np.ndarray,
              structure=None, grid=None) -> np.ndarray:
        return solve_sparse(matrix, rhs, structure=structure,
                            sinks=self._sinks)


def _canonical_csc(matrix: sp.spmatrix) -> sp.csc_matrix:
    """Canonical CSC (summed duplicates, sorted indices) for stable patterns.

    Explicit zeros are deliberately *kept*: eliminating them would make the
    sparsity pattern value-dependent and defeat the whole point of symbolic
    reuse (the same stamps must always produce the same pattern).
    """
    csc = sp.csc_matrix(matrix)
    if csc is matrix:
        csc = csc.copy()
    csc.sum_duplicates()
    csc.sort_indices()
    return csc


class _PermutedLU:
    """A SuperLU factorization of a column-permuted matrix.

    ``splu`` was run on ``A[:, perm]`` with the natural column ordering, so
    solutions come back permuted: ``x[perm] = y``.  Solve semantics (multi-RHS
    blocks, complex RHS on a real factorization, finite checks) mirror
    :class:`~repro.simulator.solver.Factorization`.
    """

    def __init__(self, lu, perm: np.ndarray | None, matrix: sp.csc_matrix,
                 structure, sinks: tuple[SolverStats, ...]):
        self.shape = matrix.shape
        self._lu = lu
        self._perm = perm
        self._matrix = matrix
        self._structure = structure
        self._sinks = sinks
        self._complex = np.iscomplexobj(matrix.data)

    def _raw_solve(self, rhs: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(rhs) and not self._complex:
            return (self._lu.solve(np.ascontiguousarray(rhs.real))
                    + 1j * self._lu.solve(np.ascontiguousarray(rhs.imag)))
        return self._lu.solve(np.ascontiguousarray(rhs))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.shape[0]:
            raise SimulationError(
                f"RHS length {rhs.shape[0]} does not match matrix size "
                f"{self.shape[0]}")
        with trace_span("solver.solve"):
            solution = self._raw_solve(rhs)
        if self._perm is not None:
            unpermuted = np.empty_like(solution)
            unpermuted[self._perm] = solution
            solution = unpermuted
        for sink in self._sinks:
            sink.solves += 1
        return _check_finite(solution, self._matrix, self._structure)


class _PatternRecord:
    """Cached symbolic analysis of one sparsity pattern.

    ``order`` is the column order that reproduces the reference
    factorization's fill pattern when applied as ``A[:, order]`` — the
    *inverse* of SuperLU's ``perm_c`` (SuperLU reports the permutation that
    maps pre-permuted columns back to original positions, so pre-permuting
    with ``perm_c`` itself would scramble the ordering and explode the fill).

    ``matrix`` is a preallocated CSC scaffold of ``A[:, order]``: every
    refactorization gathers the new values into its (warm) data buffer in
    place instead of building a fresh matrix.
    """

    __slots__ = ("order", "gather", "matrix")

    def __init__(self, order, gather, matrix):
        self.order = order        #: fill-reducing column order (A[:, order])
        self.gather = gather      #: data[gather] re-sorts values into A[:, order]
        self.matrix = matrix      #: reusable CSC scaffold of A[:, order]


class ReusePatternLUSolver(LinearSolver):
    """LU that reuses the symbolic ordering across same-pattern matrices.

    The first factorization of a pattern runs the full SuperLU pipeline and
    captures its fill-reducing column permutation; every later matrix with an
    identical pattern is factorized as ``splu(A[:, perm], permc_spec=
    "NATURAL")`` — the COLAMD analysis and the permuted-structure scaffolding
    are skipped, and the only per-call structural work is one ``take`` of the
    data array.  Numeric partial pivoting still runs per factorization, so
    accuracy matches the direct backend.
    """

    name = BACKEND_REUSE_LU

    def __init__(self, options: SolverOptions | None = None, *,
                 mirror_global: bool = True):
        super().__init__(options, mirror_global=mirror_global)
        self._patterns: OrderedDict[bytes, _PatternRecord] = OrderedDict()

    @staticmethod
    def _pattern_key(csc: sp.csc_matrix) -> bytes:
        digest = hashlib.sha1()
        digest.update(csc.dtype.char.encode())   # scaffold buffers are typed
        digest.update(np.int64(csc.shape[0]).tobytes())
        digest.update(np.int64(csc.nnz).tobytes())
        digest.update(csc.indptr.tobytes())
        digest.update(csc.indices.tobytes())
        return digest.digest()

    @staticmethod
    def _splu(matrix: sp.csc_matrix, structure, **kwargs):
        try:
            return spla.splu(matrix, **kwargs)
        except RuntimeError as exc:
            raise SimulationError(
                f"sparse factorization failed: {exc}"
                + _singular_hint(matrix, structure)) from exc

    def _remember(self, key: bytes, csc: sp.csc_matrix,
                  perm_c: np.ndarray) -> None:
        order = np.empty_like(perm_c)
        order[perm_c] = np.arange(len(perm_c), dtype=perm_c.dtype)
        lengths = np.diff(csc.indptr)[order]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        starts = csc.indptr[order]
        # gather[k] = position in csc.data of the k-th entry of A[:, order]:
        # each permuted column is a contiguous slice of the original data.
        gather = (np.arange(csc.nnz, dtype=np.int64)
                  - np.repeat(indptr[:-1], lengths)
                  + np.repeat(starts, lengths)) if csc.nnz else \
            np.zeros(0, dtype=np.int64)
        scaffold = sp.csc_matrix(
            (np.empty(csc.nnz, dtype=csc.dtype),
             csc.indices[gather], indptr.astype(csc.indptr.dtype)),
            shape=csc.shape)
        self._patterns[key] = _PatternRecord(order=order, gather=gather,
                                             matrix=scaffold)
        while len(self._patterns) > self.options.max_cached_patterns:
            self._patterns.popitem(last=False)

    def factorize(self, matrix: sp.spmatrix, structure=None, grid=None):
        if matrix.shape[0] != matrix.shape[1]:
            raise SimulationError("MNA matrix must be square")
        if matrix.shape[0] == 0:
            return Factorization(matrix, structure=structure,
                                 sinks=self._sinks)
        csc = _canonical_csc(matrix)
        key = self._pattern_key(csc)
        record = self._patterns.get(key)
        if record is None:
            with trace_span("solver.factorize"):
                lu = self._splu(csc, structure)
            self._remember(key, csc, np.asarray(lu.perm_c))
            self._bump("factorizations")
            return _PermutedLU(lu, None, csc, structure, self._sinks)
        self._patterns.move_to_end(key)
        # Same column order as the reference factorization, so the numeric
        # partial pivoting makes the same choices: refactorized solutions are
        # bit-identical to a fresh direct factorization, minus its COLAMD
        # run.  The gather writes into the record's preallocated scaffold
        # (splu copies what it needs, so reusing the buffer is safe).
        with trace_span("solver.refactorize"):
            np.take(csc.data, record.gather, out=record.matrix.data)
            lu = self._splu(record.matrix, structure, permc_spec="NATURAL")
        self._bump("factorizations")
        self._bump("pattern_reuses")
        return _PermutedLU(lu, record.order, csc, structure, self._sinks)


def _amg_preconditioner(csc: sp.csc_matrix):
    """AMG preconditioner via :mod:`pyamg`, or ``None`` when unavailable."""
    try:
        import pyamg
    except ImportError:
        return None
    ml = pyamg.smoothed_aggregation_solver(sp.csr_matrix(csc))
    return ml.aspreconditioner(cycle="V")


class _CgFactorization:
    """CG "factorization": a preconditioner prepared for repeated solves.

    Each right-hand-side column runs preconditioned CG; breakdown or
    non-convergence falls back to one (lazily built, then reused) direct LU
    of the same matrix when the options allow it.
    """

    def __init__(self, solver: "IterativeSolver", csc: sp.csc_matrix,
                 preconditioner, structure):
        self.shape = csc.shape
        self._solver = solver
        self._csc = csc
        self._preconditioner = preconditioner
        self._structure = structure
        self._lu: Factorization | None = None
        options = solver.options
        self._maxiter = options.cg_max_iterations or csc.shape[0]

    def _fallback_lu(self):
        if self._lu is None:
            self._lu = self._solver._degraded_factorize(
                self._csc, self._structure,
                reason="CG did not converge")
        return self._lu

    def _cg_column(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is not None:
            # An earlier column already proved CG stagnant on this system;
            # don't burn maxiter iterations per remaining column.
            return self._lu.solve(rhs)
        options = self._solver.options
        iterations = 0

        def count(_x):
            nonlocal iterations
            iterations += 1

        tolerances = {_CG_RTOL_KEYWORD: options.cg_rtol,
                      "atol": options.cg_atol}
        with trace_span("solver.cg"):
            solution, info = spla.cg(self._csc, rhs, maxiter=self._maxiter,
                                     M=self._preconditioner, callback=count,
                                     **tolerances)
        self._solver._bump("cg_iterations", iterations)
        if info != 0:
            return self._fallback_lu().solve(rhs)
        self._solver._bump("cg_solves")
        self._solver._bump("solves")
        return solution

    def _solve_real_column(self, rhs: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(rhs):
            return (self._solve_real_column(np.ascontiguousarray(rhs.real))
                    + 1j * self._solve_real_column(
                        np.ascontiguousarray(rhs.imag)))
        return self._cg_column(rhs)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.shape[0]:
            raise SimulationError(
                f"RHS length {rhs.shape[0]} does not match matrix size "
                f"{self.shape[0]}")
        if rhs.ndim == 1:
            solution = self._solve_real_column(rhs)
        else:
            columns = [self._solve_real_column(np.ascontiguousarray(rhs[:, k]))
                       for k in range(rhs.shape[1])]
            solution = np.column_stack(columns) if columns else \
                np.zeros_like(rhs)
        return _check_finite(solution, self._csc, self._structure)


class IterativeSolver(LinearSolver):
    """Preconditioned CG for SPD systems, with an explicit degradation chain.

    The screen is conservative: a system qualifies for CG only when it is
    real, numerically symmetric and has a strictly positive diagonal — which
    in this codebase means the substrate mesh Laplacian (plus port contact
    conductances) of the Kron reduction.  Everything else — and any CG
    breakdown or stagnation — steps down an explicit, stats-recorded
    degradation ladder::

        iterative (CG)  ->  reuse-LU  ->  direct LU

    The first rung down is a shared :class:`ReusePatternLUSolver` (counted in
    ``stats.fallbacks``): repeated fallbacks of same-pattern systems — MNA
    matrices across Newton iterations, frequency points — pay the symbolic
    analysis once.  Only if that refactorization itself fails does the solve
    degrade to a plain direct factorization (counted in
    ``stats.fallback_direct``).  With ``iterative_fallback=False`` the ladder
    is disabled and non-CG-able systems raise instead.
    """

    name = BACKEND_ITERATIVE

    #: relative asymmetry tolerated by the SPD screen
    _SYMMETRY_RTOL = 1e-12

    def __init__(self, options: SolverOptions | None = None, *,
                 mirror_global: bool = True):
        super().__init__(options, mirror_global=mirror_global)
        self._fallback_solver: ReusePatternLUSolver | None = None

    def _spd_candidate(self, csc: sp.csc_matrix) -> bool:
        if np.iscomplexobj(csc.data) or csc.shape[0] == 0:
            return False
        diagonal = csc.diagonal()
        if diagonal.size == 0 or np.any(diagonal <= 0.0):
            return False
        scale = np.max(np.abs(csc.data)) if csc.nnz else 0.0
        if scale == 0.0:
            return False
        asymmetry = sp.csc_matrix(abs(csc - csc.T))
        max_asymmetry = asymmetry.data.max() if asymmetry.nnz else 0.0
        return bool(max_asymmetry <= self._SYMMETRY_RTOL * scale)

    def _make_preconditioner(self, csc: sp.csc_matrix):
        name = self.options.preconditioner
        if name == "none":
            return True, None
        if name == "jacobi":
            inverse_diagonal = 1.0 / csc.diagonal()
            return True, spla.LinearOperator(
                csc.shape, matvec=lambda x: inverse_diagonal * x)
        if name in ("auto", "amg"):
            preconditioner = _amg_preconditioner(csc)
            if preconditioner is not None:
                return True, preconditioner
            if name == "amg":
                # Warn (visible to interactive callers) *and* log with
                # structured context (machine-readable in run logs).
                warnings.warn(
                    "pyamg is not installed; the 'amg' preconditioner falls "
                    "back to incomplete LU", RuntimeWarning, stacklevel=4)
                logger.warning(
                    "preconditioner fallback: requested=%s actual=%s "
                    "reason=%s n=%d", name, "ilu", "pyamg not installed",
                    csc.shape[0])
        try:
            # SymmetricMode + no diagonal pivoting keeps the incomplete
            # factorization (approximately) symmetric — an incomplete-Cholesky
            # stand-in.  A pivoted ILU is *not* a valid CG preconditioner:
            # CG silently stagnates on the asymmetry.
            ilu = spla.spilu(csc, drop_tol=self.options.ilu_drop_tol,
                             fill_factor=self.options.ilu_fill_factor,
                             diag_pivot_thresh=0.0,
                             permc_spec="MMD_AT_PLUS_A",
                             options=dict(SymmetricMode=True))
        except (RuntimeError, ValueError):
            return False, None          # ILU broke down: not safely solvable
        return True, spla.LinearOperator(csc.shape, matvec=ilu.solve)

    def factorize(self, matrix: sp.spmatrix, structure=None, grid=None):
        if matrix.shape[0] != matrix.shape[1]:
            raise SimulationError("MNA matrix must be square")
        if matrix.shape[0] == 0:
            return Factorization(matrix, structure=structure,
                                 sinks=self._sinks)
        csc = _canonical_csc(matrix)
        if not self._spd_candidate(csc):
            return self._degraded_factorize(
                csc, structure, reason="matrix is not SPD-eligible for CG")
        with trace_span("solver.precondition"):
            ok, preconditioner = self._make_preconditioner(csc)
        if not ok:
            return self._degraded_factorize(
                csc, structure, reason="ILU preconditioner broke down")
        self._bump("factorizations")
        return _CgFactorization(self, csc, preconditioner, structure)

    def _reuse_lu(self) -> ReusePatternLUSolver:
        """The shared first-rung fallback solver (lazily built).

        Its stats object is *replaced* by this solver's, so every fallback
        factorization, pattern reuse and solve counts into the iterative
        backend's own counters (and the global mirror) — the ladder is one
        solver from the caller's point of view.
        """
        if self._fallback_solver is None:
            solver = ReusePatternLUSolver(self.options, mirror_global=False)
            solver.stats = self.stats
            solver._mirror_global = self._mirror_global
            self._fallback_solver = solver
        return self._fallback_solver

    def _degraded_factorize(self, csc: sp.csc_matrix, structure,
                            reason: str):
        """Step down the ladder: reuse-LU first, plain direct LU last."""
        if not self.options.iterative_fallback:
            raise SimulationError(
                f"{reason} and iterative_fallback is disabled")
        self._bump("fallbacks")
        logger.info("solver degradation: backend=%s rung=%s reason=%s n=%d",
                    self.name, "reuse-lu", reason, csc.shape[0])
        try:
            return self._reuse_lu().factorize(csc, structure=structure)
        except SimulationError:
            # The symbolic-reuse rung itself failed (e.g. pivot growth with
            # the cached ordering); one plain direct factorization is the
            # last rung before the error reaches the caller.
            self._bump("fallback_direct")
            logger.warning(
                "solver degradation: backend=%s rung=%s reason=%s n=%d",
                self.name, "direct", "reuse-LU rung failed", csc.shape[0])
            return Factorization(csc, structure=structure, sinks=self._sinks)


_BACKEND_CLASSES: dict[str, type[LinearSolver]] = {
    BACKEND_DIRECT: DirectLUSolver,
    BACKEND_REUSE_LU: ReusePatternLUSolver,
    BACKEND_ITERATIVE: IterativeSolver,
}


def register_backend(name: str, cls: type[LinearSolver]) -> None:
    """Register a backend class under its :data:`BACKENDS` name.

    Backends living outside this module (the geometric-multigrid solver)
    self-register at import time; the package ``__init__`` imports them after
    this module, so :func:`make_solver` always sees the full registry.
    """
    _BACKEND_CLASSES[name] = cls


def make_solver(options: SolverOptions | None = None) -> LinearSolver:
    """Instantiate the backend selected by ``options.backend``."""
    options = options or SolverOptions()
    return _BACKEND_CLASSES[options.backend](options)


def resolve_solver(solver: "SolverOptions | LinearSolver | None"
                   ) -> LinearSolver:
    """Normalise the ``solver=`` argument every analysis accepts.

    ``None`` means the historical direct-LU behaviour; a
    :class:`SolverOptions` builds a fresh backend; an existing
    :class:`LinearSolver` instance is passed through so callers (e.g.
    :class:`~repro.core.vco_experiment.VcoImpactAnalysis`) can share one
    solver — and its pattern cache — across many analyses.
    """
    if solver is None:
        return DirectLUSolver()
    if isinstance(solver, SolverOptions):
        return make_solver(solver)
    return solver
