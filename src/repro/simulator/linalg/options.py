"""Declarative configuration of the pluggable linear-solver layer.

:class:`SolverOptions` is the one object that travels from campaign configs
(the ``[solver]`` TOML table) down through :class:`~repro.core.flow.FlowOptions`
into every analysis: it picks the backend and carries the iterative and
multigrid tolerances, and — because it is a plain frozen dataclass of
primitives — participates in the studies extraction-cache key and the
persisted result sidecars without any extra plumbing.  Circuits small enough
for the dense LAPACK path
(:data:`~repro.simulator.solver.DENSE_MAX_UNKNOWNS`) do not consult the
backend at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import SimulationError

#: Direct sparse LU (SuperLU) — the reference backend, always correct.
BACKEND_DIRECT = "direct"
#: LU that reuses the fill-reducing column ordering across factorizations of
#: the same sparsity pattern (Newton iterations, transient steps, V_tune and
#: frequency points), redoing only the numeric work.
BACKEND_REUSE_LU = "reuse-lu"
#: Preconditioned conjugate gradients for SPD systems (the substrate mesh
#: Laplacian), with automatic fallback to direct LU on non-SPD systems or
#: CG breakdown.
BACKEND_ITERATIVE = "iterative"
#: Geometric multigrid on the structured (nx, ny, nz) substrate grid:
#: Galerkin-coarsened V/W-cycles used standalone on multi-RHS blocks or as a
#: CG preconditioner, degrading to CG/ILU (then LU) on non-grid or non-SPD
#: systems.
BACKEND_MULTIGRID = "multigrid"

BACKENDS = (BACKEND_DIRECT, BACKEND_REUSE_LU, BACKEND_ITERATIVE,
            BACKEND_MULTIGRID)

#: Preconditioner choices of the iterative backend.  "auto" resolves to AMG
#: when :mod:`pyamg` is importable and incomplete-LU otherwise.
PRECONDITIONERS = ("auto", "amg", "ilu", "jacobi", "none")

#: Smoother choices of the multigrid backend: red-black (laterally coloured)
#: z-line Gauss-Seidel — robust against the mesh's strong vertical
#: anisotropy (thin surface boxes) — or weighted point Jacobi.
MG_SMOOTHERS = ("rbgs", "jacobi")
#: Multigrid cycle shapes.
MG_CYCLES = ("v", "w")
#: How multigrid cycles are applied: "standalone" iterates cycles on the
#: whole (possibly multi-RHS) block, "pcg" runs CG per column with one cycle
#: as the preconditioner, "auto" picks standalone for blocks and pcg for
#: single vectors.
MG_MODES = ("auto", "standalone", "pcg")

@dataclass(frozen=True)
class SolverOptions:
    """Backend choice and tuning knobs of the linear-solver layer.

    The defaults reproduce the historical behaviour exactly: direct LU
    everywhere, analysis-supplied gmin.

    ``max_cached_patterns`` is a pure memory knob with no influence on
    results, so it is excluded from content fingerprints (extraction-cache
    keys, campaign resume identity) via ``__fingerprint_exclude__``.  Every
    future scheduler or memory knob must join this tuple: such knobs must
    never invalidate the extraction cache.
    """

    __fingerprint_exclude__ = ("max_cached_patterns",)

    #: one of :data:`BACKENDS`
    backend: str = BACKEND_DIRECT
    #: overrides the per-analysis gmin regularisation when set (siemens)
    gmin: float | None = None
    #: relative CG convergence tolerance (residual norm)
    cg_rtol: float = 1e-13
    #: absolute CG convergence tolerance
    cg_atol: float = 0.0
    #: CG iteration cap; 0 means the system size ``n``
    cg_max_iterations: int = 0
    #: one of :data:`PRECONDITIONERS`
    preconditioner: str = "auto"
    #: drop tolerance of the incomplete-LU preconditioner
    ilu_drop_tol: float = 1e-5
    #: fill factor of the incomplete-LU preconditioner
    ilu_fill_factor: float = 20.0
    #: fall back to direct LU on non-SPD systems / CG breakdown (recommended);
    #: when False those cases raise :class:`~repro.errors.SimulationError`
    iterative_fallback: bool = True
    #: symbolic analyses the reuse-lu backend keeps cached (LRU)
    max_cached_patterns: int = 8
    #: multigrid cycle shape, one of :data:`MG_CYCLES`
    mg_cycle: str = "v"
    #: multigrid smoother, one of :data:`MG_SMOOTHERS`
    mg_smoother: str = "rbgs"
    #: pre-smoothing sweeps per multigrid cycle
    mg_pre_smooth: int = 2
    #: post-smoothing sweeps per multigrid cycle
    mg_post_smooth: int = 1
    #: stop coarsening once a level has at most this many nodes (direct LU)
    mg_coarsest_size: int = 800
    #: cap on multigrid cycles per solve before falling down the ladder
    mg_max_cycles: int = 60
    #: relative residual target of the multigrid solve
    mg_rtol: float = 1e-12
    #: cycle application, one of :data:`MG_MODES`
    mg_mode: str = "auto"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise SimulationError(
                f"unknown solver backend {self.backend!r}; "
                f"choose one of {', '.join(BACKENDS)}")
        if self.preconditioner not in PRECONDITIONERS:
            raise SimulationError(
                f"unknown preconditioner {self.preconditioner!r}; "
                f"choose one of {', '.join(PRECONDITIONERS)}")
        if self.gmin is not None and self.gmin < 0.0:
            raise SimulationError("solver gmin must be >= 0")
        if self.cg_rtol <= 0.0:
            raise SimulationError("cg_rtol must be positive")
        if self.cg_atol < 0.0:
            raise SimulationError("cg_atol must be >= 0")
        if self.cg_max_iterations < 0:
            raise SimulationError("cg_max_iterations must be >= 0")
        if self.ilu_fill_factor < 1.0:
            raise SimulationError("ilu_fill_factor must be >= 1")
        if self.max_cached_patterns < 1:
            raise SimulationError("max_cached_patterns must be >= 1")
        if self.mg_cycle not in MG_CYCLES:
            raise SimulationError(
                f"unknown mg_cycle {self.mg_cycle!r}; "
                f"choose one of {', '.join(MG_CYCLES)}")
        if self.mg_smoother not in MG_SMOOTHERS:
            raise SimulationError(
                f"unknown mg_smoother {self.mg_smoother!r}; "
                f"choose one of {', '.join(MG_SMOOTHERS)}")
        if self.mg_mode not in MG_MODES:
            raise SimulationError(
                f"unknown mg_mode {self.mg_mode!r}; "
                f"choose one of {', '.join(MG_MODES)}")
        if self.mg_pre_smooth < 0 or self.mg_post_smooth < 0:
            raise SimulationError("mg_pre_smooth/mg_post_smooth must be >= 0")
        if self.mg_pre_smooth + self.mg_post_smooth < 1:
            raise SimulationError(
                "at least one smoothing sweep per multigrid cycle is required")
        if self.mg_coarsest_size < 1:
            raise SimulationError("mg_coarsest_size must be >= 1")
        if self.mg_max_cycles < 1:
            raise SimulationError("mg_max_cycles must be >= 1")
        if self.mg_rtol <= 0.0:
            raise SimulationError("mg_rtol must be positive")

    def effective_gmin(self, analysis_default: float) -> float:
        """The gmin to use: this object's override, or the analysis default."""
        return analysis_default if self.gmin is None else self.gmin
