"""Pluggable linear-solver backend layer.

The strategy seam between "here is an assembled sparse system" and "here is
the solution": every analysis (DC, AC, transient, transfer functions, the
substrate Kron reduction) takes a ``solver=`` argument accepting a
:class:`SolverOptions` (declarative, travels through campaign configs and
cache keys) or a ready :class:`LinearSolver` instance (stateful, shares the
reuse-pattern cache across analyses).

Backends: :class:`DirectLUSolver` (SuperLU, the reference),
:class:`ReusePatternLUSolver` (symbolic-ordering reuse across same-pattern
factorizations), :class:`IterativeSolver` (preconditioned CG for SPD systems
with automatic direct-LU fallback), and :class:`MultigridSolver` (geometric
multigrid on the structured substrate grid, degrading to CG/ILU then LU on
non-grid or non-SPD systems).
"""

from ..solver import SolverStats
from .backends import (
    DirectLUSolver,
    IterativeSolver,
    LinearSolver,
    ReusePatternLUSolver,
    make_solver,
    resolve_solver,
)

# multigrid imports from .backends and self-registers into its backend
# registry, so it must come after — and the package __init__ always runs
# before any submodule import, which guarantees registration.
from .multigrid import GridGeometry, MultigridSolver
from .options import (
    BACKEND_DIRECT,
    BACKEND_ITERATIVE,
    BACKEND_MULTIGRID,
    BACKEND_REUSE_LU,
    BACKENDS,
    MG_CYCLES,
    MG_MODES,
    MG_SMOOTHERS,
    PRECONDITIONERS,
    SolverOptions,
)

__all__ = [
    "BACKENDS",
    "BACKEND_DIRECT",
    "BACKEND_ITERATIVE",
    "BACKEND_MULTIGRID",
    "BACKEND_REUSE_LU",
    "DirectLUSolver",
    "GridGeometry",
    "IterativeSolver",
    "LinearSolver",
    "MG_CYCLES",
    "MG_MODES",
    "MG_SMOOTHERS",
    "MultigridSolver",
    "PRECONDITIONERS",
    "ReusePatternLUSolver",
    "SolverOptions",
    "SolverStats",
    "make_solver",
    "resolve_solver",
]
