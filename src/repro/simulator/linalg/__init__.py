"""Linear-solver configuration: :class:`SolverOptions`, the ``[solver]`` table.

The solves themselves live in :mod:`repro.simulator.solver`.
"""

from ..._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".options": ("BACKENDS", "SolverOptions"),
})
