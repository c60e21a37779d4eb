"""MNA circuit simulator: DC, AC, transfer-function and transient analyses.

Systems of up to ``solver.DENSE_MAX_UNKNOWNS`` (64) unknowns solve densely with
LAPACK; larger ones, and transient analysis, go through SuperLU
(:mod:`repro.simulator.solver`).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".mna": ("MatrixStamper", "MnaStructure", "SolutionView", "solve_sparse",
             "stamp_linear_elements"),
    ".solver": ("Factorization", "SharedPatternPair", "SolverStats",
                "add_gmin_diagonal", "factorize", "gmin_diagonal",
                "stats as solver_stats"),
    ".linalg": ("SolverOptions",),
    ".dc": ("DcOptions", "DcSolution", "dc_operating_point"),
    ".ac": ("AcSolution", "ac_analysis"),
    ".transfer": ("TransferFunction", "substituted_sources",
                  "transfer_function", "transfer_functions"),
    ".transient": ("TransientOptions", "TransientSolution",
                   "transient_analysis"),
})
