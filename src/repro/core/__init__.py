"""The paper's methodology: extraction flow and figure-level experiments."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".flow": ("FlowOptions", "FlowResult", "FlowTimings", "run_extraction_flow"),
    ".nmos": ("NmosExperimentOptions", "run_nmos_experiment"),
    ".results": ("ContributionResult", "DesignStudyResult", "MechanismReport",
                 "NmosExperimentResult", "SpurSweepPoint",
                 "VcoSpurSweepResult"),
    ".vco_experiment": ("VcoExperimentOptions", "VcoImpactAnalysis",
                        "ground_resistance_study", "mechanism_report"),
})
