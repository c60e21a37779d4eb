"""repro — substrate-noise impact simulation for analog/RF circuits.

A from-scratch reproduction of the methodology of

    C. Soens, G. Van der Plas, P. Wambacq, S. Donnay,
    "Simulation Methodology for Analysis of Substrate Noise Impact on
    Analog / RF Circuits Including Interconnect Resistance", DATE 2005.

The package provides every stage of the paper's Figure-2 flow:

* :mod:`repro.technology` — synthetic 0.18 um 1P6M high-ohmic CMOS process,
* :mod:`repro.layout` — layout model plus the paper's two test-chip layouts,
* :mod:`repro.substrate` — box-integration substrate extraction and reduction,
* :mod:`repro.interconnect` — wire resistance / capacitance extraction,
* :mod:`repro.extraction` — circuit extraction and model merging,
* :mod:`repro.package` — bondwire / RF-probe models,
* :mod:`repro.simulator` — MNA DC / AC / transfer / transient engine (dense
  LAPACK up to 64 unknowns, SuperLU above),
* :mod:`repro.devices`, :mod:`repro.vco` — device and LC-tank VCO models,
* :mod:`repro.core` — the assembled methodology and the per-figure experiments,
* :mod:`repro.studies` — the design-study sweep engine (declarative spur
  campaigns, extraction cache, in-process or process-pool execution),
* :mod:`repro.analysis`, :mod:`repro.data` — spectrum/comparison utilities and
  the reference values reconstructed from the paper.

Quickstart::

    from repro.technology import make_technology
    from repro.core import run_nmos_experiment

    technology = make_technology()
    result = run_nmos_experiment(technology)
    print(result.comparison.max_abs_error_db)

The subpackages and the error classes are re-exported lazily: ``import repro``
loads nothing until a name is used.
"""

from ._lazy import attach

__version__ = "0.1.0"

__getattr__, __dir__, __all__ = attach(__name__, {
    ".": ("analysis", "core", "data", "devices", "extraction", "interconnect",
          "layout", "netlist", "package", "simulator", "studies", "substrate",
          "technology", "units", "vco"),
    ".errors": ("AnalysisError", "ConvergenceError", "ExtractionError",
                "LayoutError", "NetlistError", "ReproError", "SimulationError",
                "TechnologyError"),
})
__all__.append("__version__")
