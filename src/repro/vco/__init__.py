"""LC-tank VCO modelling: tuning, sensitivities and substrate-noise spurs."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".lctank": ("LcTankVco", "VcoDesign"),
    ".sensitivity": ("ENTRY_GROUND", "ENTRY_INDUCTOR", "ENTRY_NMOS",
                     "ENTRY_PMOS_WELL", "ENTRY_VARACTOR_WELL", "EntryModel",
                     "VcoEntryCatalog", "build_entry_catalog",
                     "entries_at_frequency",
                     "junction_capacitance_sensitivity"),
    ".spurs": ("NoiseEntry", "SpurResult", "compute_spurs",
               "synthesize_output_waveform"),
})
