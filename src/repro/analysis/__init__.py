"""Analysis helpers: noise waveforms, spectrum emulation, curve comparison."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".waveforms": ("DigitalSwitchingNoise", "SinusoidalNoise"),
    ".spectrum": ("Spectrum", "compute_spectrum"),
    ".compare": ("CurveComparison", "classify_mechanism", "compare_curves",
                 "slope_per_decade"),
})
