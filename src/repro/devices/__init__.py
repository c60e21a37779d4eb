"""Device models: MOSFET, accumulation-mode varactor, spiral inductor."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".mosfet": ("MosfetGeometry", "MosfetModel", "MosfetOperatingPoint"),
    ".varactor": ("AccumulationModeVaractor",),
    ".inductor": ("SpiralInductor",),
})
