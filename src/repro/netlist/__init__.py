"""Netlist model: circuits, linear elements, nonlinear devices, subcircuits."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".stamping": ("GROUND", "Stamper"),
    ".elements": ("Capacitor", "CurrentSource", "Element", "Inductor",
                  "Resistor", "SourceValue", "TwoTerminal",
                  "VoltageControlledCurrentSource",
                  "VoltageControlledVoltageSource", "VoltageSource",
                  "vectorized_waveform"),
    ".devices": ("MosfetElement", "NonlinearElement", "VaractorElement"),
    ".circuit": ("Circuit",),
    ".subckt": ("Subcircuit",),
})
