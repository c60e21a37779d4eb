"""Interconnect parasitic extraction: wire resistance and substrate capacitance."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".rcnetwork": ("WireRC",),
    ".extraction": ("InterconnectExtraction", "PIN_SNAP_TOLERANCE",
                    "extract_interconnect"),
})
