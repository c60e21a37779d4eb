"""Package / probe parasitic models."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".model": ("BondwireModel", "Connection", "PackageModel", "RfProbeModel"),
})
