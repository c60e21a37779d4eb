"""Reference data reconstructed from the paper's quoted numbers and figures."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {".": ("measurements",)})
