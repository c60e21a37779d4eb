"""Substrate extraction: box-integration mesh, Kron reduction, port macromodel."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".mesh": ("LayeredLaplacian", "MeshSpec", "SubstrateMesh"),
    ".reduction": ("SubstrateMacromodel", "kron_reduce"),
    ".extraction": ("PortKind", "SubstrateExtraction",
                    "SubstrateExtractionOptions", "SubstratePort",
                    "extract_substrate", "identify_ports"),
})
