"""Circuit extraction and model merging (the glue of the paper's Figure-2 flow)."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".circuit_extractor": ("ExtractedCircuit", "extract_circuit"),
    ".merge": ("ImpactNetlist", "merge_models"),
})
