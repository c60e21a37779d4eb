"""Process-technology description: layers, substrate profile, device cards."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".layers": ("Layer", "LayerPurpose", "LayerStack", "ViaDefinition"),
    ".process": ("EPSILON_0", "EPSILON_R_SI", "EPSILON_R_SIO2",
                 "MosParameters", "ProcessTechnology", "SubstrateLayer",
                 "SubstrateProfile", "WellParameters"),
    ".cmos018": ("TECHNOLOGY_NAME", "make_technology"),
})
