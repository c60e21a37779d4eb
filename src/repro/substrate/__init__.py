"""Substrate extraction: box-integration mesh, Kron reduction, port macromodel."""

from .mesh import LayeredLaplacian, MeshSpec, SubstrateMesh
from .reduction import SubstrateMacromodel, kron_reduce
from .extraction import (
    PortKind,
    SubstrateExtraction,
    SubstrateExtractionOptions,
    SubstratePort,
    extract_substrate,
    identify_ports,
)

__all__ = [
    "LayeredLaplacian",
    "MeshSpec",
    "PortKind",
    "SubstrateExtraction",
    "SubstrateExtractionOptions",
    "SubstrateMacromodel",
    "SubstrateMesh",
    "SubstratePort",
    "extract_substrate",
    "identify_ports",
    "kron_reduce",
]
