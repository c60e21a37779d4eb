"""Contact-space Kron reduction against the mesh solve it replaces.

``extract_substrate`` reduces every qualifying mesh in contact space, so
these tests are the only place the two exact
methods are checked against each other: on small meshes with every port
shape, on the 56 x 56 VCO flow and its Figure-8 / Figure-10 spurs, plus the
fallback rules and the separable operator itself.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import repro.substrate.extraction as extraction_module
from repro.core.flow import FlowOptions
from repro.core.vco_experiment import VcoExperimentOptions, ground_resistance_study
from repro.layout.geometry import Rect
from repro.obs import tracer
from repro.simulator.solver import Factorization
from repro.studies import Campaign, ExtractionCache, ParamSpace, SweepRunner
from repro.substrate import (
    MeshSpec,
    SubstrateExtractionOptions,
    SubstrateMesh,
    kron_reduce,
)
from repro.substrate import reduction

#: Agreement of the two methods, relative to max|Y|.
EQUIV_TOL = 1e-9
#: Spur agreement of the whole flow, in dB (the stated replacement for the
#: byte-identity the mesh solve had with itself).
SPUR_TOL_DB = 0.01
#: The benchmark's calibrated paper mesh.
PAPER_FLOW = FlowOptions(substrate=SubstrateExtractionOptions(
    nx=56, ny=56, lateral_margin=60e-6))


def _mesh(technology, n: int, width: float = 200e-6,
          height: float | None = None, ny: int | None = None) -> SubstrateMesh:
    spec = MeshSpec(region=Rect(0, 0, width, height or width), nx=n,
                    ny=ny or n, max_depth=120e-6, n_z_per_layer=2)
    return SubstrateMesh(spec=spec, profile=technology.substrate)


def _surface(mesh: SubstrateMesh, ix0: int, ix1: int, iy0: int, iy1: int):
    return [mesh.node_index(ix, iy, 0)
            for iy in range(iy0, iy1) for ix in range(ix0, ix1)]


def _scale(y: np.ndarray) -> float:
    return float(np.abs(y).max())


@dataclass(frozen=True)
class Case:
    name: str
    n: int
    #: builds ``(port_nodes, port_contact_conductance)`` for a mesh
    ports: object
    ny: int | None = None
    height: float | None = None


def _ideal_rings(mesh):
    n, top = mesh.nx, mesh.ny
    return ([_surface(mesh, 0, n, 0, 1), _surface(mesh, 0, 1, 1, top),
             _surface(mesh, n // 2, n // 2 + 2, top // 2, top // 2 + 2)], None)


def _realistic_pads(mesh):
    n, top = mesh.nx, mesh.ny
    return ([_surface(mesh, 0, 2, 0, 2), _surface(mesh, n - 2, n, 0, 2),
             _surface(mesh, 0, n, top - 1, top)], [0.2, 0.2, 0.2])


def _weighted(mesh):
    # Partial-coverage style (node, g) pairs with uneven per-cell weights.
    n = mesh.nx
    left = [(node, 0.05 * (1 + k)) for k, node in
            enumerate(_surface(mesh, 0, 1, 0, mesh.ny))]
    right = [(node, 1e6 / mesh.ny) for node in
             _surface(mesh, n - 1, n, 0, mesh.ny)]
    return [left, right], None


def _shared_cell(mesh):
    # The middle cell is contacted by both ports (Y_pp - W^T D^-1 W != 0).
    n = mesh.nx
    mid = mesh.node_index(n // 2, n // 2, 0)
    a = [(mid, 0.3)] + [(node, 0.1) for node in _surface(mesh, 0, 2, 0, 1)]
    b = [(mid, 0.7), (mesh.node_index(n - 1, n - 1, 0), 0.4)]
    c = [(node, 1e6) for node in _surface(mesh, 0, n, n - 1, n)]
    return [a, b, c], None


def _single_cell(mesh):
    n = mesh.nx
    return ([[mesh.node_index(n // 3, n // 2, 0)], _surface(mesh, 0, n, 0, 1)],
            [0.2, 1e6])


CASES = [
    *(Case(f"ideal-rings-{n}", n, _ideal_rings) for n in (6, 12, 24)),
    *(Case(f"realistic-pads-{n}", n, _realistic_pads) for n in (6, 12, 24)),
    Case("weighted-pairs-12", 12, _weighted),
    Case("shared-cell-12", 12, _shared_cell),
    Case("shared-cell-24", 24, _shared_cell),
    Case("single-cell-port-12", 12, _single_cell),
    # Non-square grid with non-square cells: hx != hy.
    Case("rectangular-cells-12x6", 12, _realistic_pads, ny=6, height=60e-6),
]


def _reduce_both(technology, case: Case):
    mesh = _mesh(technology, case.n, height=case.height, ny=case.ny)
    port_nodes, contact = case.ports(mesh)
    names = [f"p{k}" for k in range(len(port_nodes))]
    laplacian = mesh.laplacian()
    fast = kron_reduce(laplacian, port_nodes, names, contact)
    reference = kron_reduce(laplacian.matrix(), port_nodes, names, contact)
    return fast, reference


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_contact_space_matches_mesh_solve(technology, case):
    """Agreement to 1e-9 max|Y| beyond the mesh solve's own error.

    The mesh solve regularises the floating mesh with a 1e-12 S shift per
    node and subtracts the 1e6 S ideal contacts from each other, which on
    these weakly coupled meshes (|Y| ~ 1e-4 S) costs it up to ~1e-6 max|Y|.
    The exact macromodel has zero row sums, so the mesh solve's row-sum
    residual measures that error and is allowed on top; the contact-space
    result itself must meet the 1e-11 row-sum invariant (next test).
    """
    fast, reference = _reduce_both(technology, case)
    assert fast.method == "contact-space"
    assert reference.method == "mesh-solve"
    assert fast.contacted_cells == reference.contacted_cells
    scale = _scale(reference.admittance)
    error = np.abs(fast.admittance - reference.admittance).max()
    assert error <= (EQUIV_TOL + reference.residuals["rowsum"]) * scale


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_contact_space_invariants(technology, case):
    fast, _ = _reduce_both(technology, case)
    y = fast.admittance
    off_diagonal = y - np.diag(np.diag(y))
    assert np.array_equal(y, y.T)
    assert np.abs(y.sum(axis=1)).max() <= 1e-11 * _scale(y)
    assert off_diagonal.max() <= 0.0
    # The recorded health numbers describe the stored admittance.
    assert fast.residuals["rowsum"] == pytest.approx(
        np.abs(y.sum(axis=1)).max() / _scale(y), rel=1e-12, abs=0.0)
    assert fast.residuals["offdiag"] == 0.0
    assert fast.residuals["symmetry"] <= 1e-12


# -- the paper flow -----------------------------------------------------------


@pytest.fixture
def mesh_solve_extraction(monkeypatch):
    """Force ``extract_substrate`` onto the assembled-matrix mesh solve."""
    original = extraction_module.kron_reduce

    def mesh_solve(conductance, port_nodes, port_names, **kwargs):
        return original(conductance.matrix(), port_nodes, port_names, **kwargs)

    monkeypatch.setattr(extraction_module, "kron_reduce", mesh_solve)


@pytest.fixture(scope="module")
def paper_flow_contact_space(technology, vco_cell):
    from repro.core.flow import run_extraction_flow

    return run_extraction_flow(vco_cell, technology, options=PAPER_FLOW)


def test_paper_flow_macromodel_matches_mesh_lu(technology, vco_cell,
                                               paper_flow_contact_space,
                                               mesh_solve_extraction):
    from repro.core.flow import run_extraction_flow

    fast = paper_flow_contact_space.substrate.macromodel
    reference = run_extraction_flow(vco_cell, technology,
                                    options=PAPER_FLOW).substrate.macromodel
    assert (fast.method, reference.method) == ("contact-space", "mesh-solve")
    assert fast.contacted_cells == reference.contacted_cells == 635
    error = np.abs(fast.admittance - reference.admittance).max()
    assert error <= EQUIV_TOL * _scale(reference.admittance)
    assert fast.residuals["rowsum"] <= 1e-11


def _fig10(technology):
    options = VcoExperimentOptions(
        noise_frequencies=tuple(np.logspace(5, np.log10(15e6), 4)),
        flow=PAPER_FLOW)
    return ground_resistance_study(technology, options=options,
                                   cache=ExtractionCache())


def _fig8(technology):
    campaign = Campaign(
        name="fig8_equivalence",
        space=ParamSpace({"vtune": (0.0, 1.5),
                          "noise_frequency": (1e5, 1e6, 1e7)}),
        options=VcoExperimentOptions(flow=PAPER_FLOW))
    result = SweepRunner(technology, cache=ExtractionCache()).run(campaign)
    return result.column("spur_power_dbm")


@pytest.fixture(scope="module")
def paper_spurs_contact_space(technology):
    study = _fig10(technology)
    return study.nominal_dbm, study.improved_dbm, _fig8(technology)


def test_paper_spurs_match_mesh_lu(technology, paper_spurs_contact_space,
                                   mesh_solve_extraction):
    study = _fig10(technology)
    reference = (study.nominal_dbm, study.improved_dbm, _fig8(technology))
    for fast, slow in zip(paper_spurs_contact_space, reference):
        assert fast.shape == slow.shape
        assert np.abs(fast - slow).max() <= SPUR_TOL_DB


# -- fallback: today's mesh solve, unchanged ----------------------------------


def _mesh_solve_reference(conductance, port_nodes, contact):
    """The Kron reduction as the mesh solve computes it, written out."""
    n_mesh, n_ports = conductance.shape[0], len(port_nodes)
    contact = contact or [1e6] * n_ports
    internal_diagonal = np.zeros(n_mesh)
    y_ip = np.zeros((n_mesh, n_ports))
    y_pp = np.zeros((n_ports, n_ports))
    for port, (nodes, g_total) in enumerate(zip(port_nodes, contact)):
        for node in nodes:
            share = g_total / len(nodes)
            internal_diagonal[node] += share
            y_ip[node, port] -= share
            y_pp[port, port] += share
    y_ii = (sp.csc_matrix(conductance)
            + sp.diags(internal_diagonal + 1e-12, format="csc"))
    solved = Factorization(y_ii).solve(y_ip)
    reduced = y_pp - y_ip.T @ solved
    return 0.5 * (reduced + reduced.T)


def _fallback_ports(mesh, deep: bool):
    n = mesh.nx
    nodes = [_surface(mesh, 0, n, 0, 1), _surface(mesh, 0, 2, n - 2, n)]
    if deep:
        nodes.append([mesh.node_index(n // 2, n // 2, 1)])
    return nodes, [0.2] * len(nodes)


def _non_uniform_x(laplacian):
    dx = laplacian.dx * np.linspace(0.7, 1.3, laplacian.nx)
    return replace(laplacian, dx=dx * laplacian.dx.sum() / dx.sum())


FALLBACKS = {
    # name: (turn the separable description into what kron_reduce gets,
    #        put a port node below the surface)
    "bare-matrix": (lambda laplacian: laplacian.matrix(), False),
    "port-below-surface": (lambda laplacian: laplacian, True),
    "non-uniform-x-edges": (_non_uniform_x, False),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_fallback_is_the_mesh_solve(technology, name):
    prepare, deep = FALLBACKS[name]
    mesh = _mesh(technology, 10)
    conductance = prepare(mesh.laplacian())
    port_nodes, contact = _fallback_ports(mesh, deep)
    names = [f"p{k}" for k in range(len(port_nodes))]
    model = kron_reduce(conductance, port_nodes, names, contact)
    matrix = conductance if sp.issparse(conductance) else conductance.matrix()
    assert model.method == "mesh-solve"
    assert np.array_equal(model.admittance,
                          _mesh_solve_reference(matrix, port_nodes, contact))


# -- the separable operator ---------------------------------------------------


def _path_laplacian(weights: np.ndarray) -> sp.csr_matrix:
    """1-D path Laplacian with the given edge conductances."""
    n = len(weights) + 1
    diagonal = np.zeros(n)
    diagonal[:-1] += weights
    diagonal[1:] += weights
    return sp.diags([diagonal, -weights, -weights], [0, 1, -1], format="csr")


GRIDS = [(6, 6, None), (12, 6, 60e-6), (5, 9, 300e-6), (24, 24, None)]


@pytest.mark.parametrize("n, ny, height", GRIDS)
def test_laplacian_is_the_kronecker_sum_of_its_factors(technology, n, ny, height):
    mesh = _mesh(technology, n, height=height, ny=ny)
    lap = mesh.laplacian()
    dx, dy, dz, sigma = lap.dx, lap.dy, lap.dz, lap.sigma
    lx = _path_laplacian(1.0 / (0.5 * (dx[:-1] + dx[1:])))
    ly = _path_laplacian(1.0 / (0.5 * (dy[:-1] + dy[1:])))
    lz = _path_laplacian(1.0 / (0.5 * dz[:-1] / sigma[:-1]
                                + 0.5 * dz[1:] / sigma[1:]))
    layer, wy, wx = sp.diags(sigma * dz), sp.diags(dy), sp.diags(dx)
    rebuilt = (sp.kron(layer, sp.kron(wy, lx)) + sp.kron(layer, sp.kron(ly, wx))
               + sp.kron(lz, sp.kron(wy, wx)))
    assembled = mesh.conductance_matrix()
    difference = abs(rebuilt - assembled).max()
    assert difference <= 1e-12 * abs(assembled).max()
    assert lap.laterally_uniform
    assert not _non_uniform_x(lap).laterally_uniform


@pytest.mark.parametrize("n, ny, height", GRIDS)
def test_surface_green_is_the_mesh_pseudo_inverse(technology, n, ny, height):
    """The DCT Green's function equals L^+ on the surface, up to a constant.

    The reference solves the assembled Laplacian bordered by the constant
    vector (no regularisation) for every surface cell.
    """
    lap = _mesh(technology, n, height=height, ny=ny).laplacian()
    matrix = lap.matrix()
    n_nodes, cells = matrix.shape[0], np.arange(lap.nx * lap.ny)
    ones = sp.csr_matrix(np.ones((n_nodes, 1)))
    bordered = sp.bmat([[matrix, ones], [ones.T, None]], format="csc")
    rhs = np.zeros((n_nodes + 1, len(cells)))
    rhs[cells, np.arange(len(cells))] = 1.0
    reference = splu(bordered).solve(rhs)[cells]
    green = np.empty_like(reference)
    reduction._surface_green(lap, cells, out=green)
    difference = green - reference
    difference -= difference.mean()
    assert np.abs(difference).max() <= 1e-12 * np.abs(reference).max()
    assert np.array_equal(green, green.T)


# -- health checks ------------------------------------------------------------


def test_extraction_records_method_and_health(technology, paper_flow_contact_space):
    model = paper_flow_contact_space.substrate.macromodel
    assert model.method == "contact-space"
    assert model.contacted_cells == 635
    assert set(model.residuals) == {"symmetry", "rowsum", "offdiag"}
    assert model.residuals["rowsum"] <= 1e-11


def test_kron_span_carries_the_health_attributes(technology):
    mesh = _mesh(technology, 6)
    port_nodes, contact = _realistic_pads(mesh)
    tracer.enable()
    tracer.reset()
    try:
        model = kron_reduce(mesh.laplacian(), port_nodes, ["a", "b", "c"],
                            contact)
        span, = [s for s in tracer.spans() if s.name == "extract.kron"]
    finally:
        tracer.disable()
        tracer.reset()
    attrs = dict(span.attrs)
    assert attrs["method"] == "contact-space"
    assert attrs["contacted_cells"] == model.contacted_cells
    for name, value in model.residuals.items():
        assert attrs[f"{name}_resid"] == value


def test_rowsum_residual_above_tolerance_warns(technology, monkeypatch, caplog):
    mesh = _mesh(technology, 6)
    port_nodes, contact = _realistic_pads(mesh)
    monkeypatch.setattr(reduction, "ROWSUM_WARN_TOL", -1.0)
    with caplog.at_level(logging.WARNING, logger="repro.substrate.reduction"):
        kron_reduce(mesh.laplacian(), port_nodes, ["a", "b", "c"], contact)
    assert any("row-sum residual" in record.getMessage()
               for record in caplog.records)
