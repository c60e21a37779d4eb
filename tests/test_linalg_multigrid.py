"""The geometric-multigrid backend: transfers, smoothing, ladder, accuracy.

The accuracy suite runs DC/Kron mesh solves through the multigrid backend
and asserts it matches the direct-LU reference to <= 1e-8 (the observed
error is orders of magnitude better — the float64 outer iteration drives
the residual to ``mg_rtol`` regardless of the float32 cycles inside).  The
structural tests pin down the transfer operators, the Galerkin hierarchy,
the solver stats, and every rung of the degradation ladder:
multigrid -> CG/ILU -> (reuse-)LU.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import SimulationError
from repro.layout.geometry import Rect
from repro.simulator.linalg import (
    BACKEND_MULTIGRID,
    BACKENDS,
    GridGeometry,
    MultigridSolver,
    SolverOptions,
    make_solver,
)
from repro.simulator.linalg.multigrid import build_hierarchy, prolongation_1d
from repro.studies.cache import fingerprint
from repro.substrate import MeshSpec, SubstrateMesh, kron_reduce
from repro.technology import make_technology

MG_ATOL = 1e-8


@pytest.fixture(scope="module")
def technology():
    return make_technology()


def _mesh_system(technology, nx=24, ny=24):
    """A substrate-mesh Laplacian plus port contacts (SPD) and its grid."""
    spec = MeshSpec(region=Rect(0, 0, nx * 6e-6, ny * 6e-6), nx=nx, ny=ny,
                    max_depth=150e-6, n_z_per_layer=2)
    mesh = SubstrateMesh(spec=spec, profile=technology.substrate)
    conductance = mesh.conductance_matrix()
    n = conductance.shape[0]
    diagonal = np.zeros(n)
    diagonal[: nx * ny] += 1e3 / (nx * ny)
    matrix = sp.csc_matrix(conductance + sp.diags(diagonal + 1e-12))
    rhs = np.zeros((n, 4))
    for k in range(4):
        rhs[k * nx:(k + 1) * nx, k] = -1.0
    return mesh, matrix, rhs


def _mg_options(**overrides):
    return SolverOptions(backend=BACKEND_MULTIGRID, **overrides)


# -- transfer operators -------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 8, 9, 13, 56])
def test_prolongation_rows_sum_to_one(n):
    p = prolongation_1d(n)
    assert p.shape == (n, (n + 1) // 2)
    np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0)


def test_prolongation_interior_weights():
    p = prolongation_1d(8).toarray()
    # fine cell 2 sits a quarter cell left of parent 1: 0.75 / 0.25 split
    assert p[2, 1] == pytest.approx(0.75)
    assert p[2, 0] == pytest.approx(0.25)
    # boundary cells clamp to their parent with full weight
    assert p[0, 0] == pytest.approx(1.0)
    assert p[7, 3] == pytest.approx(1.0)


def test_grid_geometry_validation():
    assert GridGeometry(8, 9, 3).n_nodes == 216
    with pytest.raises(SimulationError):
        GridGeometry(0, 9, 3)
    with pytest.raises(SimulationError):
        GridGeometry(8, 9, -1)


# -- hierarchy ----------------------------------------------------------------------


def test_galerkin_hierarchy_is_symmetric(technology):
    mesh, matrix, _ = _mesh_system(technology)
    levels = build_hierarchy(matrix, mesh.grid_geometry(),
                             coarsest_size=100, smoother="rbgs")
    assert len(levels) >= 3
    sizes = [level.matrix.shape[0] for level in levels]
    assert sizes == sorted(sizes, reverse=True)
    assert levels[-1].lu is not None
    for level in levels:
        operator = sp.csr_matrix(level.matrix.astype(np.float64))
        asymmetry = abs(operator - operator.T)
        scale = np.abs(operator.data).max()
        assert asymmetry.data.max() if asymmetry.nnz else 0.0 <= 1e-10 * scale


def test_hierarchy_respects_coarsest_size(technology):
    mesh, matrix, _ = _mesh_system(technology)
    shallow = build_hierarchy(matrix, mesh.grid_geometry(),
                              coarsest_size=matrix.shape[0], smoother="rbgs")
    assert len(shallow) == 1 and shallow[0].lu is not None


# -- accuracy against direct LU -----------------------------------------------------


def test_multigrid_matches_direct_on_mesh_block(technology):
    """Standalone block cycles match the direct reference to <= 1e-8."""
    mesh, matrix, rhs = _mesh_system(technology)
    reference = spla.splu(matrix).solve(rhs)
    solver = MultigridSolver(_mg_options())
    factorization = solver.factorize(matrix, grid=mesh.grid_geometry())
    solution = factorization.solve(rhs)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale
    assert solver.stats.mg_solves == rhs.shape[1]
    assert solver.stats.mg_cycles > 0
    assert solver.stats.fallbacks == 0
    history = factorization.residual_history
    assert history and history[-1] <= solver.options.mg_rtol
    assert history == sorted(history, reverse=True)


def test_multigrid_matches_direct_single_vector(technology):
    """Single vectors go through MG-preconditioned CG by default."""
    mesh, matrix, rhs = _mesh_system(technology)
    reference = spla.splu(matrix).solve(rhs[:, 0])
    solver = MultigridSolver(_mg_options())
    solution = solver.solve(matrix, rhs[:, 0], grid=mesh.grid_geometry())
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale
    assert solver.stats.cg_solves == 1
    assert solver.stats.mg_solves == 1
    assert solver.stats.fallbacks == 0


@pytest.mark.parametrize("mode", ["standalone", "pcg"])
def test_multigrid_modes_match_direct(technology, mode):
    mesh, matrix, rhs = _mesh_system(technology)
    reference = spla.splu(matrix).solve(rhs)
    solver = MultigridSolver(_mg_options(mg_mode=mode))
    solution = solver.factorize(matrix, grid=mesh.grid_geometry()).solve(rhs)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale


@pytest.mark.parametrize("smoother,cycle", [("rbgs", "w"), ("jacobi", "v")])
def test_multigrid_variants_match_direct(technology, smoother, cycle):
    mesh, matrix, rhs = _mesh_system(technology)
    reference = spla.splu(matrix).solve(rhs)
    solver = MultigridSolver(_mg_options(mg_smoother=smoother,
                                         mg_cycle=cycle,
                                         mg_max_cycles=200))
    solution = solver.factorize(matrix, grid=mesh.grid_geometry()).solve(rhs)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale


def test_multigrid_complex_rhs(technology):
    mesh, matrix, rhs = _mesh_system(technology)
    complex_rhs = rhs[:, 0] + 1j * rhs[:, 1]
    lu = spla.splu(matrix)
    reference = lu.solve(rhs[:, 0]) + 1j * lu.solve(rhs[:, 1])
    solver = MultigridSolver(_mg_options())
    solution = solver.solve(matrix, complex_rhs, grid=mesh.grid_geometry())
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale


def test_multigrid_kron_reduction_matches_direct(technology):
    mesh, matrix, _ = _mesh_system(technology)
    conductance = mesh.conductance_matrix()
    nx = mesh.nx
    port_nodes = [[mesh.node_index(ix, 0, 0) for ix in range(4)],
                  [mesh.node_index(ix, mesh.ny - 1, 0)
                   for ix in range(nx - 4, nx)]]
    names = ["agg", "vic"]
    # realistic contact conductances (~5 ohm taps), as the extraction layer
    # stamps them — ideal 1e6 S contacts make the Schur complement cancel
    # ~11 digits and amplify *any* solver's residual into the result
    contacts = [0.2, 0.2]
    direct = kron_reduce(conductance, port_nodes, names,
                         port_contact_conductance=contacts)
    multigrid = kron_reduce(conductance, port_nodes, names,
                            port_contact_conductance=contacts,
                            solver=_mg_options(),
                            grid=mesh.grid_geometry())
    scale = np.max(np.abs(direct.admittance))
    assert np.max(np.abs(multigrid.admittance
                         - direct.admittance)) <= MG_ATOL * scale


# -- the degradation ladder ---------------------------------------------------------


def test_spd_without_grid_degrades_to_cg(technology):
    """SPD system, no geometry: one rung down to CG/ILU, counted."""
    _, matrix, rhs = _mesh_system(technology)
    reference = spla.splu(matrix).solve(rhs[:, 0])
    solver = MultigridSolver(_mg_options())
    solution = solver.solve(matrix, rhs[:, 0])
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale
    assert solver.stats.fallbacks == 1
    assert solver.stats.cg_solves == 1
    assert solver.stats.mg_solves == 0


def test_grid_size_mismatch_is_treated_as_no_grid(technology):
    _, matrix, rhs = _mesh_system(technology)
    solver = MultigridSolver(_mg_options())
    wrong = GridGeometry(3, 3, 3)        # 27 != mesh size
    solver.solve(matrix, rhs[:, 0], grid=wrong)
    assert solver.stats.fallbacks == 1
    assert solver.stats.mg_solves == 0


def test_non_spd_with_grid_continues_down_iterative_ladder():
    """A non-symmetric system steps to the iterative backend's LU rung."""
    n = 27
    rng = np.random.default_rng(7)
    matrix = sp.csc_matrix(rng.standard_normal((n, n)) + 10.0 * np.eye(n))
    rhs = rng.standard_normal(n)
    reference = spla.splu(matrix).solve(rhs)
    solver = MultigridSolver(_mg_options())
    solution = solver.solve(matrix, rhs, grid=GridGeometry(3, 3, 3))
    np.testing.assert_allclose(solution, reference, atol=1e-9)
    assert solver.stats.fallbacks == 1           # iterative backend's rung
    assert solver.stats.mg_solves == 0


def test_ladder_disabled_raises(technology):
    _, matrix, rhs = _mesh_system(technology)
    solver = MultigridSolver(_mg_options(iterative_fallback=False))
    with pytest.raises(SimulationError):
        solver.solve(matrix, rhs[:, 0])          # SPD but gridless


def test_stagnation_falls_back_without_wrong_answers(technology):
    """A cycle budget too small to converge still returns the right answer
    (stagnation/exhaustion steps down to MG-preconditioned CG, then LU)."""
    mesh, matrix, rhs = _mesh_system(technology)
    reference = spla.splu(matrix).solve(rhs)
    solver = MultigridSolver(_mg_options(mg_max_cycles=1))
    solution = solver.factorize(matrix, grid=mesh.grid_geometry()).solve(rhs)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale
    assert solver.stats.fallbacks >= 1


def test_empty_and_shape_errors(technology):
    solver = MultigridSolver(_mg_options())
    empty = sp.csc_matrix((0, 0))
    assert solver.factorize(empty).solve(np.zeros((0,))).shape == (0,)
    _, matrix, _ = _mesh_system(technology)
    factorization = solver.factorize(matrix, grid=None)
    with pytest.raises(SimulationError):
        factorization.solve(np.zeros(3))


# -- stats, registry ----------------------------------------------------------------


def test_multigrid_registered_in_backends():
    assert BACKEND_MULTIGRID in BACKENDS
    solver = make_solver(SolverOptions(backend=BACKEND_MULTIGRID))
    assert isinstance(solver, MultigridSolver)
    assert solver.stats.backend == BACKEND_MULTIGRID


def test_multigrid_counts_into_its_own_stats(technology):
    from repro.simulator.solver import stats as global_stats

    mesh, matrix, rhs = _mesh_system(technology)
    solver = MultigridSolver(_mg_options(), mirror_global=False)
    before = global_stats.mg_solves
    solver.factorize(matrix, grid=mesh.grid_geometry()).solve(rhs)
    assert solver.stats.mg_solves == rhs.shape[1]
    assert solver.stats.mg_cycles > 0
    assert global_stats.mg_solves == before


# -- options and cache-key participation --------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(mg_cycle="x"),
    dict(mg_smoother="sor"),
    dict(mg_mode="block"),
    dict(mg_pre_smooth=-1),
    dict(mg_pre_smooth=0, mg_post_smooth=0),
    dict(mg_coarsest_size=0),
    dict(mg_max_cycles=0),
    dict(mg_rtol=0.0),
])
def test_mg_option_validation(bad):
    with pytest.raises(SimulationError):
        SolverOptions(backend=BACKEND_MULTIGRID, **bad)


def test_mg_options_participate_in_cache_key():
    base = SolverOptions(backend=BACKEND_MULTIGRID)
    assert fingerprint(base) == fingerprint(
        SolverOptions(backend=BACKEND_MULTIGRID))
    for changed in (_mg_options(mg_cycle="w"),
                    _mg_options(mg_smoother="jacobi"),
                    _mg_options(mg_rtol=1e-9),
                    _mg_options(mg_pre_smooth=3)):
        assert fingerprint(changed) != fingerprint(base)
