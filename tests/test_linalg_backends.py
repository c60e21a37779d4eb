"""The pluggable linear-solver layer: backend equivalence and fallback.

The equivalence suite runs the same analyses (DC, AC, transient, Kron
reduction, full extraction flow, VCO spur analysis) through all three
backends and asserts the reuse-pattern and iterative backends match the
direct-LU reference to <= 1e-10.  Circuits small enough for the dense LAPACK
path never reach a backend, so the circuit analyses here run on circuits
padded above ``DENSE_MAX_UNKNOWNS`` (or with the limit lowered).  The
fallback tests hand CG a non-SPD MNA
system and assert it silently falls back to LU; the cache-key tests prove
that campaigns differing only in solver settings never share extraction
cache entries.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core.flow import FlowOptions, run_extraction_flow
from repro.errors import SimulationError
from repro.layout.geometry import Rect
from repro.netlist import Circuit, SourceValue
from repro.simulator import ac_analysis, dc_operating_point, transient_analysis
from repro.simulator import solver as solver_core
from repro.simulator.linalg import (
    BACKENDS,
    DirectLUSolver,
    IterativeSolver,
    ReusePatternLUSolver,
    SolverOptions,
    make_solver,
    resolve_solver,
)
from repro.simulator.transfer import transfer_functions
from repro.substrate import MeshSpec, SubstrateMesh, kron_reduce
from repro.substrate.extraction import SubstrateExtractionOptions

EQUIV_ATOL = 1e-10


def _rc_circuit():
    circuit = Circuit("rc")
    circuit.add_voltage_source("V1", "in", "0",
                               SourceValue(dc=1.0, ac_magnitude=1.0,
                                           waveform=lambda t: 1.0))
    circuit.add_resistor("R1", "in", "mid", 1e3)
    circuit.add_resistor("R2", "mid", "0", 2e3)
    circuit.add_capacitor("C1", "mid", "0", 1e-9)
    circuit.add_inductor("L1", "mid", "out", 1e-6)
    circuit.add_resistor("R3", "out", "0", 50.0)
    return circuit


def _mosfet_circuit(technology):
    circuit = Circuit("cs")
    circuit.add_voltage_source("VDD", "vdd", "0", 1.8)
    circuit.add_voltage_source("VG", "g", "0",
                               SourceValue(dc=0.9, ac_magnitude=1.0,
                                           waveform=lambda t: 0.9))
    circuit.add_resistor("RL", "vdd", "d", 1e3)
    circuit.add_mosfet("M1", "d", "g", "0", "0",
                       technology.mos_parameters("nmos_rf"),
                       width=10e-6, length=0.18e-6)
    return circuit


def _above_dense_limit(circuit):
    """Pad ``circuit`` with a grounded resistor chain so its MNA system is
    larger than ``DENSE_MAX_UNKNOWNS`` and goes through the sparse backends."""
    previous = "0"
    for index in range(solver_core.DENSE_MAX_UNKNOWNS):
        node = f"pad{index}"
        circuit.add_resistor(f"Rpad{index}", previous, node, 1e3)
        previous = node
    return circuit


def _mesh_system(technology):
    """A small substrate-mesh Laplacian plus port contacts (SPD)."""
    spec = MeshSpec(region=Rect(0, 0, 120e-6, 120e-6), nx=8, ny=8,
                    max_depth=100e-6, n_z_per_layer=2)
    mesh = SubstrateMesh(spec=spec, profile=technology.substrate)
    conductance = mesh.conductance_matrix()
    n = conductance.shape[0]
    diagonal = np.zeros(n)
    diagonal[: mesh.nx] = 1e4 / mesh.nx
    matrix = sp.csc_matrix(conductance + sp.diags(diagonal + 1e-12))
    rhs = np.zeros(n)
    rhs[: mesh.nx] = -1e4 / mesh.nx
    return matrix, rhs


# -- backend equivalence on the analyses -------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_dc_backends_match_direct(technology, backend):
    circuit = _above_dense_limit(_mosfet_circuit(technology))
    reference = dc_operating_point(circuit).vector
    solution = dc_operating_point(circuit,
                                  solver=SolverOptions(backend=backend))
    assert np.allclose(solution.vector, reference, atol=EQUIV_ATOL)


@pytest.mark.parametrize("backend", BACKENDS)
def test_ac_backends_match_direct(backend):
    frequencies = np.logspace(3, 9, 9)
    circuit = _above_dense_limit(_rc_circuit())
    reference = ac_analysis(circuit, frequencies).vectors
    vectors = ac_analysis(circuit, frequencies,
                          solver=SolverOptions(backend=backend)).vectors
    assert np.allclose(vectors, reference, atol=EQUIV_ATOL)


@pytest.mark.parametrize("backend", BACKENDS)
def test_transient_backends_match_direct(technology, backend):
    circuit = _mosfet_circuit(technology)
    reference = transient_analysis(circuit, t_stop=2e-8, timestep=1e-9).vectors
    vectors = transient_analysis(circuit, t_stop=2e-8, timestep=1e-9,
                                 solver=SolverOptions(backend=backend)).vectors
    assert np.allclose(vectors, reference, atol=EQUIV_ATOL)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kron_reduction_backends_match_direct(technology, backend):
    spec = MeshSpec(region=Rect(0, 0, 100e-6, 100e-6), nx=6, ny=6,
                    max_depth=80e-6, n_z_per_layer=2)
    mesh = SubstrateMesh(spec=spec, profile=technology.substrate)
    conductance = mesh.conductance_matrix()
    left = [mesh.node_index(0, iy, 0) for iy in range(mesh.ny)]
    right = [mesh.node_index(mesh.nx - 1, iy, 0) for iy in range(mesh.ny)]
    reference = kron_reduce(conductance, [left, right], ["left", "right"],
                            [1e4, 1e4]).admittance
    solver = make_solver(SolverOptions(backend=backend))
    reduced = kron_reduce(conductance, [left, right], ["left", "right"],
                          [1e4, 1e4], solver=solver).admittance
    assert np.allclose(reduced, reference,
                       atol=EQUIV_ATOL * np.abs(reference).max())
    if backend == "iterative":
        # The regularised internal block is SPD: CG must actually run.
        assert solver.stats.cg_solves > 0
        assert solver.stats.fallbacks == 0


@pytest.mark.parametrize("backend", ("reuse-lu", "iterative"))
def test_extraction_flow_backends_match_direct(technology, nmos_cell, backend):
    small_mesh = SubstrateExtractionOptions(nx=10, ny=10, n_z_per_layer=2)
    reference = run_extraction_flow(
        nmos_cell, technology,
        options=FlowOptions(substrate=small_mesh))
    flow = run_extraction_flow(
        nmos_cell, technology,
        options=FlowOptions(substrate=small_mesh,
                            solver=SolverOptions(backend=backend)))
    scale = np.abs(reference.substrate.macromodel.admittance).max()
    assert np.allclose(flow.substrate.macromodel.admittance,
                       reference.substrate.macromodel.admittance,
                       atol=EQUIV_ATOL * scale)
    assert flow.solver_stats is not None
    assert flow.solver_stats.backend == backend
    assert flow.summary()["solver_backend"] == backend


def test_vco_spur_analysis_backends_match_direct(technology, vco_analysis,
                                                monkeypatch):
    """The Fig-8/Fig-10 style spur analysis matches across backends.

    The impact testbench is small enough for the dense path, so the limit
    is lowered to make every solve go through the backend under test.

    The linear solves (the substrate-to-node transfer functions at a fixed
    operating point) must match the direct backend to <= 1e-10; the
    end-to-end spur powers additionally absorb the DC Newton termination
    (abs_tolerance 1e-9 V — each backend's roundoff stops Newton at a
    slightly different iterate), so they are compared at 1e-6 dB.
    """
    from dataclasses import replace

    from repro.core.vco_experiment import VcoImpactAnalysis

    monkeypatch.setattr(solver_core, "DENSE_MAX_UNKNOWNS", 0)
    reference, _, _, tf_reference = vco_analysis.analyze(0.0)
    circuit = vco_analysis.build_testbench(0.0)
    operating_point = dc_operating_point(circuit)
    nodes = tf_reference.nodes()
    frequencies = tf_reference.frequencies
    direct_tf = transfer_functions(circuit, ["VSUB_SRC"], nodes, frequencies,
                                   operating_point=operating_point)["VSUB_SRC"]

    for backend in ("reuse-lu", "iterative"):
        tf = transfer_functions(
            circuit, ["VSUB_SRC"], nodes, frequencies,
            operating_point=operating_point,
            solver=SolverOptions(backend=backend))["VSUB_SRC"]
        for node in nodes:
            # 1e-9 instead of 1e-10: the full impact testbench spans twelve
            # orders of magnitude in conductance (gmin 1e-12 S to contact
            # ties 1e6 S), and ~3e-10 is the direct backend's own roundoff
            # reproducibility floor on that conditioning; the better-
            # conditioned DC/AC/transient/Kron flows above assert 1e-10.
            assert np.allclose(tf.transfers[node], direct_tf.transfers[node],
                               atol=1e-9, rtol=EQUIV_ATOL)

        options = replace(
            vco_analysis.options,
            flow=replace(vco_analysis.options.flow,
                         solver=SolverOptions(backend=backend)))
        analysis = VcoImpactAnalysis(technology, options=options,
                                     flow_result=vco_analysis.flow)
        results, _, _, _ = analysis.analyze(0.0)
        for got, want in zip(results, reference):
            assert got.total_spur_power_dbm() == pytest.approx(
                want.total_spur_power_dbm(), abs=1e-6)


# -- reuse-pattern bookkeeping ------------------------------------------------------------


def test_reuse_solver_refactorizes_same_pattern(technology):
    matrix, rhs = _mesh_system(technology)
    scaled = matrix.copy()
    scaled.data = scaled.data * 1.8

    solver = ReusePatternLUSolver()
    first = solver.factorize(matrix).solve(rhs)
    second = solver.factorize(scaled).solve(rhs)
    assert solver.stats.factorizations == 2
    assert solver.stats.pattern_reuses == 1
    assert np.allclose(first, spla.spsolve(matrix, rhs), atol=EQUIV_ATOL)
    assert np.allclose(second, spla.spsolve(scaled, rhs), atol=EQUIV_ATOL)


def test_reuse_solver_shares_patterns_across_newton_iterations(technology):
    solver = ReusePatternLUSolver()
    solution = dc_operating_point(_above_dense_limit(
        _mosfet_circuit(technology)), solver=solver)
    assert solution.iterations > 1
    assert solver.stats.factorizations == solution.iterations
    # Iterations that repeat an already-seen companion-stamp pattern reuse
    # the symbolic analysis (the first iterate, at x = 0, may stamp a
    # different pattern than the converged region — that one is analysed).
    assert solver.stats.pattern_reuses >= 1
    assert (solver.stats.pattern_reuses
            + len(solver._patterns) == solver.stats.factorizations)


def test_reuse_solver_pattern_cache_is_bounded():
    solver = ReusePatternLUSolver(SolverOptions(backend="reuse-lu",
                                                max_cached_patterns=2))
    for size in (5, 6, 7, 8):
        dense = np.eye(size) * 3.0
        solver.solve(sp.csc_matrix(dense), np.ones(size))
    assert len(solver._patterns) == 2


# -- iterative fallback -------------------------------------------------------------------


def test_iterative_falls_back_on_non_spd_mna_system():
    """A matrix with voltage-source branch rows is not SPD: silent LU."""
    circuit = _above_dense_limit(_rc_circuit())
    solver = IterativeSolver()
    reference = dc_operating_point(circuit).vector
    solution = dc_operating_point(circuit, solver=solver)
    assert np.allclose(solution.vector, reference, atol=EQUIV_ATOL)
    assert solver.stats.fallbacks > 0
    assert solver.stats.cg_solves == 0


def test_iterative_falls_back_on_cg_stagnation(technology):
    matrix, rhs = _mesh_system(technology)
    solver = IterativeSolver(SolverOptions(
        backend="iterative", cg_max_iterations=1, preconditioner="none"))
    solution = solver.solve(matrix, rhs)
    assert np.allclose(solution, spla.spsolve(matrix, rhs), atol=EQUIV_ATOL)
    assert solver.stats.fallbacks == 1


def test_iterative_fallback_can_be_disabled():
    matrix = sp.csc_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    solver = IterativeSolver(SolverOptions(backend="iterative",
                                           iterative_fallback=False))
    with pytest.raises(SimulationError, match="SPD"):
        solver.solve(matrix, np.ones(2))


def test_iterative_solves_complex_rhs_by_two_real_solves(technology):
    matrix, rhs = _mesh_system(technology)
    complex_rhs = rhs + 0.5j * np.roll(rhs, 3)
    solver = IterativeSolver()
    solution = solver.factorize(matrix).solve(complex_rhs)
    assert np.allclose(solution, spla.spsolve(matrix, complex_rhs),
                       atol=EQUIV_ATOL)
    assert solver.stats.fallbacks == 0


# -- per-instance stats -------------------------------------------------------------------


def test_unmirrored_solver_does_not_touch_global_stats():
    from repro.simulator.solver import stats as global_stats

    matrix = sp.csc_matrix(3.0 * np.eye(4))
    solver = DirectLUSolver(mirror_global=False)
    before = global_stats.factorizations
    solver.factorize(matrix)
    assert global_stats.factorizations == before
    assert solver.stats.factorizations == 1
    DirectLUSolver().factorize(matrix)
    assert global_stats.factorizations == before + 1


# -- solver options validation / resolution -------------------------------------------------


def test_solver_options_validation():
    with pytest.raises(SimulationError, match="backend"):
        SolverOptions(backend="cholesky")
    with pytest.raises(SimulationError, match="preconditioner"):
        SolverOptions(preconditioner="ssor")


def test_mna_solve_sparse_routes_through_solver_seam():
    from repro.simulator.mna import solve_sparse as mna_solve

    matrix = sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    rhs = np.array([1.0, 2.0])
    reference = mna_solve(matrix, rhs)
    solver = ReusePatternLUSolver()
    routed = mna_solve(matrix, rhs, solver=solver)
    assert np.allclose(routed, reference, atol=EQUIV_ATOL)
    assert solver.stats.factorizations == 1
    assert np.allclose(
        mna_solve(matrix, rhs, solver=SolverOptions(backend="iterative")),
        reference, atol=EQUIV_ATOL)


def test_resolve_solver_passthrough_and_defaults():
    assert isinstance(resolve_solver(None), DirectLUSolver)
    assert isinstance(resolve_solver(SolverOptions(backend="iterative")),
                      IterativeSolver)
    shared = ReusePatternLUSolver()
    assert resolve_solver(shared) is shared


def test_effective_gmin_override():
    options = SolverOptions(gmin=1e-9)
    assert options.effective_gmin(1e-12) == 1e-9
    assert SolverOptions().effective_gmin(1e-12) == 1e-12


# -- extraction-cache keys ------------------------------------------------------------------


def test_solver_options_are_part_of_extraction_cache_key(technology,
                                                         nmos_cell, tmp_path):
    from repro.studies import DiskExtractionCache, extraction_key

    base = FlowOptions(substrate=SubstrateExtractionOptions(nx=10, ny=10))
    loose = FlowOptions(
        substrate=base.substrate,
        solver=SolverOptions(backend="iterative", cg_rtol=1e-8))
    tight = FlowOptions(
        substrate=base.substrate,
        solver=SolverOptions(backend="iterative", cg_rtol=1e-13))

    key_base = extraction_key(nmos_cell, technology, base)
    key_loose = extraction_key(nmos_cell, technology, loose)
    key_tight = extraction_key(nmos_cell, technology, tight)
    assert len({key_base, key_loose, key_tight}) == 3

    # Pure memory knobs never influence results, so they must not
    # invalidate cached extractions.
    small_cache = FlowOptions(
        substrate=base.substrate,
        solver=SolverOptions(max_cached_patterns=2))
    assert extraction_key(nmos_cell, technology, small_cache) == key_base

    # Two campaigns differing only in the [solver] tolerance must not share
    # DiskExtractionCache entries: an entry stored under one key is a miss
    # under the other.
    cache = DiskExtractionCache(tmp_path / "cache")
    flow = run_extraction_flow(nmos_cell, technology, options=loose)
    cache.store(key_loose, flow)
    assert cache.lookup(key_loose) is not None
    assert cache.lookup(key_tight) is None


def test_campaign_fingerprint_and_sidecar_record_solver(technology):
    from dataclasses import replace

    from repro.core.vco_experiment import VcoExperimentOptions
    from repro.studies import Campaign, ParamSpace

    space = ParamSpace({"vtune": (0.0,), "noise_frequency": (1e6,)})
    default = Campaign(name="c", space=space)
    tuned = Campaign(
        name="c", space=space,
        options=replace(
            VcoExperimentOptions(),
            flow=replace(VcoExperimentOptions().flow,
                         solver=SolverOptions(backend="reuse-lu"))))
    assert default.fingerprint() != tuned.fingerprint()
    assert tuned.describe()["options"]["solver"]["backend"] == "reuse-lu"

    # max_cached_patterns is results-neutral: same fingerprint, so stored
    # results still resume a re-run with a different pattern-cache size.
    small_cache = Campaign(
        name="c", space=space,
        options=replace(
            VcoExperimentOptions(),
            flow=replace(VcoExperimentOptions().flow,
                         solver=SolverOptions(max_cached_patterns=3))))
    assert small_cache.fingerprint() == default.fingerprint()
