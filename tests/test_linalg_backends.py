"""The ``[solver]`` table on the one LU path.

:class:`SolverOptions` accepts two backend names, ``"direct"`` and
``"reuse-lu"``; both run the same solves (dense LAPACK up to
``DENSE_MAX_UNKNOWNS`` unknowns, SuperLU above).  The equivalence suite
configures an extraction flow with each accepted name and checks that every
stage downstream of it — the DC, AC and transient analyses of its impact
testbench and its Kron reduction — matches a direct reference when forced
onto SuperLU.  The remaining tests cover the VCO spur analysis, the
``mna.solve_sparse`` entry point, validation of the table and its part in
the extraction-cache key and the campaign sidecar.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro.substrate.extraction as extraction_module
from repro.core.flow import FlowOptions, run_extraction_flow
from repro.core.vco_experiment import VcoImpactAnalysis
from repro.errors import SimulationError
from repro.simulator import ac_analysis, dc_operating_point, transient_analysis
from repro.simulator import solver as solver_core
from repro.simulator.linalg import BACKENDS, SolverOptions
from repro.simulator.transfer import transfer_functions
from repro.substrate.extraction import SubstrateExtractionOptions

EQUIV_ATOL = 1e-10

SMALL_MESH = SubstrateExtractionOptions(nx=10, ny=10, n_z_per_layer=2)


def _with_backend(options, backend):
    """``options`` (experiment options) with its flow's ``[solver]`` set."""
    return replace(options, flow=replace(options.flow,
                                         solver=SolverOptions(backend=backend)))


@pytest.fixture(scope="module")
def analyses(technology, vco_analysis):
    """The Fig-8 style VCO analysis, extracted under each backend name."""
    return {backend: VcoImpactAnalysis(
                technology, options=_with_backend(vco_analysis.options, backend))
            for backend in BACKENDS}


def _superlu_only(monkeypatch):
    """Send every solve through SuperLU (the impact testbench is small
    enough for the dense path) and count the factorizations."""
    monkeypatch.setattr(solver_core, "DENSE_MAX_UNKNOWNS", 0)
    solver_core.stats.reset()
    return solver_core.stats


def _scaled_close(got, want, atol=EQUIV_ATOL):
    return np.allclose(got, want, atol=atol * np.abs(want).max())


# -- backend equivalence on the analyses -------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_dc_backends_match_direct(vco_analysis, analyses, backend, monkeypatch):
    reference = dc_operating_point(vco_analysis.build_testbench(0.0)).vector
    circuit = analyses[backend].build_testbench(0.0)
    stats = _superlu_only(monkeypatch)
    solution = dc_operating_point(circuit)
    assert stats.solves == solution.iterations > 1
    assert _scaled_close(solution.vector, reference)


@pytest.mark.parametrize("backend", BACKENDS)
def test_ac_backends_match_direct(vco_analysis, analyses, backend,
                                  monkeypatch):
    frequencies = np.logspace(5, 8, 7)
    reference_circuit = vco_analysis.build_testbench(0.0)
    operating_point = dc_operating_point(reference_circuit)
    reference = ac_analysis(reference_circuit, frequencies,
                            operating_point=operating_point).vectors
    circuit = analyses[backend].build_testbench(0.0)
    stats = _superlu_only(monkeypatch)
    vectors = ac_analysis(circuit, frequencies,
                          operating_point=operating_point).vectors
    assert stats.factorizations == frequencies.size
    assert _scaled_close(vectors, reference)


@pytest.mark.parametrize("backend", BACKENDS)
def test_transient_backends_match_direct(vco_analysis, analyses, backend):
    """Transient always runs SuperLU (one Newton solve per iteration on this
    nonlinear testbench); it starts from the dense-path DC operating point
    and reproduces the direct-configured flow's waveforms."""
    reference_circuit = vco_analysis.build_testbench(0.0)
    operating_point = dc_operating_point(reference_circuit)
    reference = transient_analysis(reference_circuit, t_stop=2e-10,
                                   timestep=1e-11).vectors
    solver_core.stats.reset()
    vectors = transient_analysis(analyses[backend].build_testbench(0.0),
                                 t_stop=2e-10, timestep=1e-11).vectors
    assert solver_core.stats.solves >= len(vectors) - 1
    assert _scaled_close(vectors[0], operating_point.vector)
    assert _scaled_close(vectors, reference)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kron_reduction_backends_match_direct(technology, nmos_cell, backend,
                                              monkeypatch):
    """The mesh-solve Kron reduction (SuperLU on the assembled mesh) of a
    flow configured with ``backend`` matches the contact-space reduction."""
    reference = run_extraction_flow(
        nmos_cell, technology,
        options=FlowOptions(substrate=SMALL_MESH)).substrate.macromodel
    original = extraction_module.kron_reduce

    def mesh_solve(conductance, port_nodes, port_names, **kwargs):
        return original(conductance.matrix(), port_nodes, port_names, **kwargs)

    monkeypatch.setattr(extraction_module, "kron_reduce", mesh_solve)
    solver_core.stats.reset()
    reduced = run_extraction_flow(
        nmos_cell, technology,
        options=FlowOptions(substrate=SMALL_MESH,
                            solver=SolverOptions(backend=backend))
    ).substrate.macromodel
    assert (reference.method, reduced.method) == ("contact-space", "mesh-solve")
    assert solver_core.stats.factorizations == 1
    assert _scaled_close(reduced.admittance, reference.admittance, atol=1e-9)


@pytest.mark.parametrize("backend", ("reuse-lu",))
def test_extraction_flow_backends_match_direct(technology, nmos_cell, backend):
    reference = run_extraction_flow(
        nmos_cell, technology, options=FlowOptions(substrate=SMALL_MESH))
    flow = run_extraction_flow(
        nmos_cell, technology,
        options=FlowOptions(substrate=SMALL_MESH,
                            solver=SolverOptions(backend=backend)))
    assert np.array_equal(flow.substrate.macromodel.admittance,
                          reference.substrate.macromodel.admittance)
    untimed = {"extraction_seconds": 0.0}
    assert flow.summary() | untimed == reference.summary() | untimed


def test_vco_spur_analysis_backends_match_direct(vco_analysis, analyses,
                                                monkeypatch):
    """The Fig-8/Fig-10 style spur analysis matches across backends and
    across the dense and SuperLU paths.

    The linear solves (the substrate-to-node transfer functions at a fixed
    operating point) must match the dense path to <= 1e-9; the end-to-end
    spur powers additionally absorb the DC Newton termination (abs_tolerance
    1e-9 V — each path's roundoff stops Newton at a slightly different
    iterate), so they are compared at 1e-6 dB.
    """
    reference, _, _, tf_reference = vco_analysis.analyze(0.0)
    circuit = vco_analysis.build_testbench(0.0)
    operating_point = dc_operating_point(circuit)
    nodes = tf_reference.nodes()
    frequencies = tf_reference.frequencies
    dense_tf = transfer_functions(circuit, ["VSUB_SRC"], nodes, frequencies,
                                  operating_point=operating_point)["VSUB_SRC"]

    stats = _superlu_only(monkeypatch)
    tf = transfer_functions(circuit, ["VSUB_SRC"], nodes, frequencies,
                            operating_point=operating_point)["VSUB_SRC"]
    assert stats.factorizations == len(frequencies)
    for node in nodes:
        # 1e-9 instead of 1e-10: the full impact testbench spans twelve
        # orders of magnitude in conductance (gmin 1e-12 S to contact
        # ties 1e6 S), and ~3e-10 is the roundoff reproducibility floor
        # of a direct solve on that conditioning.
        assert np.allclose(tf.transfers[node], dense_tf.transfers[node],
                           atol=1e-9, rtol=EQUIV_ATOL)

    for backend in BACKENDS:
        results, _, _, _ = analyses[backend].analyze(0.0)
        for got, want in zip(results, reference):
            assert got.total_spur_power_dbm() == pytest.approx(
                want.total_spur_power_dbm(), abs=1e-6)


def test_mna_solve_sparse_routes_through_solver_seam():
    """``mna.solve_sparse`` is the counted SuperLU path of the solver core."""
    from repro.simulator.mna import solve_sparse as mna_solve

    matrix = sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    rhs = np.array([1.0, 2.0])
    solver_core.stats.reset()
    routed = mna_solve(matrix, rhs)
    assert np.allclose(routed, spla.spsolve(matrix, rhs), atol=EQUIV_ATOL)
    # A one-shot solve: counted as a solve, not a reusable factorization.
    assert (solver_core.stats.factorizations, solver_core.stats.solves) == (0, 1)
    with pytest.raises(SimulationError):
        mna_solve(sp.csc_matrix(np.zeros((2, 2))), rhs)


# -- solver options validation --------------------------------------------------------------


def test_solver_options_validation():
    assert [f.name for f in fields(SolverOptions)] == ["backend"]
    assert BACKENDS == ("direct", "reuse-lu")
    for retired in ("iterative", "cholesky"):
        with pytest.raises(SimulationError, match="direct, reuse-lu"):
            SolverOptions(backend=retired)


# -- extraction-cache keys ------------------------------------------------------------------


def test_solver_options_are_part_of_extraction_cache_key(technology,
                                                         nmos_cell, tmp_path):
    from repro.studies import DiskExtractionCache, extraction_key

    substrate = SubstrateExtractionOptions(nx=10, ny=10)
    direct = FlowOptions(substrate=substrate)
    reuse = FlowOptions(substrate=substrate,
                        solver=SolverOptions(backend="reuse-lu"))
    key_direct = extraction_key(nmos_cell, technology, direct)
    key_reuse = extraction_key(nmos_cell, technology, reuse)
    assert key_direct != key_reuse

    # Two campaigns differing only in the [solver] table must not share
    # DiskExtractionCache entries: an entry stored under one key is a miss
    # under the other.
    cache = DiskExtractionCache(tmp_path / "cache")
    cache.store(key_reuse, run_extraction_flow(nmos_cell, technology,
                                               options=reuse))
    assert cache.lookup(key_reuse) is not None
    assert cache.lookup(key_direct) is None


def test_campaign_fingerprint_and_sidecar_record_solver():
    from repro.core.vco_experiment import VcoExperimentOptions
    from repro.studies import Campaign, ParamSpace

    space = ParamSpace({"vtune": (0.0,), "noise_frequency": (1e6,)})
    default = Campaign(name="c", space=space)
    tuned = Campaign(name="c", space=space,
                     options=_with_backend(VcoExperimentOptions(), "reuse-lu"))
    assert default.fingerprint() != tuned.fingerprint()
    assert tuned.describe()["options"]["solver"] == {"backend": "reuse-lu"}
