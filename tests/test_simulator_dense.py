"""The dense small-signal engine against the sparse reference path.

Circuits with at most ``DENSE_MAX_UNKNOWNS`` MNA unknowns solve their DC
Newton steps and whole AC / transfer sweeps with LAPACK (one ``(F, n, n)``
stack per sweep); larger circuits keep the sparse per-frequency path.  The
cases below pin the two paths to each other — transfers within 1e-9
relative, a small Fig-8 campaign within 1e-8 dB — and check that the dense
path keeps the sparse path's diagnostics, counters and grid discipline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AnalysisError, SimulationError
from repro.netlist.circuit import Circuit
from repro.netlist.elements import SourceValue
from repro.simulator import (
    DcOptions,
    ac_analysis,
    dc_operating_point,
    transfer_functions,
)
from repro.simulator import ac as ac_module
from repro.simulator import solver as solver_core
from repro.simulator.mna import MnaStructure
from repro.simulator.solver import dense_solve
from repro.studies import Campaign, ExtractionCache, ParamSpace, SweepRunner
from repro.vco.sensitivity import entries_at_frequency

#: Transfer agreement, dense vs sparse, relative to the sweep's largest
#: transfer.  Point by point the impact testbench's MNA matrices (condition
#: number ~1e9) leave both LU paths ~2e-10 from the exact solution, so
#: near-zero transfers agree only to that absolute level.
TRANSFER_RTOL = 1e-9
#: Spur-power agreement of a Fig-8 campaign, dense vs sparse.
SPUR_DB_TOL = 1e-8

FREQUENCIES = np.logspace(4, 9, 60)


def _grid(rows: int, cols: int) -> Circuit:
    """An RC grid driven at one corner: ``rows * cols + 1`` unknowns."""
    circuit = Circuit("grid")
    circuit.add_voltage_source("V1", "n_0_0", "0",
                               SourceValue(dc=1.0, ac_magnitude=1.0))
    for i in range(rows):
        for j in range(cols):
            node = f"n_{i}_{j}"
            if i + 1 < rows:
                circuit.add_resistor(f"Rx_{i}_{j}", node, f"n_{i + 1}_{j}", 100.0)
            if j + 1 < cols:
                circuit.add_resistor(f"Ry_{i}_{j}", node, f"n_{i}_{j + 1}", 100.0)
            circuit.add_capacitor(f"C_{i}_{j}", node, "0", 1e-13)
    circuit.add_resistor("Rgnd", f"n_{rows - 1}_{cols - 1}", "0", 100.0)
    return circuit


def _grid_around_limit(side: str) -> Circuit:
    """A 4-row grid just below (``"below"``) or just above the dense limit."""
    limit = solver_core.DENSE_MAX_UNKNOWNS
    cols = (limit - 1) // 4 if side == "below" else limit // 4 + 1
    return _grid(4, cols)


def _with_limit(monkeypatch, limit: int, run):
    """Run ``run()`` with ``DENSE_MAX_UNKNOWNS`` temporarily set to ``limit``."""
    with monkeypatch.context() as patch:
        patch.setattr(solver_core, "DENSE_MAX_UNKNOWNS", limit)
        return run()


def _dense_and_sparse(monkeypatch, run):
    return (_with_limit(monkeypatch, 10**9, run),
            _with_limit(monkeypatch, 0, run))


def _assert_close(got: np.ndarray, want: np.ndarray) -> None:
    assert np.max(np.abs(got - want)) <= TRANSFER_RTOL * np.max(np.abs(want))


# -- dense vs sparse equivalence ----------------------------------------------


@pytest.mark.parametrize("side, dense_expected",
                         [("below", True), ("above", False)])
def test_grid_transfer_dense_matches_sparse(monkeypatch, side, dense_expected):
    circuit = _grid_around_limit(side)
    size = MnaStructure.from_circuit(circuit).size
    assert (size <= solver_core.DENSE_MAX_UNKNOWNS) == dense_expected
    nodes = ["n_0_1", "n_2_2", "n_3_5"]

    def run():
        tf = transfer_functions(circuit, ["V1"], nodes, FREQUENCIES)["V1"]
        return np.array([tf.transfers[node] for node in nodes])

    dense, sparse = _dense_and_sparse(monkeypatch, run)
    _assert_close(dense, sparse)
    # The default limit picks the path the circuit size says it should.
    np.testing.assert_array_equal(run(), dense if dense_expected else sparse)


@pytest.mark.parametrize("side", ["below", "above"])
def test_grid_ac_dense_matches_sparse(monkeypatch, side):
    circuit = _grid_around_limit(side)

    def run():
        return ac_analysis(circuit, FREQUENCIES).vectors

    dense, sparse = _dense_and_sparse(monkeypatch, run)
    _assert_close(dense, sparse)


@pytest.mark.parametrize("vtune", [0.0, 0.75, 1.5])
def test_vco_testbench_dense_matches_sparse(monkeypatch, vco_analysis, vtune):
    circuit = vco_analysis.build_testbench(vtune)
    structure = MnaStructure.from_circuit(circuit)
    assert structure.size <= solver_core.DENSE_MAX_UNKNOWNS

    dense_op, sparse_op = _dense_and_sparse(
        monkeypatch, lambda: dc_operating_point(circuit))
    # Newton stops once its update is below abs_tolerance (1e-9 V), so the
    # two operating points agree to that order, not to roundoff.
    assert dense_op.iterations == sparse_op.iterations
    assert np.allclose(dense_op.vector, sparse_op.vector, rtol=0.0,
                       atol=10 * DcOptions().abs_tolerance)

    nodes = list(structure.node_index)

    def run():
        tf = transfer_functions(circuit, ["VSUB_SRC"], nodes, FREQUENCIES,
                                operating_point=sparse_op)["VSUB_SRC"]
        return np.array([tf.transfers[node] for node in nodes])

    dense, sparse = _dense_and_sparse(monkeypatch, run)
    _assert_close(dense, sparse)


def test_fig8_campaign_dense_matches_sparse(monkeypatch, technology,
                                            vco_analysis):
    campaign = Campaign(
        name="dense_vs_sparse",
        space=ParamSpace({"vtune": (0.0, 0.75, 1.5),
                          "noise_frequency": (3e5, 2e6, 15e6)}),
        options=vco_analysis.options)

    def run():
        cache = ExtractionCache()
        cache.seed(vco_analysis.flow, options=vco_analysis.options.flow)
        result = SweepRunner(technology, cache=cache).run(campaign)
        assert result.cache_misses == 0
        return result.column("spur_power_dbm")

    dense, sparse = _dense_and_sparse(monkeypatch, run)
    assert dense.shape == (9,)
    assert np.max(np.abs(dense - sparse)) <= SPUR_DB_TOL


# -- diagnostics --------------------------------------------------------------


def _capacitor_only_node() -> Circuit:
    circuit = Circuit("floating")
    circuit.add_voltage_source("V1", "in", "0",
                               SourceValue(dc=1.0, ac_magnitude=1.0))
    circuit.add_resistor("R1", "in", "0", 1e3)
    circuit.add_capacitor("C1", "a", "0", 1e-12)
    return circuit


@pytest.mark.parametrize("analysis", [
    lambda c: dc_operating_point(c, DcOptions(gmin=0.0)),
    lambda c: ac_analysis(c, [0.0, 1e3], gmin=0.0),
    lambda c: transfer_functions(c, ["V1"], ["a"], [0.0, 1e3], gmin=0.0),
], ids=["dc", "ac", "transfer"])
def test_singular_dense_circuit_names_the_floating_node(analysis):
    with pytest.raises(SimulationError, match="node 'a'"):
        analysis(_capacitor_only_node())


def test_dense_solve_rejects_non_finite_solutions():
    matrix = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(SimulationError, match="non-finite"):
        dense_solve(matrix, np.ones(2))


# -- counters -----------------------------------------------------------------


@pytest.mark.parametrize("sweep", [
    lambda c: transfer_functions(c, ["V1"], ["n_0_1"], FREQUENCIES),
    lambda c: ac_analysis(c, FREQUENCIES),
], ids=["transfer", "ac"])
def test_batched_sweep_counts_one_factorization_per_frequency(sweep):
    circuit = _grid(3, 3)
    solver_core.stats.reset()
    sweep(circuit)
    assert solver_core.stats.factorizations == len(FREQUENCIES)
    assert solver_core.stats.solves == len(FREQUENCIES)


def test_dense_newton_counts_one_solve_per_iteration():
    circuit = _grid(3, 3)
    solver_core.stats.reset()
    solution = dc_operating_point(circuit)
    assert solver_core.stats.solves == solution.iterations
    assert solver_core.stats.factorizations == 0


def test_split_dense_batches_match_one_batch(monkeypatch):
    circuit = _grid(3, 3)
    whole = transfer_functions(circuit, ["V1"], ["n_1_1"],
                               FREQUENCIES)["V1"].transfers["n_1_1"]
    # Room for 7 matrices per batch: 60 frequencies take 9 batches.
    monkeypatch.setattr(ac_module, "DENSE_STACK_BYTES", 7 * 16 * 10 * 10)
    solver_core.stats.reset()
    split = transfer_functions(circuit, ["V1"], ["n_1_1"],
                               FREQUENCIES)["V1"].transfers["n_1_1"]
    np.testing.assert_array_equal(split, whole)
    assert solver_core.stats.factorizations == len(FREQUENCIES)


# -- whole-grid entry evaluation ----------------------------------------------


def test_entries_whole_grid_matches_per_frequency(vco_analysis):
    frequencies = np.asarray(vco_analysis.options.noise_frequencies)
    _results, _vco, catalog, transfer = vco_analysis.analyze(0.0, frequencies)
    per_frequency = entries_at_frequency(catalog, transfer, frequencies)
    assert len(per_frequency) == frequencies.size
    for frequency, entries in zip(frequencies, per_frequency):
        assert entries_at_frequency(catalog, transfer, float(frequency)) \
            == entries


@pytest.mark.parametrize("offset", [1.001, 0.999])
def test_entries_reject_off_grid_frequency(vco_analysis, offset):
    frequencies = np.asarray(vco_analysis.options.noise_frequencies)
    _results, _vco, catalog, transfer = vco_analysis.analyze(0.0, frequencies)
    with pytest.raises(AnalysisError, match="not a point"):
        entries_at_frequency(catalog, transfer, frequencies[1] * offset)
    with pytest.raises(AnalysisError, match="not a point"):
        entries_at_frequency(catalog, transfer,
                             np.append(frequencies, frequencies[0] * offset))
