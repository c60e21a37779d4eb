"""Tests of the batched transfer-function analysis.

The multi-source path must solve every source through *one* factorization per
frequency point (multi-RHS batching), and the in-place source substitution
must restore the caller's circuit even when the solve fails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.netlist.elements import SourceValue
from repro.simulator import (
    substituted_sources,
    transfer_function,
    transfer_functions,
)
from repro.simulator.solver import stats


def _summing_network() -> Circuit:
    circuit = Circuit("two_sources")
    circuit.add_voltage_source("V1", "a", "0", SourceValue(dc=1.0, ac_magnitude=5.0))
    circuit.add_voltage_source("V2", "b", "0", SourceValue(ac_magnitude=7.0))
    circuit.add_current_source("I1", "0", "out", SourceValue(ac_magnitude=2.0))
    circuit.add_resistor("R1", "a", "out", 1e3)
    circuit.add_resistor("R2", "b", "out", 1e3)
    circuit.add_resistor("R3", "out", "0", 1e3)
    return circuit


def test_batched_matches_single_source():
    circuit = _summing_network()
    frequencies = [1e3, 1e5, 1e7]
    batched = transfer_functions(circuit, ["V1", "V2", "I1"], ["out"],
                                 frequencies)
    for name in ("V1", "V2", "I1"):
        single = transfer_function(circuit, name, ["out"], frequencies)
        np.testing.assert_allclose(batched[name].transfers["out"],
                                   single.transfers["out"],
                                   rtol=0, atol=1e-13)
    # Voltage-source transfers: 1 V on one input of the summing network.
    assert abs(batched["V1"].at("out", 1e3)) == pytest.approx(1.0 / 3.0,
                                                              rel=1e-9)
    # Current-source transfer in V/A: 1 A into R3 || (R1 + R2/2...) etc.
    assert abs(batched["I1"].at("out", 1e3)) > 0


def test_one_factorization_per_frequency_regardless_of_sources():
    circuit = _summing_network()
    frequencies = [1e3, 1e4, 1e5, 1e6]
    stats.reset()
    transfer_functions(circuit, ["V1", "V2", "I1"], ["out"], frequencies)
    assert stats.factorizations == len(frequencies)
    assert stats.solves == len(frequencies)        # one multi-RHS block each


def test_sources_are_restored_after_analysis():
    circuit = _summing_network()
    originals = {element.name: element.value for element in circuit.sources()}
    transfer_functions(circuit, ["V1", "V2"], ["out"], [1e3])
    for element in circuit.sources():
        assert element.value is originals[element.name]


def test_sources_are_restored_on_solver_error(monkeypatch):
    circuit = _summing_network()
    originals = {element.name: element.value for element in circuit.sources()}

    from repro.simulator.linalg import LinearSolver

    def failing_solve_dense(self, *args, **kwargs):
        raise SimulationError("injected factorization failure")

    # The network is small enough for the dense batch: fail that solve.
    monkeypatch.setattr(LinearSolver, "solve_dense", failing_solve_dense)
    with pytest.raises(SimulationError, match="injected"):
        transfer_functions(circuit, ["V1"], ["out"], [1e3])
    for element in circuit.sources():
        assert element.value is originals[element.name]
    # DC levels survived the round trip (the operating point is untouched).
    assert circuit.sources()[0].value.dc == 1.0


def test_substituted_sources_drives_one_source_at_a_time():
    circuit = _summing_network()
    with substituted_sources(circuit) as drive:
        drive("V2")
        values = {element.name: element.value
                  for element in circuit.sources()}
        assert values["V2"].ac_magnitude == 1.0
        assert values["V1"].ac_magnitude == 0.0
        assert values["I1"].ac_magnitude == 0.0
        assert values["V1"].dc == 1.0              # DC level preserved
        drive(None)
        assert all(element.value.ac_magnitude == 0.0
                   for element in circuit.sources())


def test_transfer_input_validation():
    circuit = _summing_network()
    with pytest.raises(SimulationError):
        transfer_functions(circuit, ["nope"], ["out"], [1e3])
    with pytest.raises(SimulationError):
        transfer_functions(circuit, [], ["out"], [1e3])
    with pytest.raises(SimulationError):
        transfer_functions(circuit, ["V1"], [], [1e3])
    with pytest.raises(SimulationError):
        transfer_functions(circuit, ["V1"], ["out"], [])
    with pytest.raises(SimulationError):
        transfer_functions(circuit, ["V1"], ["out"], [-1.0])
    with pytest.raises(SimulationError):
        transfer_functions(circuit, ["V1", "V1"], ["out"], [1e3])


def test_ground_observation_reads_zero_and_unknown_node_raises():
    circuit = _summing_network()
    tf = transfer_function(circuit, "V1", ["0"], [1e3, 1e6])
    np.testing.assert_array_equal(tf.transfers["0"],
                                  np.zeros(2, dtype=complex))
    with pytest.raises(SimulationError):
        transfer_function(circuit, "V1", ["ghost"], [1e3])


def test_rc_lowpass_corner():
    circuit = Circuit("rc")
    circuit.add_voltage_source("VIN", "in", "0", 1.0)
    circuit.add_resistor("R", "in", "out", 1e3)
    circuit.add_capacitor("C", "out", "0", 1e-9)
    corner = 1.0 / (2.0 * np.pi * 1e3 * 1e-9)
    tf = transfer_function(circuit, "VIN", ["out"], [corner])
    assert abs(tf.at("out", corner)) == pytest.approx(1.0 / np.sqrt(2.0),
                                                      rel=1e-9)
    assert tf.phase_deg("out")[0] == pytest.approx(-45.0, abs=1e-6)
