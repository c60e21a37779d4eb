"""Solver-core micro-benchmarks: stamping, transient stepping, AC sweeping.

These isolate the solver hot paths so their cost can be tracked
independently of the full extraction flow:

* MNA stamping of a large resistor mesh (COO triplet accumulation),
* the linear transient step loop (one cached LU factorization + per-step
  triangular solves),
* a 64-point AC sweep of the 577-unknown grid (sparse path: shared G/C
  sparsity pattern, per-point ``.data`` assembly),
* a 60-point AC sweep of a grid the size of the impact netlist (43
  unknowns, the dense path: one LAPACK batch over all frequencies).

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_solver_micro.py -s``.
"""

import time

import numpy as np

from repro.netlist import Circuit, SourceValue
from repro.simulator import (
    ac_analysis,
    dc_operating_point,
    transient_analysis,
)
from repro.simulator.mna import MnaStructure, stamp_linear_elements
from repro.simulator.solver import stats

from _report import print_table

#: Lateral size of the resistor-grid benchmark circuit (nodes = SIZE**2).
GRID_SIZE = 24
#: Grid of the impact-netlist-sized rung: 6 x 7 nodes + 1 branch = 43
#: unknowns, the size of the VCO testbench.
IMPACT_GRID = (6, 7)


def _grid_circuit(size: int = GRID_SIZE, cols: int | None = None) -> Circuit:
    """A size x cols (default square) resistor grid with a source in one
    corner — a stand-in for the merged impact netlist's substrate resistor
    network."""
    cols = size if cols is None else cols
    circuit = Circuit("grid")
    circuit.add_voltage_source(
        "V1", "n_0_0", "0",
        SourceValue(dc=1.0, ac_magnitude=1.0, waveform=lambda t: 1.0))
    for i in range(size):
        for j in range(cols):
            node = f"n_{i}_{j}"
            if i + 1 < size:
                circuit.add_resistor(f"Rx_{i}_{j}", node, f"n_{i + 1}_{j}", 100.0)
            if j + 1 < cols:
                circuit.add_resistor(f"Ry_{i}_{j}", node, f"n_{i}_{j + 1}", 100.0)
            circuit.add_capacitor(f"C_{i}_{j}", node, "0", 1e-13)
    circuit.add_resistor("Rgnd", f"n_{size - 1}_{cols - 1}", "0", 100.0)
    return circuit


def run_solver_micro_stages() -> dict[str, float]:
    """Time the solver hot paths on the grid circuits.

    Shared by the pytest report below and ``run_bench.py``'s snapshot so the
    two records cannot drift apart.  Returns stage -> wall-clock seconds plus
    the system sizes under ``unknowns`` and ``impact_unknowns``.  The
    impact-sized sweep takes about a millisecond, so it reports the best of
    five runs.
    """
    circuit = _grid_circuit()
    structure = MnaStructure.from_circuit(circuit)

    start = time.perf_counter()
    stamp_linear_elements(circuit, structure).conductance_matrix()
    stamp_seconds = time.perf_counter() - start

    operating_point = dc_operating_point(circuit)
    start = time.perf_counter()
    transient_analysis(circuit, t_stop=4e-7, timestep=1e-9,
                       operating_point=operating_point)
    transient_seconds = time.perf_counter() - start

    start = time.perf_counter()
    ac_analysis(circuit, np.logspace(4, 9, 64))
    ac_seconds = time.perf_counter() - start

    impact = _grid_circuit(*IMPACT_GRID)
    impact_frequencies = np.logspace(4, 9, 60)
    impact_seconds = []
    for _ in range(5):
        start = time.perf_counter()
        ac_analysis(impact, impact_frequencies)
        impact_seconds.append(time.perf_counter() - start)

    return {
        "unknowns": structure.size,
        "stamping_seconds": stamp_seconds,
        "transient_400_steps_seconds": transient_seconds,
        "ac_sweep_64_points_seconds": ac_seconds,
        "impact_unknowns": MnaStructure.from_circuit(impact).size,
        "impact_ac_sweep_60_points_seconds": min(impact_seconds),
    }


def test_stamping_micro_benchmark(benchmark):
    circuit = _grid_circuit()
    structure = MnaStructure.from_circuit(circuit)

    def stamp():
        stamper = stamp_linear_elements(circuit, structure)
        return stamper.conductance_matrix()

    matrix = benchmark(stamp)
    assert matrix.nnz > 0


def test_transient_micro_benchmark(benchmark):
    circuit = _grid_circuit()
    operating_point = dc_operating_point(circuit)
    n_steps = 400

    def run():
        stats.reset()
        return transient_analysis(circuit, t_stop=n_steps * 1e-9,
                                  timestep=1e-9,
                                  operating_point=operating_point)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.factorizations == 1          # cached LU across all steps
    assert len(result.times) == n_steps + 1


def test_ac_sweep_micro_benchmark(benchmark):
    circuit = _grid_circuit()
    frequencies = np.logspace(4, 9, 64)

    def run():
        return ac_analysis(circuit, frequencies)

    ac = benchmark.pedantic(run, rounds=3, iterations=1)
    assert ac.vectors.shape == (frequencies.size, ac.vectors.shape[1])


def test_solver_micro_report():
    """One-shot wall-clock table of the three micro-benchmarks."""
    stages = run_solver_micro_stages()
    print_table(
        f"Solver micro-benchmarks ({GRID_SIZE}x{GRID_SIZE} grid, "
        f"{stages['unknowns']} unknowns)",
        [
            {"stage": "stamping + CSR build",
             "seconds": stages["stamping_seconds"]},
            {"stage": "transient (400 steps)",
             "seconds": stages["transient_400_steps_seconds"]},
            {"stage": "AC sweep (64 points)",
             "seconds": stages["ac_sweep_64_points_seconds"]},
            {"stage": f"AC sweep, {stages['impact_unknowns']} unknowns "
                      "(60 points)",
             "seconds": stages["impact_ac_sweep_60_points_seconds"]},
        ])
    assert stages["stamping_seconds"] < 5.0
    assert stages["transient_400_steps_seconds"] < 30.0
    assert stages["ac_sweep_64_points_seconds"] < 30.0
    assert stages["impact_unknowns"] == 43
    assert stages["impact_ac_sweep_60_points_seconds"] < 30.0
