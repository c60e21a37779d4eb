"""Small-signal AC analysis.

The circuit is linearised around a DC operating point, then the complex MNA
system ``(G + j*omega*C) x = b`` is solved at every requested frequency with
the AC phasors of the independent sources on the right-hand side.

This is the analysis used throughout the reproduction to compute the transfer
from the substrate-noise injection source to the sensitive nodes of the
circuit (back-gates, on-chip ground, tank nodes, output).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from ..netlist.elements import CurrentSource, VoltageSource
from .dc import DcOptions, DcSolution, dc_operating_point
from .mna import MnaStructure, SolutionView, stamp_linear_elements
from .solver import (
    Factorization,
    SharedPatternPair,
    add_gmin_diagonal,
    dense_solve,
    is_dense,
)


#: Largest ``(F, n, n)`` complex stack one dense sweep batch may allocate.
DENSE_STACK_BYTES = 16 << 20


@dataclass
class AcSolution:
    """Frequency-sweep result: complex node voltages at every frequency."""

    circuit: Circuit
    structure: MnaStructure
    frequencies: np.ndarray              #: shape (F,)
    vectors: np.ndarray                  #: shape (F, size), complex

    def voltage(self, node: str) -> np.ndarray:
        """Complex voltage phasor of ``node`` at every frequency."""
        row = self.structure.node_row(node)
        if row is None:
            return np.zeros(len(self.frequencies), dtype=complex)
        return self.vectors[:, row]

    def voltage_between(self, node_p: str, node_n: str) -> np.ndarray:
        return self.voltage(node_p) - self.voltage(node_n)

    def magnitude_db(self, node: str, reference: float = 1.0) -> np.ndarray:
        """Voltage magnitude in dB relative to ``reference`` volts."""
        magnitude = np.abs(self.voltage(node))
        return 20.0 * np.log10(np.maximum(magnitude, 1e-30) / reference)

    def branch_current(self, branch: str) -> np.ndarray:
        return self.vectors[:, self.structure.branch_row(branch)]

    def at_frequency(self, frequency: float) -> SolutionView:
        """Solution view at the frequency point closest to ``frequency``."""
        index = int(np.argmin(np.abs(self.frequencies - frequency)))
        return SolutionView(self.structure, self.vectors[index])


def _small_signal_matrices(circuit: Circuit, structure: MnaStructure,
                           operating_point: DcSolution | None):
    """Build (G, C) with all nonlinear elements replaced by their linearisation.

    Dense arrays for circuits on the dense path, sparse matrices otherwise.
    """
    stamper = stamp_linear_elements(circuit, structure,
                                    dense=is_dense(structure.size))
    nonlinear = circuit.nonlinear_elements()
    if nonlinear:
        if operating_point is None:
            raise SimulationError(
                "circuit contains nonlinear elements: an operating point is required")
        voltages = operating_point.voltages()
        for element in nonlinear:
            element.stamp_small_signal(stamper, voltages)
    return stamper.conductance_matrix(), stamper.capacitance_matrix()


def _ac_rhs(circuit: Circuit, structure: MnaStructure) -> np.ndarray:
    """Right-hand side holding the AC phasors of the independent sources."""
    rhs = np.zeros(structure.size, dtype=complex)
    for element in circuit.sources():
        if isinstance(element, VoltageSource):
            rhs[structure.branch_row(element.name)] = element.value.ac_phasor
        elif isinstance(element, CurrentSource):
            phasor = element.value.ac_phasor
            row_p = structure.node_row(element.node_p)
            row_n = structure.node_row(element.node_n)
            if row_p is not None:
                rhs[row_p] -= phasor
            if row_n is not None:
                rhs[row_n] += phasor
    return rhs


def solve_frequency_sweep(g_matrix, c_matrix, frequencies: np.ndarray,
                          rhs: np.ndarray, structure: MnaStructure,
                          gmin: float) -> np.ndarray:
    """Solve ``(G + gmin + j*2*pi*f*C) x = rhs`` at every frequency.

    ``gmin`` is added from every node to ground (it keeps otherwise-floating
    nodes solvable).  ``rhs`` is a vector or an ``(n, k)`` block; the result
    stacks one solution per frequency, shape ``(F,) + rhs.shape``.  Systems
    with at most :data:`~repro.simulator.solver.DENSE_MAX_UNKNOWNS` unknowns
    (``G`` and ``C`` dense arrays, see :func:`_small_signal_matrices`) are
    solved as one ``(F, n, n)`` LAPACK batch built in place in a single
    complex buffer (split into several batches only when it would exceed
    :data:`DENSE_STACK_BYTES`); larger ones are assembled per point on a
    :class:`SharedPatternPair`, factorized with SuperLU and solved for the
    whole ``rhs`` block.  Either way each frequency counts one factorization
    and one solve.
    """
    g_matrix = add_gmin_diagonal(g_matrix, structure.n_nodes, gmin)
    if is_dense(structure.size):
        s_points = 2j * np.pi * frequencies
        step = max(1, DENSE_STACK_BYTES // (16 * max(structure.size, 1) ** 2))
        batches = []
        for start in range(0, frequencies.size, step):
            stack = np.multiply.outer(s_points[start:start + step], c_matrix)
            stack += g_matrix
            batches.append(dense_solve(stack, rhs, structure=structure))
        return batches[0] if len(batches) == 1 else np.concatenate(batches)
    pattern = SharedPatternPair(g_matrix, c_matrix)
    out = np.zeros((frequencies.size,) + rhs.shape, dtype=complex)
    for index, frequency in enumerate(frequencies):
        matrix = pattern.assemble(2j * np.pi * frequency)
        out[index] = Factorization(matrix, structure=structure).solve(rhs)
    return out


def ac_analysis(circuit: Circuit, frequencies: np.ndarray | list[float],
                operating_point: DcSolution | None = None,
                dc_options: DcOptions | None = None,
                gmin: float = 1e-12) -> AcSolution:
    """Run an AC sweep over ``frequencies`` (hertz).

    If the circuit contains nonlinear devices and no ``operating_point`` is
    supplied, a DC operating point is solved first.
    """
    circuit.validate()
    frequencies = np.asarray(list(frequencies), dtype=float)
    if frequencies.size == 0:
        raise SimulationError("AC analysis needs at least one frequency point")
    if np.any(frequencies < 0):
        raise SimulationError("AC frequencies must be non-negative")

    structure = MnaStructure.from_circuit(circuit)
    if operating_point is None and circuit.nonlinear_elements():
        operating_point = dc_operating_point(circuit, dc_options)

    g_matrix, c_matrix = _small_signal_matrices(circuit, structure, operating_point)
    vectors = solve_frequency_sweep(g_matrix, c_matrix, frequencies,
                                    _ac_rhs(circuit, structure), structure,
                                    gmin)
    return AcSolution(circuit=circuit, structure=structure,
                      frequencies=frequencies, vectors=vectors)
