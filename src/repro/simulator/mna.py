"""Modified nodal analysis (MNA) assembly.

The assembler turns a :class:`~repro.netlist.circuit.Circuit` into the sparse
matrices of the MNA formulation

``(G + s*C) x = b``

where ``x`` stacks the node voltages (excluding ground) and the branch
currents of voltage-defined elements (voltage sources, inductors, VCVS).

Two classes cooperate:

* :class:`MnaStructure` — the fixed index maps (node name -> row, branch name
  -> row) derived once from the circuit.
* :class:`MatrixStamper` — an implementation of the
  :class:`~repro.netlist.stamping.Stamper` interface that accumulates stamps
  into ``G``, ``C`` and the right-hand side ``b`` using those index maps.

Analyses create a fresh stamper (or copy a pre-stamped linear one), let the
elements stamp themselves, overwrite the right-hand side with the source
values they need (DC levels, AC phasors, transient samples) and solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from ..netlist.stamping import GROUND, Stamper
from . import solver as _solver

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class MnaStructure:
    """Index maps of the MNA unknown vector for a given circuit."""

    node_index: dict[str, int]
    branch_index: dict[str, int]

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "MnaStructure":
        nodes = circuit.nodes()
        branches = circuit.branches()
        node_index = {name: i for i, name in enumerate(nodes)}
        branch_index = {name: len(nodes) + i for i, name in enumerate(branches)}
        return cls(node_index=node_index, branch_index=branch_index)

    @property
    def n_nodes(self) -> int:
        return len(self.node_index)

    @property
    def n_branches(self) -> int:
        return len(self.branch_index)

    @property
    def size(self) -> int:
        return self.n_nodes + self.n_branches

    def node_row(self, node: str) -> int | None:
        """Row of a node, or ``None`` for the ground node."""
        if node == GROUND:
            return None
        try:
            return self.node_index[node]
        except KeyError:
            raise SimulationError(f"unknown node {node!r}") from None

    def branch_row(self, branch: str) -> int:
        try:
            return self.branch_index[branch]
        except KeyError:
            raise SimulationError(f"unknown branch {branch!r}") from None


class TripletAccumulator:
    """COO triplet lists for one sparse matrix being stamped.

    Appending a triplet is O(1); the CSR matrix is built once at the end
    (``coo_matrix`` sums duplicate entries during conversion), which makes
    stamping O(nnz) instead of the repeated sparse indexing a ``lil_matrix``
    needs.
    """

    __slots__ = ("shape", "rows", "cols", "vals")

    def __init__(self, size: int):
        self.shape = (size, size)
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []

    def add(self, row: int, col: int, value: float) -> None:
        self.rows.append(row)
        self.cols.append(col)
        self.vals.append(value)

    def matrix(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        if not self.vals:
            return sp.csr_matrix(self.shape, dtype=float)
        matrix = sp.coo_matrix((self.vals, (self.rows, self.cols)),
                               shape=self.shape, dtype=float)
        return matrix.tocsr()

    def copy(self) -> "TripletAccumulator":
        clone = TripletAccumulator(self.shape[0])
        clone.rows = list(self.rows)
        clone.cols = list(self.cols)
        clone.vals = list(self.vals)
        return clone


class DenseAccumulator:
    """Stamps added straight into a dense array (small systems only)."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def add(self, row: int, col: int, value: float) -> None:
        self.array[row, col] += value

    def matrix(self) -> np.ndarray:
        return self.array


class MatrixStamper(Stamper):
    """Accumulates element stamps into COO triplets for ``G``, ``C`` and a
    dense ``b``; the sparse matrices are assembled on demand.

    Given a dense ``conductance`` (``capacitance``) array, ``G`` (``C``)
    stamps are instead added straight into it, in place, and the matrix
    accessor returns that array — small circuits stamp this way (see
    :data:`~repro.simulator.solver.DENSE_MAX_UNKNOWNS`).
    """

    def __init__(self, structure: MnaStructure,
                 conductance: np.ndarray | None = None,
                 capacitance: np.ndarray | None = None):
        self.structure = structure
        size = structure.size
        self._g = (TripletAccumulator(size) if conductance is None
                   else DenseAccumulator(conductance))
        self._c = (TripletAccumulator(size) if capacitance is None
                   else DenseAccumulator(capacitance))
        self.rhs = np.zeros(size, dtype=float)

    # -- matrix access ---------------------------------------------------------

    def conductance_matrix(self) -> sp.csr_matrix | np.ndarray:
        return self._g.matrix()

    def capacitance_matrix(self) -> sp.csr_matrix | np.ndarray:
        return self._c.matrix()

    def copy(self) -> "MatrixStamper":
        """Deep copy of the accumulated stamps (used by Newton iterations)."""
        clone = MatrixStamper(self.structure)
        clone._g = self._g.copy()
        clone._c = self._c.copy()
        clone.rhs = self.rhs.copy()
        return clone

    # -- low-level helpers -------------------------------------------------------

    def _add(self, matrix: TripletAccumulator | DenseAccumulator,
             row: int | None, col: int | None, value: float) -> None:
        if row is None or col is None:
            return
        matrix.add(row, col, value)

    def _stamp_two_node(self, matrix: TripletAccumulator | DenseAccumulator,
                        node_a: str, node_b: str, value: float) -> None:
        a = self.structure.node_row(node_a)
        b = self.structure.node_row(node_b)
        self._add(matrix, a, a, value)
        self._add(matrix, b, b, value)
        self._add(matrix, a, b, -value)
        self._add(matrix, b, a, -value)

    # -- Stamper interface --------------------------------------------------------

    def conductance(self, node_a: str, node_b: str, value: float) -> None:
        self._stamp_two_node(self._g, node_a, node_b, value)

    def capacitance(self, node_a: str, node_b: str, value: float) -> None:
        self._stamp_two_node(self._c, node_a, node_b, value)

    def current(self, node_from: str, node_to: str, value: float) -> None:
        row_from = self.structure.node_row(node_from)
        row_to = self.structure.node_row(node_to)
        if row_from is not None:
            self.rhs[row_from] -= value
        if row_to is not None:
            self.rhs[row_to] += value

    def vccs(self, node_p: str, node_n: str, ctrl_p: str, ctrl_n: str,
             gm: float) -> None:
        p = self.structure.node_row(node_p)
        n = self.structure.node_row(node_n)
        cp = self.structure.node_row(ctrl_p)
        cn = self.structure.node_row(ctrl_n)
        self._add(self._g, p, cp, gm)
        self._add(self._g, p, cn, -gm)
        self._add(self._g, n, cp, -gm)
        self._add(self._g, n, cn, gm)

    def branch_voltage_source(self, branch: str, node_p: str, node_n: str,
                              value: float) -> None:
        k = self.structure.branch_row(branch)
        p = self.structure.node_row(node_p)
        n = self.structure.node_row(node_n)
        self._add(self._g, p, k, 1.0)
        self._add(self._g, n, k, -1.0)
        self._add(self._g, k, p, 1.0)
        self._add(self._g, k, n, -1.0)
        self.rhs[k] += value

    def branch_inductor(self, branch: str, node_p: str, node_n: str,
                        inductance: float) -> None:
        k = self.structure.branch_row(branch)
        p = self.structure.node_row(node_p)
        n = self.structure.node_row(node_n)
        self._add(self._g, p, k, 1.0)
        self._add(self._g, n, k, -1.0)
        self._add(self._g, k, p, 1.0)
        self._add(self._g, k, n, -1.0)
        # Branch equation: v_p - v_n - s*L*i = 0  ->  C[k,k] = -L.
        self._add(self._c, k, k, -inductance)

    def branch_vcvs(self, branch: str, node_p: str, node_n: str,
                    ctrl_p: str, ctrl_n: str, gain: float) -> None:
        k = self.structure.branch_row(branch)
        p = self.structure.node_row(node_p)
        n = self.structure.node_row(node_n)
        cp = self.structure.node_row(ctrl_p)
        cn = self.structure.node_row(ctrl_n)
        self._add(self._g, p, k, 1.0)
        self._add(self._g, n, k, -1.0)
        self._add(self._g, k, p, 1.0)
        self._add(self._g, k, n, -1.0)
        self._add(self._g, k, cp, -gain)
        self._add(self._g, k, cn, gain)


def stamp_linear_elements(circuit: Circuit,
                          structure: MnaStructure | None = None,
                          dense: bool = False) -> MatrixStamper:
    """Stamp all linear elements of ``circuit`` into a fresh stamper
    (into dense ``G`` and ``C`` arrays when ``dense``)."""
    structure = structure or MnaStructure.from_circuit(circuit)
    shape = (structure.size, structure.size)
    stamper = (MatrixStamper(structure, np.zeros(shape), np.zeros(shape))
               if dense else MatrixStamper(structure))
    for element in circuit.linear_elements():
        element.stamp(stamper)
    return stamper


def solve_sparse(matrix: sp.spmatrix, rhs: np.ndarray,
                 structure: MnaStructure | None = None) -> np.ndarray:
    """Solve a sparse linear system, raising :class:`SimulationError` on failure.

    Thin wrapper around :func:`repro.simulator.solver.solve_sparse`, kept here
    because this module historically owned the one-shot solve.  Passing the
    ``structure`` lets singular-matrix errors name the offending node.
    """
    return _solver.solve_sparse(matrix, rhs, structure=structure)


@dataclass
class SolutionView:
    """Maps a raw MNA solution vector back to named node voltages / currents."""

    structure: MnaStructure
    vector: np.ndarray

    def voltage(self, node: str) -> complex | float:
        row = self.structure.node_row(node)
        if row is None:
            return 0.0
        return self.vector[row]

    def voltage_between(self, node_p: str, node_n: str) -> complex | float:
        return self.voltage(node_p) - self.voltage(node_n)

    def branch_current(self, branch: str) -> complex | float:
        return self.vector[self.structure.branch_row(branch)]

    def voltages(self) -> dict[str, complex | float]:
        return {name: self.vector[row]
                for name, row in self.structure.node_index.items()}
