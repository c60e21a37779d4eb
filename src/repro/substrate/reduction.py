"""Port reduction of the substrate mesh to a compact macromodel.

The full box-integration mesh has thousands of internal nodes; the circuit
only interacts with it through a handful of *ports* (substrate taps, guard
rings, device back-gates, wells, inductor footprints).  The mesh is reduced
exactly (for the resistive network) by a Schur complement — Kron reduction —
of the internal nodes:

``Y_red = Y_pp - Y_pi * Y_ii^{-1} * Y_ip``

On the laterally uniform layered mesh the internal nodes are eliminated
analytically, with the DCT Green's function of the substrate (Gharpurey &
Meyer, IEEE JSSC 1996) on the contacted surface cells; any other mesh is
reduced by a sparse solve of ``Y_ii``.

The reduced admittance matrix is then converted into an equivalent
resistor network between the port nodes, which is what gets merged into the
impact netlist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ExtractionError, SimulationError
from ..netlist.circuit import Circuit
from ..obs import get_logger, trace_span
from ..simulator import solver as _solver
from .mesh import LayeredLaplacian

if TYPE_CHECKING:
    import scipy.sparse as sp

logger = get_logger(__name__)

#: Row-sum residual (relative to max|Y|) above which a reduction logs a
#: warning; the Kron row-sum tolerance of the repository benchmark.
ROWSUM_WARN_TOL = 1e-9


@dataclass
class SubstrateMacromodel:
    """Reduced N-port admittance description of the substrate.

    ``admittance[i, j]`` is the (i, j) entry of the reduced nodal admittance
    matrix in siemens; ``ports`` gives the port names in matrix order.
    ``ground_port`` optionally names a port that is treated as the reference
    (e.g. a backside contact); it is kept in the matrix like any other port.
    """

    ports: tuple[str, ...]
    admittance: np.ndarray
    contact_resistance: dict[str, float] = field(default_factory=dict)
    #: how :func:`kron_reduce` reduced the mesh: "contact-space" or
    #: "mesh-solve" (``None`` for a macromodel built by hand)
    method: str | None = None
    #: K, the distinct mesh cells the ports contact
    contacted_cells: int = 0
    #: Kron invariant residuals relative to max|Y| ("symmetry", "rowsum",
    #: "offdiag"), see :func:`kron_reduce`
    residuals: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.ports)
        if self.admittance.shape != (n, n):
            raise ExtractionError("admittance matrix shape does not match port count")

    def port_index(self, name: str) -> int:
        try:
            return self.ports.index(name)
        except ValueError:
            raise ExtractionError(f"unknown substrate port {name!r}") from None

    def coupling_resistance(self, port_a: str, port_b: str) -> float:
        """Direct branch resistance between two ports in the equivalent network.

        This is ``-1 / Y_ab`` — the value of the resistor that connects the two
        port nodes in the reduced network (not the two-terminal driving-point
        resistance, which also includes paths through the other ports).
        """
        i, j = self.port_index(port_a), self.port_index(port_b)
        y = -self.admittance[i, j]
        if y <= 0.0:
            return np.inf
        return 1.0 / y

    def transfer_resistance_matrix(self) -> np.ndarray:
        """Pseudo-inverse of the admittance matrix (useful for diagnostics)."""
        return np.linalg.pinv(self.admittance)

    def voltage_division(self, source_port: str, sense_port: str,
                         grounded_ports: dict[str, float]) -> float:
        """Voltage at ``sense_port`` per volt at ``source_port``.

        ``grounded_ports`` maps port names to the resistance with which they
        are tied to the external reference (0 V); use a small value for a
        solidly grounded guard ring, or the extracted interconnect resistance
        to reproduce the paper's observation that the ground-wire resistance
        nearly doubles the back-gate voltage.
        """
        n = len(self.ports)
        y = self.admittance.copy()
        for name, resistance in grounded_ports.items():
            if resistance < 0:
                raise ExtractionError("ground tie resistance must be >= 0")
            index = self.port_index(name)
            y[index, index] += 1.0 / max(resistance, 1e-9)
        src = self.port_index(source_port)
        sense = self.port_index(sense_port)
        keep = [i for i in range(n) if i != src]
        y_kk = y[np.ix_(keep, keep)]
        rhs = -y[np.ix_(keep, [src])].ravel()
        solution = np.linalg.solve(y_kk, rhs)
        voltages = np.zeros(n)
        voltages[src] = 1.0
        for value, index in zip(solution, keep):
            voltages[index] = value
        return float(voltages[sense])

    def to_circuit(self, node_names: dict[str, str] | None = None,
                   name: str = "substrate_macromodel",
                   min_conductance: float = 1e-9) -> Circuit:
        """Convert the macromodel to a resistor network circuit.

        ``node_names`` maps port names to circuit node names (defaults to the
        port names themselves).  Branches with conductance below
        ``min_conductance`` siemens (> 1 Gohm) are dropped to keep the netlist
        compact; the contact resistances recorded during extraction are added
        in series as explicit resistors on dedicated ``<port>__tap`` nodes.
        """
        node_names = node_names or {}
        circuit = Circuit(name=name)
        n = len(self.ports)

        def node_of(port: str) -> str:
            return node_names.get(port, port)

        # Internal mesh-side node of each port (before contact resistance).
        def mesh_node_of(port: str) -> str:
            if port in self.contact_resistance and self.contact_resistance[port] > 0:
                return f"{node_of(port)}__tap"
            return node_of(port)

        for i in range(n):
            for j in range(i + 1, n):
                g = -self.admittance[i, j]
                if g > min_conductance:
                    circuit.add_resistor(
                        f"Rsub_{self.ports[i]}_{self.ports[j]}",
                        mesh_node_of(self.ports[i]), mesh_node_of(self.ports[j]),
                        1.0 / g)
        for port, resistance in self.contact_resistance.items():
            if resistance > 0:
                circuit.add_resistor(f"Rcontact_{port}", node_of(port),
                                     f"{node_of(port)}__tap", resistance)
        return circuit


def kron_reduce(conductance: "sp.spmatrix | LayeredLaplacian",
                port_nodes: list[list[int]] | list[list[tuple[int, float]]],
                port_names: list[str],
                port_contact_conductance: list[float] | None = None
                ) -> SubstrateMacromodel:
    """Reduce a substrate mesh to its port-level macromodel.

    Two exact methods compute the same Schur complement:

    * **contact-space** — when ``conductance`` is a
      :class:`~repro.substrate.mesh.LayeredLaplacian` with uniform lateral
      spacings and every port contacts surface cells only (the mesh that
      :func:`~repro.substrate.extraction.extract_substrate` builds), the
      mesh is eliminated analytically: the DCT Green's function of the
      layered substrate on the K contacted cells plus one dense (K+1)
      solve.  No mesh matrix is assembled and no linear solver runs.
    * **mesh-solve** — otherwise (a bare sparse matrix, a port node below
      the surface, non-uniform edges) the internal block of the mesh is
      factorized once with SuperLU and solved against every port column.
      A :class:`~repro.substrate.mesh.LayeredLaplacian` that has to take
      this path counts one ``fallbacks`` in
      :data:`repro.simulator.solver.stats`.

    Parameters
    ----------
    conductance:
        The mesh Laplacian: a :class:`~repro.substrate.mesh.LayeredLaplacian`
        (from :meth:`~repro.substrate.mesh.SubstrateMesh.laplacian`) or an
        assembled (N x N) sparse matrix.
    port_nodes:
        For each port, either a plain list of mesh node indices (the port's
        contact conductance is then split evenly over them) or a list of
        ``(node_index, conductance)`` pairs giving the connection conductance
        per mesh node explicitly (used for partial-coverage contacts).
    port_names:
        Name of each port (same order as ``port_nodes``).
    port_contact_conductance:
        Total contact conductance of each port in siemens when ``port_nodes``
        holds plain indices (``None`` means an ideal connection, implemented
        as a very large conductance).  Ignored for ``(node, conductance)``
        pairs.

    Returns
    -------
    SubstrateMacromodel
        Exact Schur complement of the internal mesh nodes, with the method
        used, K and the Kron invariant residuals.
    """
    if len(port_nodes) != len(port_names):
        raise ExtractionError("port_nodes and port_names must have the same length")
    if not port_names:
        raise ExtractionError("at least one port is required")
    n_ports = len(port_names)
    if port_contact_conductance is None:
        port_contact_conductance = [1e6] * n_ports
    if len(port_contact_conductance) != n_ports:
        raise ExtractionError("contact conductance list length mismatch")
    nodes, ports, shares = _port_contacts(port_nodes, port_names,
                                          port_contact_conductance)

    layered = isinstance(conductance, LayeredLaplacian)
    n_mesh = conductance.n_nodes if layered else conductance.shape[0]
    with trace_span("extract.kron", nodes=n_mesh, ports=n_ports) as span:
        if (layered and conductance.laterally_uniform
                and nodes.max() < conductance.nx * conductance.ny):
            method = "contact-space"
            reduced = _contact_space(conductance, nodes, ports, shares, n_ports)
        else:
            method = "mesh-solve"
            if layered:
                _solver.stats.fallbacks += 1
                conductance = conductance.matrix()
            reduced = _mesh_solve(conductance, nodes, ports, shares, n_ports)
        # Enforce symmetry (numerical round-off).
        admittance = 0.5 * (reduced + reduced.T)
        residuals = _kron_residuals(reduced, admittance)
        contacted = len(np.unique(nodes))
        span.set(method=method, contacted_cells=contacted,
                 **{f"{name}_resid": value for name, value in residuals.items()})
    if residuals["rowsum"] > ROWSUM_WARN_TOL:
        logger.warning("substrate macromodel row-sum residual %.2e exceeds "
                       "%.0e (%s, K=%d)", residuals["rowsum"], ROWSUM_WARN_TOL,
                       method, contacted)
    return SubstrateMacromodel(ports=tuple(port_names), admittance=admittance,
                               method=method, contacted_cells=contacted,
                               residuals=residuals)


def _port_contacts(port_nodes, port_names, port_contact_conductance):
    """Flatten the port contacts to (mesh node, port, conductance) arrays."""
    nodes: list[int] = []
    ports: list[int] = []
    shares: list[float] = []
    for port_idx, (entries, g_total) in enumerate(zip(port_nodes,
                                                      port_contact_conductance)):
        if not entries:
            raise ExtractionError(
                f"port {port_names[port_idx]!r} does not contact any mesh node "
                "(is the shape outside the meshed region?)")
        if g_total <= 0:
            raise ExtractionError("port contact conductance must be positive")
        if isinstance(entries[0], tuple):
            weighted = [(int(node), float(g)) for node, g in entries]
        else:
            share = g_total / len(entries)
            weighted = [(int(node), share) for node in entries]
        for node, share in weighted:
            if share <= 0:
                raise ExtractionError("per-node contact conductance must be positive")
            nodes.append(node)
            ports.append(port_idx)
            shares.append(share)
    return np.array(nodes), np.array(ports), np.array(shares)


def _mesh_solve(conductance, nodes, ports, shares, n_ports):
    """``Y_pp - Y_pi Y_ii^-1 Y_ip`` with one factorization of the mesh block."""
    # The Schur blocks of the augmented (mesh + port) system are assembled
    # directly — no augmented matrix is ever formed.  Port couplings only add
    # to the internal diagonal (Y_ii), the dense internal-to-port block
    # (Y_ip) and the port diagonal (Y_pp).
    n_mesh = conductance.shape[0]
    internal_diagonal = np.zeros(n_mesh)
    y_ip = np.zeros((n_mesh, n_ports))
    y_pp = np.zeros((n_ports, n_ports))
    np.add.at(internal_diagonal, nodes, shares)
    np.add.at(y_ip, (nodes, ports), -shares)
    np.add.at(y_pp, (ports, ports), shares)

    # Regularise the internal block minimally: the floating mesh Laplacian is
    # singular only together with the port rows, and after connecting ports it
    # is non-singular; a tiny diagonal shift guards against round-off.
    import scipy.sparse as sp

    y_ii = (sp.csc_matrix(conductance)
            + sp.diags(internal_diagonal + 1e-12, format="csc"))
    try:
        solved = _solver.Factorization(y_ii).solve(y_ip)
    except SimulationError as exc:
        raise ExtractionError(f"substrate reduction failed: {exc}") from exc
    return y_pp - y_ip.T @ solved


def _contact_space(laplacian, nodes, ports, shares, n_ports):
    """Kron reduction through the Green's function of the contacted cells.

    With W the (K x P) cell-to-port conductances, D = diag(W 1) and H the
    Neumann Green's function of the floating mesh on the K contacted cells,
    the cell currents j solve the bordered system
    ``[[H + D^-1, 1], [1^T, 0]] [j; c] = [D^-1 f; 0]``, whose border
    deflates the constant (floating) mode exactly.  With Z the top-left
    block of its inverse and M = D^-1 W (rows summing to one),

    ``Y_red = (Y_pp - W^T D^-1 W) + M^T Z M``

    The bracket is the star-mesh transform of the cells shared by several
    ports: off its diagonal ``-(W^T D^-1 W)``, on it the negated sum of the
    off-diagonal entries of its row, which is what
    ``Y_pp - diag(W^T D^-1 W)`` equals without subtracting the large ideal
    contact conductances from each other.  Both terms therefore have zero
    row sums by construction (Z 1 = 0).
    """
    cells, cell_of = np.unique(nodes, return_inverse=True)
    k = len(cells)
    w = np.zeros((k, n_ports))
    np.add.at(w, (cell_of, ports), shares)
    d = w.sum(axis=1)
    m = w / d[:, None]

    bordered = np.empty((k + 1, k + 1))
    green = bordered[:k, :k]
    _surface_green(laplacian, cells, out=green)
    # H is defined up to a constant, which the border deflates; centring it
    # keeps the bordered matrix well conditioned.
    green -= green.mean()
    green[np.arange(k), np.arange(k)] += 1.0 / d
    bordered[:k, k] = bordered[k, :k] = 1.0
    bordered[k, k] = 0.0
    rhs = np.zeros((k + 1, n_ports))
    rhs[:k] = m
    z_m = np.linalg.solve(bordered, rhs)[:k]

    shared = w.T @ m
    np.fill_diagonal(shared, 0.0)
    return (np.diag(shared.sum(axis=1)) - shared) + m.T @ z_m


#: Rows of the Green's-function gather done at once (bounds the K x rows
#: index temporaries, ~10 MB each at K = 3000).
_GATHER_ROWS = 256


def _surface_green(laplacian, cells, out) -> None:
    """Write the mesh's Neumann Green's function between ``cells`` to ``out``.

    The orthonormal DCT-II bases of the x and y path Laplacians diagonalise
    the lateral part of the operator, so lateral mode (mx, my) leaves one
    nz x nz tridiagonal T(m) in depth whose surface entry g(m) = T(m)^-1[0, 0]
    is the modal surface response.  The constant lateral mode (the null
    space of the floating mesh) only adds the same constant to every entry,
    which the bordered solve deflates, so it is dropped.  Products of two
    cosines fold into cosines of ix - ix' and ix + ix' + 1, so with one
    (2nx x 2ny) cosine-transformed table F of g

    ``H[a, b] = (F[|dx|, |dy|] + F[|dx|, sy] + F[sx, |dy|] + F[sx, sy]) / 4``

    (dx = ix_a - ix_b, sx = ix_a + ix_b + 1, likewise in y): a Toeplitz-plus-
    Hankel gather.
    """
    nx, ny = laplacian.nx, laplacian.ny
    dz, sigma = laplacian.dz, laplacian.sigma
    hx, hy = laplacian.dx.mean(), laplacian.dy.mean()
    lateral = ((hy / hx) * _path_eigenvalues(nx)[:, None]
               + (hx / hy) * _path_eigenvalues(ny)[None, :])
    # Eliminate the layers bottom-up: t is the conductance to the modal
    # reference seen from the top of the remaining stack — a continued
    # fraction of positive terms, so nothing cancels.
    layer = sigma * dz
    link = hx * hy / (0.5 * dz[:-1] / sigma[:-1] + 0.5 * dz[1:] / sigma[1:])
    t = layer[-1] * lateral
    for k in range(len(dz) - 2, -1, -1):
        t = layer[k] * lateral + link[k] * t / (link[k] + t)
    t[0, 0] = np.inf                    # the deflated constant mode
    table = (_cosine_table(nx).T @ (1.0 / t) @ _cosine_table(ny)).ravel()

    # Only the upper block triangle is gathered; H is symmetric.
    stride = 2 * ny
    ix = (cells % nx).astype(np.int32)
    iy = (cells // nx).astype(np.int32)
    for a in range(0, len(cells), _GATHER_ROWS):
        b = min(len(cells), a + _GATHER_ROWS)
        x_row, y_row, x_col, y_col = ix[a:b, None], iy[a:b, None], ix[a:], iy[a:]
        x_diff = np.abs(x_row - x_col) * stride
        x_sum = (x_row + x_col + 1) * stride
        y_diff = np.abs(y_row - y_col)
        y_sum = y_row + y_col + 1
        block = table[x_diff + y_diff]
        block += table[x_diff + y_sum]
        block += table[x_sum + y_diff]
        block += table[x_sum + y_sum]
        block *= 0.25
        out[a:b, a:] = block
        out[a:, a:b] = block.T


def _path_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues of the unit-weight path-graph Laplacian (DCT-II modes)."""
    return 4.0 * np.sin(0.5 * np.pi * np.arange(n) / n) ** 2


def _cosine_table(n: int) -> np.ndarray:
    """``s_m^2 cos(pi m p / n)`` for modes m < n and offsets p < 2n.

    ``s_m^2`` is the squared normalisation of the orthonormal DCT-II basis
    vector of mode m: 1/n for the constant mode, 2/n otherwise.
    """
    weight = np.full(n, 2.0 / n)
    weight[0] = 1.0 / n
    modes = np.arange(n)[:, None]
    return weight[:, None] * np.cos(np.pi * modes * np.arange(2 * n) / n)


def _kron_residuals(reduced: np.ndarray, admittance: np.ndarray) -> dict[str, float]:
    """Kron invariant residuals relative to max|Y|.

    ``symmetry`` is measured on the reduction before it is symmetrised (the
    stored admittance is symmetric exactly); ``rowsum`` and ``offdiag`` (the
    largest positive off-diagonal entry) on the stored admittance.
    """
    scale = float(np.abs(admittance).max()) or 1.0
    off_diagonal = admittance - np.diag(np.diag(admittance))
    return {"symmetry": float(np.abs(reduced - reduced.T).max()) / scale,
            "rowsum": float(np.abs(admittance.sum(axis=1)).max()) / scale,
            "offdiag": max(float(off_diagonal.max()), 0.0) / scale}
