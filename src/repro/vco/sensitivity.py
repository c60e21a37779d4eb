"""Per-entry sensitivity extraction for the VCO spur analysis.

The spur equations need, for every substrate-noise entry ``i``:

* ``h_sub,i(f)`` — the transfer from the injected substrate tone to the entry,
  obtained from an AC analysis of the assembled impact netlist,
* ``K_i`` — the oscillator frequency sensitivity of the entry, from the
  analytical :class:`~repro.vco.lctank.LcTankVco` model,
* ``G_AM,i`` — the AM gain of the entry.

This module turns a solved :class:`~repro.simulator.transfer.TransferFunction`
plus the VCO model into the list of :class:`~repro.vco.spurs.NoiseEntry`
objects per analysed noise frequency.

Entry inventory (paper Section 5):

* the non-ideal on-chip **ground interconnect** (resistive coupling),
* the **NMOS back-gates** of the cross-coupled pair and the tail device
  (resistive coupling),
* the **inductor** (capacitive coupling through the coil oxide capacitance),
* the **PMOS n-well** and the **varactor n-well** (capacitive coupling through
  the well junction capacitance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AnalysisError
from ..simulator.transfer import TransferFunction
from .lctank import LcTankVco
from .spurs import NoiseEntry

#: Canonical entry names used in reports and figures.
ENTRY_GROUND = "ground interconnect"
ENTRY_NMOS = "NMOS back-gate"
ENTRY_INDUCTOR = "inductor"
ENTRY_PMOS_WELL = "PMOS n-well"
ENTRY_VARACTOR_WELL = "varactor n-well"


@dataclass(frozen=True)
class EntryModel:
    """Static description of one noise entry (frequency-independent part)."""

    name: str
    k_hz_per_volt: float
    g_am_per_volt: float
    mechanism: str
    #: node whose AC voltage is the entry's h_sub (resistive entries)
    observe_node: str | None = None
    #: node whose voltage must be subtracted (e.g. the device source)
    reference_node: str | None = None
    #: for capacitive entries: substrate-side port node, coupling capacitance
    #: and the effective impedance of the victim node at the noise frequency
    port_node: str | None = None
    coupling_capacitance: float = 0.0
    victim_impedance: float = 0.0


@dataclass
class VcoEntryCatalog:
    """All noise entries of the VCO plus the nodes an AC analysis must observe."""

    entries: list[EntryModel] = field(default_factory=list)

    def observation_nodes(self) -> list[str]:
        nodes: list[str] = []
        for entry in self.entries:
            for node in (entry.observe_node, entry.reference_node, entry.port_node):
                if node is not None and node not in nodes:
                    nodes.append(node)
        return nodes

    def names(self) -> list[str]:
        return [entry.name for entry in self.entries]


def build_entry_catalog(vco: LcTankVco, vtune: float, *,
                        ground_node: str,
                        nmos_backgate_nodes: dict[str, str],
                        nmos_source_nodes: dict[str, str],
                        nmos_junction_sensitivity: dict[str, float],
                        inductor_port_node: str | None = None,
                        inductor_capacitance: float = 120e-15,
                        pmos_well_port_node: str | None = None,
                        pmos_well_capacitance: float = 0.0,
                        varactor_well_port_node: str | None = None,
                        varactor_well_capacitance: float = 0.0,
                        tank_common_mode_impedance: float = 1000.0,
                        supply_impedance: float = 10.0,
                        tune_impedance: float = 50.0) -> VcoEntryCatalog:
    """Assemble the entry catalogue of the paper's VCO at one tuning voltage.

    ``nmos_backgate_nodes`` maps device names to their bulk (back-gate) nodes,
    ``nmos_source_nodes`` to their source nodes and
    ``nmos_junction_sensitivity`` to the dC/dV (F/V) with which their junction
    capacitance loads the tank.
    """
    catalog = VcoEntryCatalog()

    # -- ground interconnect: resistive, the paper's dominant entry ------------
    catalog.entries.append(EntryModel(
        name=ENTRY_GROUND,
        k_hz_per_volt=vco.ground_frequency_sensitivity(vtune),
        g_am_per_volt=vco.ground_am_gain(vtune),
        mechanism="resistive",
        observe_node=ground_node))

    # -- NMOS back-gates: resistive, one entry per device -----------------------
    for device, bulk_node in nmos_backgate_nodes.items():
        sensitivity = nmos_junction_sensitivity.get(device, 0.0)
        catalog.entries.append(EntryModel(
            name=f"{ENTRY_NMOS} ({device})",
            k_hz_per_volt=vco.backgate_frequency_sensitivity(vtune, sensitivity),
            g_am_per_volt=0.0,
            mechanism="resistive",
            observe_node=bulk_node,
            reference_node=nmos_source_nodes.get(device)))

    # -- inductor: capacitive through the coil oxide capacitance -----------------
    if inductor_port_node is not None:
        catalog.entries.append(EntryModel(
            name=ENTRY_INDUCTOR,
            k_hz_per_volt=vco.tank_node_frequency_sensitivity(vtune),
            g_am_per_volt=0.0,
            mechanism="capacitive",
            port_node=inductor_port_node,
            coupling_capacitance=inductor_capacitance,
            victim_impedance=tank_common_mode_impedance))

    # -- PMOS n-well: capacitive, victim is the stiff supply --------------------
    if pmos_well_port_node is not None:
        pmos_sensitivity = sum(nmos_junction_sensitivity.values()) * 0.3
        catalog.entries.append(EntryModel(
            name=ENTRY_PMOS_WELL,
            k_hz_per_volt=vco.backgate_frequency_sensitivity(vtune, pmos_sensitivity),
            g_am_per_volt=0.0,
            mechanism="capacitive",
            port_node=pmos_well_port_node,
            coupling_capacitance=pmos_well_capacitance,
            victim_impedance=supply_impedance))

    # -- varactor n-well: capacitive, victim is the stiff tuning input ------------
    if varactor_well_port_node is not None:
        catalog.entries.append(EntryModel(
            name=ENTRY_VARACTOR_WELL,
            k_hz_per_volt=vco.tuning_node_frequency_sensitivity(vtune),
            g_am_per_volt=0.0,
            mechanism="capacitive",
            port_node=varactor_well_port_node,
            coupling_capacitance=varactor_well_capacitance,
            victim_impedance=tune_impedance))

    return catalog


def entries_at_frequency(catalog: VcoEntryCatalog, transfer: TransferFunction,
                         noise_frequency: "float | np.ndarray"
                         ) -> "list[NoiseEntry] | list[list[NoiseEntry]]":
    """Evaluate every catalogue entry's ``h_sub`` at noise frequencies.

    ``noise_frequency`` is one frequency (returns its entry list) or a 1-D
    array of them (returns one entry list per frequency, each ``h_sub``
    evaluated over the whole array at once).  Every frequency must be a
    point of the transfer's grid; an off-grid frequency raises
    :class:`~repro.errors.AnalysisError` instead of reading a neighbour.

    Resistive entries read the node voltage (minus the reference node when
    given) straight from the AC transfer.  Capacitive entries take the voltage
    of the substrate-side port node and multiply by the coupling admittance
    times the victim impedance — the voltage actually induced on the victim.
    """
    frequencies = np.asarray(noise_frequency, dtype=float)
    if frequencies.ndim > 1:
        raise AnalysisError("noise frequencies must be a scalar or 1-D array")
    grid = np.atleast_1d(frequencies)
    if np.any(grid <= 0):
        raise AnalysisError("noise frequency must be positive")
    position = {float(f): i for i, f in enumerate(transfer.frequencies)}
    try:
        index = np.array([position[f] for f in grid.tolist()], dtype=int)
    except KeyError as exc:
        raise AnalysisError(
            f"noise frequency {exc.args[0]!r} Hz is not a point of the "
            "transfer-function grid") from None

    def h_of(node: str) -> np.ndarray:
        return transfer.transfers[node][index]

    columns = []
    for model in catalog.entries:
        if model.observe_node is not None:
            h = h_of(model.observe_node)
            if model.reference_node is not None:
                h = h - h_of(model.reference_node)
        elif model.port_node is not None:
            omega = 2.0 * np.pi * grid
            h = h_of(model.port_node) * (1j * omega * model.coupling_capacitance
                                         * model.victim_impedance)
        else:
            raise AnalysisError(f"entry {model.name!r} has no observable node")
        columns.append((model, h.tolist()))
    per_frequency = [
        [NoiseEntry(name=model.name, h_sub=h[point],
                    k_hz_per_volt=model.k_hz_per_volt,
                    g_am_per_volt=model.g_am_per_volt,
                    mechanism=model.mechanism)
         for model, h in columns]
        for point in range(grid.size)]
    return per_frequency if frequencies.ndim else per_frequency[0]


def junction_capacitance_sensitivity(model, vgs: float, vds: float, vbs: float,
                                     delta: float = 1e-3) -> float:
    """Numerical dC/dV of a MOSFET's drain+source junction capacitance (F/V).

    ``model`` is a :class:`~repro.devices.mosfet.MosfetModel`.  The derivative
    is taken with respect to the bulk voltage, which is what a substrate /
    ground bounce modulates.
    """
    op_plus = model.evaluate(vgs, vds, vbs + delta)
    op_minus = model.evaluate(vgs, vds, vbs - delta)
    c_plus = op_plus.cdb + op_plus.csb
    c_minus = op_minus.cdb + op_minus.csb
    return abs(c_plus - c_minus) / (2.0 * delta)
