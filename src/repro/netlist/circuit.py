"""The circuit container: a named collection of netlist elements.

A :class:`Circuit` is a flat netlist.  Hierarchy is handled by
:mod:`repro.netlist.subckt`, which flattens subcircuit instances into a flat
circuit before simulation.  Node names are free-form strings; ``"0"`` is the
global ground reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from ..devices.mosfet import MosfetGeometry, MosfetModel
from ..devices.varactor import AccumulationModeVaractor
from ..errors import NetlistError
from ..technology.process import MosParameters
from .devices import MosfetElement, VaractorElement
from .elements import (
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    Resistor,
    SourceValue,
    VoltageControlledCurrentSource,
    VoltageControlledVoltageSource,
    VoltageSource,
)
from .stamping import GROUND


@dataclass
class Circuit:
    """A flat netlist of elements with convenience constructors."""

    name: str
    elements: dict[str, Element] = field(default_factory=dict)

    # -- element management ----------------------------------------------------

    def add(self, element: Element) -> Element:
        """Add an element; element names must be unique within the circuit."""
        if element.name in self.elements:
            raise NetlistError(f"duplicate element name {element.name!r}")
        self.elements[element.name] = element
        return element

    def remove(self, name: str) -> Element:
        try:
            return self.elements.pop(name)
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.elements

    def __getitem__(self, name: str) -> Element:
        try:
            return self.elements[name]
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements.values())

    # -- convenience constructors ----------------------------------------------

    def add_resistor(self, name: str, node_p: str, node_n: str,
                     resistance: float) -> Resistor:
        return self.add(Resistor(name=name, node_p=node_p, node_n=node_n,
                                 resistance=resistance))

    def add_capacitor(self, name: str, node_p: str, node_n: str,
                      capacitance: float) -> Capacitor:
        return self.add(Capacitor(name=name, node_p=node_p, node_n=node_n,
                                  capacitance=capacitance))

    def add_inductor(self, name: str, node_p: str, node_n: str,
                     inductance: float) -> Inductor:
        return self.add(Inductor(name=name, node_p=node_p, node_n=node_n,
                                 inductance=inductance))

    def add_voltage_source(self, name: str, node_p: str, node_n: str,
                           value: SourceValue | float) -> VoltageSource:
        if isinstance(value, (int, float)):
            value = SourceValue(dc=float(value))
        return self.add(VoltageSource(name=name, node_p=node_p, node_n=node_n,
                                      value=value))

    def add_current_source(self, name: str, node_p: str, node_n: str,
                           value: SourceValue | float) -> CurrentSource:
        if isinstance(value, (int, float)):
            value = SourceValue(dc=float(value))
        return self.add(CurrentSource(name=name, node_p=node_p, node_n=node_n,
                                      value=value))

    def add_vccs(self, name: str, node_p: str, node_n: str, ctrl_p: str,
                 ctrl_n: str, gm: float) -> VoltageControlledCurrentSource:
        return self.add(VoltageControlledCurrentSource(
            name=name, node_p=node_p, node_n=node_n,
            ctrl_p=ctrl_p, ctrl_n=ctrl_n, gm=gm))

    def add_vcvs(self, name: str, node_p: str, node_n: str, ctrl_p: str,
                 ctrl_n: str, gain: float) -> VoltageControlledVoltageSource:
        return self.add(VoltageControlledVoltageSource(
            name=name, node_p=node_p, node_n=node_n,
            ctrl_p=ctrl_p, ctrl_n=ctrl_n, gain=gain))

    def add_mosfet(self, name: str, drain: str, gate: str, source: str,
                   bulk: str, parameters: MosParameters, width: float,
                   length: float, **geometry_kwargs: float) -> MosfetElement:
        model = MosfetModel(parameters,
                            MosfetGeometry(width=width, length=length,
                                           **geometry_kwargs))
        return self.add(MosfetElement(name=name, drain=drain, gate=gate,
                                      source=source, bulk=bulk, model=model))

    def add_varactor(self, name: str, gate: str, well: str,
                     model: AccumulationModeVaractor,
                     substrate: str | None = None) -> VaractorElement:
        return self.add(VaractorElement(name=name, gate=gate, well=well,
                                        substrate=substrate, model=model))

    # -- queries ----------------------------------------------------------------

    def nodes(self) -> list[str]:
        """All node names excluding ground, in deterministic order."""
        seen: dict[str, None] = {}
        for element in self.elements.values():
            for node in element.nodes():
                if node != GROUND:
                    seen.setdefault(node, None)
        return list(seen)

    def branches(self) -> list[str]:
        """All extra branch-current unknowns required by the elements."""
        names: list[str] = []
        for element in self.elements.values():
            names.extend(element.branches())
        return names

    def nonlinear_elements(self) -> list[Element]:
        return [e for e in self.elements.values() if e.is_nonlinear]

    def linear_elements(self) -> list[Element]:
        return [e for e in self.elements.values() if not e.is_nonlinear]

    def sources(self) -> list[Element]:
        return [e for e in self.elements.values()
                if isinstance(e, (VoltageSource, CurrentSource))]

    def elements_at_node(self, node: str) -> list[Element]:
        return [e for e in self.elements.values() if node in e.nodes()]

    def connectivity_graph(self) -> dict[str, set[str]]:
        """Adjacency of nodes connected by elements (for sanity checks).

        Maps every node, ground included, to the set of its neighbours.
        """
        graph: dict[str, set[str]] = {GROUND: set()}
        for element in self.elements.values():
            nodes = element.nodes()
            for node in nodes:
                graph.setdefault(node, set())
            pairs = list(zip(nodes, nodes[1:]))
            if len(nodes) >= 2:
                pairs.append((nodes[0], nodes[-1]))
            for a, b in pairs:
                if a != b:
                    graph[a].add(b)
                    graph[b].add(a)
        return graph

    def floating_nodes(self) -> list[str]:
        """Nodes with no resistive/inductive DC path to ground.

        These nodes make the DC operating point singular; the impact-flow
        assembly adds large bleed resistors for them and reports their names.
        """
        nodes = self.nodes()
        index = {GROUND: 0, **{node: i + 1 for i, node in enumerate(nodes)}}
        edges: list[tuple[int, int]] = []
        for element in self.elements.values():
            if isinstance(element, (Resistor, Inductor, VoltageSource)):
                edges.append((index[element.node_p], index[element.node_n]))
            elif element.is_nonlinear and len(element.nodes()) >= 3:
                # A MOSFET provides a DC path among its channel terminals.
                terminals = [index[node] for node in element.nodes()]
                edges.extend((terminals[0], t) for t in terminals[1:])
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        adjacency = sp.coo_matrix(
            (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
            shape=(len(index), len(index)))
        _, labels = connected_components(adjacency, directed=False)
        return [node for node in nodes
                if labels[index[node]] != labels[0]]

    def validate(self) -> None:
        """Raise :class:`NetlistError` for empty circuits or missing ground."""
        if not self.elements:
            raise NetlistError(f"circuit {self.name!r} has no elements")
        nodes_with_ground = set()
        for element in self.elements.values():
            nodes_with_ground.update(element.nodes())
        if GROUND not in nodes_with_ground:
            raise NetlistError(
                f"circuit {self.name!r} has no connection to ground ('0')")

    def merge(self, other: "Circuit", prefix: str = "") -> None:
        """Merge another circuit's elements into this one.

        Element names from ``other`` are prefixed (``prefix:`` separator) when
        ``prefix`` is non-empty; node names are left untouched so nets with the
        same name connect — this is how the substrate, interconnect, package
        and circuit models are combined into the single impact netlist.
        """
        for element in other.elements.values():
            clone = element
            if prefix:
                import copy

                clone = copy.copy(element)
                clone.name = f"{prefix}:{element.name}"
            self.add(clone)

    def summary(self) -> dict[str, int]:
        """Counts per element class, useful for logging the assembled model."""
        counts: dict[str, int] = {}
        for element in self.elements.values():
            counts[type(element).__name__] = counts.get(type(element).__name__, 0) + 1
        return counts
