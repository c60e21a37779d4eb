"""Traced mode: spans around the public layer functions of ``repro``.

The spans are recorded from the benchmark's side only.  ``LayerTracer``
replaces each function named in :data:`LAYER_SPANS` by a wrapper, at the
module attribute the caller looks it up through (a function imported by name
is rebound where it is used, not where it is defined), and puts the originals
back on exit.  Spans live in memory as ``[name, start, end, parent]`` rows;
a layer's self time is its spans' duration minus the time their direct
children cover, and whatever a repetition spends outside every top-level
span is the ``other`` residual, so the self times add up to the wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

#: (module the caller looks the name up in, attribute path, layer span name).
LAYER_SPANS = (
    ("repro.substrate.mesh", "SubstrateMesh.conductance_matrix", "substrate.mesh"),
    ("repro.substrate.extraction", "kron_reduce", "substrate.kron"),
    ("repro.core.flow", "extract_interconnect", "interconnect.extract"),
    ("repro.core.flow", "extract_circuit", "extraction.circuit"),
    ("repro.core.flow", "merge_models", "extraction.merge"),
    ("repro.core.vco_experiment", "VcoImpactAnalysis.build_testbench",
     "core.testbench"),
    ("repro.core.vco_experiment", "dc_operating_point", "simulator.dc"),
    ("repro.core.vco_experiment", "transfer_function", "simulator.transfer"),
    ("repro.core.vco_experiment", "entries_at_frequency", "vco.entries"),
    ("repro.core.vco_experiment", "compute_spurs", "vco.spurs"),
    ("repro.studies.runner", "SweepRunner.run", "studies.runner"),
    ("repro.studies.cache", "ExtractionCache.lookup", "studies.cache_read"),
    ("repro.studies.cache", "ExtractionCache.store", "studies.cache_write"),
    ("repro.studies.store", "DiskExtractionCache.lookup", "studies.cache_read"),
    ("repro.studies.store", "DiskExtractionCache.store", "studies.cache_write"),
    ("repro.studies.persist", "save_result", "studies.save"),
)

#: Layer span names, each reported as ``<name>_s`` (``studies.runner`` as
#: ``studies.runner_self_s``: its children are the other layers).
LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name in LAYER_SPANS))


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class LayerTracer:
    """Context manager that records layer spans while it is entered."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.reps: list[tuple[float, float]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
        return traced

    def __enter__(self) -> "LayerTracer":
        for module_name, path, name in LAYER_SPANS:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def record_rep(self, start: float, end: float) -> None:
        """Mark one timed repetition, the interval ``other`` is taken from."""
        self.reps.append((start, end))

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer, plus ``other``, summed over all spans."""
        totals: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        top_level = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
            if parent is None:
                top_level += end - start
        totals["other"] = sum(end - start for start, end in self.reps) \
            - top_level
        return {name: totals.get(name, 0.0) for name in LAYER_NAMES + ("other",)}

    def write(self, path: Path, **meta) -> None:
        """Dump every span and repetition interval as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            **meta,
            "columns": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "reps": self.reps,
            "self_seconds": self.self_times(),
        }))
