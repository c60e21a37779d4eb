"""Public API of the lazily re-exporting ``repro`` packages."""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.studies import DiskExtractionCache

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


def test_importing_a_package_loads_none_of_its_modules(run_fresh):
    out = run_fresh(f"""
        import importlib, json, sys

        for name in {PACKAGES!r}:
            importlib.import_module(name)
        print(json.dumps(sorted(m for m in sys.modules
                                if m.split(".")[0] == "repro")))
    """)
    assert out == sorted(PACKAGES + ["repro._lazy"])


def test_exports_resolve_in_a_fresh_process(run_fresh):
    # A fresh process, so every name goes through the lazy lookup once:
    # ``from pkg import *``, getattr and dir() must all agree with __all__.
    out = run_fresh(f"""
        import importlib, json

        problems = []
        for name in {PACKAGES!r}:
            namespace = {{}}
            exec(f"from {{name}} import *", namespace)
            package = importlib.import_module(name)
            listing = dir(package)
            if not package.__all__:
                problems.append(f"{{name}}: empty __all__")
            for export in package.__all__:
                if export not in namespace:
                    problems.append(f"{{name}}.{{export}}: not star-imported")
                elif getattr(package, export) is not namespace[export]:
                    problems.append(f"{{name}}.{{export}}: getattr differs")
                if export not in listing:
                    problems.append(f"{{name}}.{{export}}: missing from dir()")
        print(json.dumps(problems))
    """)
    assert out == []


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=name.replace(".", r"\.")):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_subpackage_and_alias_exports():
    import repro.simulator.solver

    assert repro.simulator is importlib.import_module("repro.simulator")
    assert repro.data.measurements is importlib.import_module(
        "repro.data.measurements")
    assert repro.simulator.solver_stats is repro.simulator.solver.stats
    assert repro.__version__ == "0.1.0"


def test_disk_cached_flow_loads_in_a_cli_only_process(
        tmp_path, technology, vco_cell, coarse_flow_options, run_fresh):
    cache = DiskExtractionCache(tmp_path / "cache")
    flow = cache.get_or_extract(vco_cell, technology, coarse_flow_options)
    key = cache.key(vco_cell, technology, coarse_flow_options)
    out = run_fresh(f"""
        import json, sys
        import repro.studies.cli

        store = sys.modules["repro.studies.store"]
        flow = store.DiskExtractionCache({str(tmp_path / "cache")!r}).lookup(
            {key!r})
        print(json.dumps({{
            "type": f"{{type(flow).__module__}}.{{type(flow).__qualname__}}",
            "ports": list(flow.substrate.macromodel.ports),
            "admittance": flow.substrate.macromodel.admittance.tolist(),
            "impact_elements": len(flow.impact.circuit),
        }}))
    """)
    assert out["type"] == "repro.core.flow.FlowResult"
    assert out["ports"] == list(flow.substrate.macromodel.ports)
    np.testing.assert_array_equal(out["admittance"],
                                  flow.substrate.macromodel.admittance)
    assert out["impact_elements"] == len(flow.impact.circuit)
