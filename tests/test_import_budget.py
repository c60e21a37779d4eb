"""Import budget of a campaign process: scipy loads only on the sparse paths.

Every check runs in a fresh interpreter (the ``run_fresh`` fixture).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SMOKE_CONFIG = (Path(__file__).resolve().parent.parent
                / "examples" / "campaign_smoke.json")


def test_cli_import_loads_no_scipy(run_fresh):
    out = run_fresh("""
        import json, sys
        import repro.studies.cli
        print(json.dumps(sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")))
    """)
    assert out == []


def test_cold_and_warm_cli_runs_load_no_scipy(run_fresh, tmp_path):
    out = run_fresh(f"""
        import contextlib, io, json, sys
        from repro.studies.cli import main

        loaded = {{}}
        for kind in ("cold", "warm"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", {str(SMOKE_CONFIG)!r},
                             "--cache-dir", "cache",
                             "--result", kind + ".npz"])
            assert code == 0, code
            loaded[kind] = sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")
        print(json.dumps(loaded))
    """, cwd=tmp_path)
    assert out == {"cold": [], "warm": []}
    with np.load(tmp_path / "cold.npz") as cold, \
            np.load(tmp_path / "warm.npz") as warm:
        assert cold.files == warm.files
        for name in cold.files:
            a, b = cold[name], warm[name]
            assert (a.dtype, a.shape, a.tobytes()) == \
                (b.dtype, b.shape, b.tobytes()), name
    warm_meta = json.loads((tmp_path / "warm.meta.json").read_text())
    assert warm_meta["cache"]["misses"] == 0


def test_circuit_above_dense_limit_solves_through_sparse_path(run_fresh):
    out = run_fresh("""
        import json, sys
        from repro.netlist import Circuit
        from repro.simulator.dc import DcOptions, dc_operating_point
        from repro.simulator.solver import DENSE_MAX_UNKNOWNS, stats

        # A resistor ladder driven by 1 V: node k sits at 1 - k / (n + 1).
        n = DENSE_MAX_UNKNOWNS + 16
        circuit = Circuit("ladder")
        circuit.add_voltage_source("V1", "n0", "0", 1.0)
        for k in range(n):
            circuit.add_resistor(f"R{k}", f"n{k}", f"n{k + 1}", 1e3)
        circuit.add_resistor("Rload", f"n{n}", "0", 1e3)
        before = "scipy.sparse.linalg" in sys.modules
        solution = dc_operating_point(circuit, DcOptions(gmin=0.0))
        print(json.dumps({
            "before": before,
            "after": "scipy.sparse.linalg" in sys.modules,
            "n": n,
            "voltages": [solution.voltage(f"n{k}") for k in range(n + 1)],
        }))
    """)
    assert out["before"] is False
    assert out["after"] is True
    n = out["n"]
    np.testing.assert_allclose(out["voltages"],
                               1.0 - np.arange(n + 1) / (n + 1), atol=1e-9)

