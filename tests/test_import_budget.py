"""Import budget of a campaign process: scipy loads only on the sparse paths,
the process pool only when a plan runs on more than one worker.

Every check runs in a fresh interpreter (the ``run_fresh`` fixture).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SMOKE_CONFIG = (Path(__file__).resolve().parent.parent
                / "examples" / "campaign_smoke.json")

#: What a process pool drags in; a serial run must load none of it.
POOL_MODULES = ("multiprocessing", "concurrent.futures.process",
                "repro.parallel.pool")

#: A first in-memory spur sweep on a tiny, already-extracted flow.
_SWEEP = """
    import json, sys
    from repro.core.flow import FlowOptions
    from repro.core.vco_experiment import VcoExperimentOptions, VcoImpactAnalysis
    from repro.substrate.extraction import SubstrateExtractionOptions
    from repro.technology import make_technology

    options = VcoExperimentOptions(
        vtune_values=(0.0, 0.75), noise_frequencies=(1e6, 4e6),
        flow=FlowOptions(substrate=SubstrateExtractionOptions(
            nx=12, ny=12, n_z_per_layer=2, lateral_margin=60e-6)))
    analysis = VcoImpactAnalysis(make_technology(), options=options)
    analysis.flow                      # extract before the sweep: seeded
"""


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
                                  if m.split(".")[0] == "scipy"
                                  or m in {POOL_MODULES!r})
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


def test_serial_spur_sweep_loads_no_pool_or_disk_store(run_fresh):
    out = run_fresh(_SWEEP + f"""
    sweep = analysis.spur_sweep()
    assert len(sweep.vtune_values) == 2
    print(json.dumps(sorted(
        m for m in sys.modules
        if m in {POOL_MODULES!r}
        or m in ("repro.studies.store", "repro.studies.persist"))))
    """)
    assert out == []


def test_two_worker_spur_sweep_loads_the_pool(run_fresh):
    # The budget above is real: a plan on two workers does start the pool.
    out = run_fresh(_SWEEP + f"""
    from repro.parallel import WorkScheduler

    serial = analysis.spur_sweep()
    pooled = analysis.spur_sweep(scheduler=WorkScheduler(max_workers=2))
    assert all((serial.spur_power_dbm[v] == pooled.spur_power_dbm[v]).all()
               for v in serial.vtune_values)
    print(json.dumps(sorted(m for m in sys.modules
                            if m in {POOL_MODULES!r})))
    """)
    assert out == sorted(POOL_MODULES)


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

