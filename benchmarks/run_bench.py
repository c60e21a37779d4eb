#!/usr/bin/env python
"""Write a perf snapshot of the reproduction flow to ``BENCH_<n>.json``.

Runs the Figure-10 runtime flow (extraction + one V_tune impact sweep), the
solver micro-benchmarks and the design-study sweep benchmark (serial vs
sharded, cold vs warm extraction cache) and records wall-clock seconds, so
every PR leaves a trajectory point future changes can be regressed against:

    PYTHONPATH=src python benchmarks/run_bench.py [--output BENCH_1.json]
    PYTHONPATH=src python benchmarks/run_bench.py --section sweep  # just one

The snapshot includes the solver counters (factorizations / solves) and the
extraction-cache counters (hits / misses) as cheap structural regression
checks alongside the raw timings.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from repro.core.flow import run_extraction_flow  # noqa: E402
from repro.core.vco_experiment import VcoExperimentOptions, VcoImpactAnalysis  # noqa: E402
from repro.layout.testchips import make_vco_testchip  # noqa: E402
from repro.obs import span_aggregates, tracer  # noqa: E402
from repro.simulator.solver import stats  # noqa: E402
from repro.technology import make_technology  # noqa: E402

from _report import NOISE_FREQUENCIES  # noqa: E402
from test_solver_micro import GRID_SIZE, run_solver_micro_stages  # noqa: E402


def _span_seconds(aggregates: dict, name: str) -> float:
    return aggregates.get(name, {}).get("total_seconds", 0.0)


def _bench_flow() -> dict:
    """Figure-10 runtime flow, with stage breakdowns from the span tracer.

    The breakdown keys are ``_seconds``-suffixed so ``perf_gate.py`` gates
    every stage individually — including ``mesh_assembly`` / ``kron_reduction``
    and the simulation setup that the pre-tracer breakdown under-accounted.
    """
    technology = make_technology()
    options = VcoExperimentOptions(vtune_values=(0.0, 0.75, 1.5),
                                   noise_frequencies=NOISE_FREQUENCIES)
    cell = make_vco_testchip()

    was_enabled = tracer.enabled
    tracer.enable()
    try:
        start = time.perf_counter()
        flow = run_extraction_flow(cell, technology, options=options.flow)
        extraction_seconds = time.perf_counter() - start

        stats.reset()
        sim_mark = tracer.mark()
        start = time.perf_counter()
        analysis = VcoImpactAnalysis(technology, options=options,
                                     flow_result=flow)
        analysis.spur_sweep(vtune_values=(0.0,),
                            noise_frequencies=np.asarray(NOISE_FREQUENCIES))
        simulation_seconds = time.perf_counter() - start
        aggregates = span_aggregates(tracer.spans_since(sim_mark))
    finally:
        if not was_enabled:
            tracer.disable()

    return {
        "extraction_seconds": extraction_seconds,
        "total_seconds": extraction_seconds + simulation_seconds,
        # FlowTimings.as_dict() is span-fed and already ``_seconds``-suffixed;
        # mesh_assembly / kron_reduction are sub-stages *inside* substrate.
        "extraction_breakdown": flow.timings.as_dict(),
        "simulation_seconds": simulation_seconds,
        "simulation_breakdown": {
            "setup_seconds": _span_seconds(aggregates, "sim.setup"),
            "transfer_function_seconds": _span_seconds(
                aggregates, "sim.transfer_function"),
            "solver_factorize_seconds": _span_seconds(
                aggregates, "solver.factorize"),
            "solver_solve_seconds": _span_seconds(aggregates, "solver.solve"),
        },
        "simulation_solver_counters": {
            "factorizations": stats.factorizations,
            "solves": stats.solves,
        },
        "mesh_nodes": flow.substrate.mesh_nodes,
        "impact_netlist_nodes": len(flow.impact.circuit.nodes()),
    }


def _bench_solver_micro() -> dict:
    return {"grid_size": GRID_SIZE, **run_solver_micro_stages()}


def _bench_sweep() -> dict:
    """Design-study sweep: serial vs sharded, cold vs warm extraction cache."""
    import tempfile

    from repro.core.flow import FlowOptions
    from repro.parallel import WorkScheduler
    from repro.studies import (
        Campaign,
        DiskExtractionCache,
        ExtractionCache,
        ParamSpace,
        SweepRunner,
    )
    from repro.substrate.extraction import SubstrateExtractionOptions

    technology = make_technology()
    options = VcoExperimentOptions(
        flow=FlowOptions(substrate=SubstrateExtractionOptions(
            nx=40, ny=40, lateral_margin=60e-6)))
    campaign = Campaign(
        name="bench_grid_width_study",
        space=ParamSpace({
            "ground_width_scale": (1.0, 2.0),
            "vtune": (0.0, 0.75, 1.5),
            "noise_frequency": NOISE_FREQUENCIES,
        }),
        options=options)

    cache = ExtractionCache()
    serial = SweepRunner(technology, cache=cache)

    start = time.perf_counter()
    cold = serial.run(campaign)
    serial_cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = serial.run(campaign)
    serial_warm_seconds = time.perf_counter() - start

    # Sharded cold run against its own cache: the per-variant extractions
    # (the expensive half) are fanned out across the workers too.
    sharded_cold_runner = SweepRunner(
        technology, scheduler=WorkScheduler(max_workers=2),
        cache=ExtractionCache())
    start = time.perf_counter()
    sharded_cold = sharded_cold_runner.run(campaign)
    sharded_cold_seconds = time.perf_counter() - start

    sharded = SweepRunner(technology, scheduler=WorkScheduler(max_workers=2),
                          cache=cache)
    start = time.perf_counter()
    sharded_result = sharded.run(campaign)
    sharded_warm_seconds = time.perf_counter() - start

    # Disk-backed cache: populate a persistent store, then warm-start a
    # *fresh* cache instance from it (models a new process / CI run).
    with tempfile.TemporaryDirectory() as cache_dir:
        disk_writer = SweepRunner(technology,
                                  cache=DiskExtractionCache(cache_dir))
        start = time.perf_counter()
        disk_writer.run(campaign)
        disk_cold_seconds = time.perf_counter() - start

        disk_reader = SweepRunner(technology,
                                  cache=DiskExtractionCache(cache_dir))
        start = time.perf_counter()
        disk_warm = disk_reader.run(campaign)
        disk_warm_seconds = time.perf_counter() - start

    max_difference = float(np.max(np.abs(
        cold.column("spur_power_dbm") - sharded_result.column("spur_power_dbm"))))
    return {
        "points": len(cold),
        "layout_variants": len(cold.variants),
        "serial_cold_seconds": serial_cold_seconds,
        "serial_warm_seconds": serial_warm_seconds,
        "sharded_2workers_cold_seconds": sharded_cold_seconds,
        "sharded_2workers_warm_seconds": sharded_warm_seconds,
        "disk_cold_seconds": disk_cold_seconds,
        "disk_warm_fresh_process_seconds": disk_warm_seconds,
        "cold_extractions": cold.cache_misses,
        "warm_extractions": warm.cache_misses,
        "disk_warm_extractions": disk_warm.cache_misses,
        "sharded_cold_extractions": sharded_cold.cache_misses,
        "sharded_warm_extractions": sharded_result.cache_misses,
        "cache_totals": {"hits": cache.hits, "misses": cache.misses},
        "serial_vs_sharded_max_abs_dbm": max_difference,
    }


def _bench_parallel() -> dict:
    """Corner saturation ladder on the unified work scheduler.

    The Figure-8-style campaign of ``--section sweep`` (60 points over 2
    layout variants), run against a warm extraction cache with the default
    single in-process worker and then on schedulers of 1/2/4 workers (the
    1-worker rung is the same in-process path, re-timed).

    The section records the measuring container's ``cpu_count`` because the
    ladder's meaning depends on it: on a 1-CPU container (the committed
    baseline, CI) every rung measures scheduling *overhead* over serial,
    while on a multi-core host the same rungs measure saturation speedup.
    """
    import os

    from repro.core.flow import FlowOptions
    from repro.parallel import WorkScheduler
    from repro.studies import (
        Campaign,
        ExtractionCache,
        ParamSpace,
        SweepRunner,
    )
    from repro.substrate.extraction import SubstrateExtractionOptions

    technology = make_technology()
    campaign = Campaign(
        name="bench_parallel_ladder",
        space=ParamSpace({
            "ground_width_scale": (1.0, 2.0),
            "vtune": (0.0, 0.75, 1.5),
            "noise_frequency": NOISE_FREQUENCIES,
        }),
        options=VcoExperimentOptions(
            flow=FlowOptions(substrate=SubstrateExtractionOptions(
                nx=40, ny=40, lateral_margin=60e-6))))

    cache = ExtractionCache()
    serial_runner = SweepRunner(technology, cache=cache)
    serial_runner.run(campaign)                  # warm the cache
    start = time.perf_counter()
    serial = serial_runner.run(campaign)
    serial_seconds = time.perf_counter() - start

    corners: dict = {"points": len(serial),
                     "layout_variants": len(serial.variants),
                     "serial_warm_seconds": serial_seconds}
    max_abs_dbm = 0.0
    for n_workers in (1, 2, 4):
        runner = SweepRunner(
            technology, scheduler=WorkScheduler(max_workers=n_workers),
            cache=cache)
        start = time.perf_counter()
        result = runner.run(campaign)
        corners[f"graph_{n_workers}workers_warm_seconds"] = (
            time.perf_counter() - start)
        max_abs_dbm = max(max_abs_dbm, float(np.max(np.abs(
            result.column("spur_power_dbm")
            - serial.column("spur_power_dbm")))))
    corners["graph_vs_serial_max_abs_dbm"] = max_abs_dbm

    return {
        "cpu_count": os.cpu_count(),
        "note": ("ladder semantics depend on cpu_count: on the 1-CPU "
                 "baseline/CI container every rung measures scheduler "
                 "overhead vs serial; multi-core hosts measure saturation"),
        "corners": corners,
    }


def _bench_solver() -> dict:
    """The Kron reduction ladder: contact space against the direct-LU mesh
    solve it replaced (see :func:`_bench_contact_space`)."""
    return {"contact_space": _bench_contact_space(make_technology())}


def _captured_kron_args(cell, technology, options) -> tuple:
    """``(laplacian, port_nodes, port_names)`` that ``extract_substrate``
    hands to ``kron_reduce`` for ``cell`` at the given mesh options."""
    import repro.substrate.extraction as extraction_module
    from repro.substrate import extract_substrate

    captured: list[tuple] = []
    original = extraction_module.kron_reduce

    def capture(conductance, port_nodes, port_names, **kwargs):
        captured.append((conductance, port_nodes, port_names))
        return original(conductance, port_nodes, port_names, **kwargs)

    extraction_module.kron_reduce = capture
    try:
        extract_substrate(cell, technology, options)
    finally:
        extraction_module.kron_reduce = original
    return captured[0]


def _bench_contact_space(technology) -> dict:
    """Contact-space Kron reduction of the VCO test chip versus mesh size.

    For each lateral resolution (default 80 um margin, so K, the contacted
    surface cells, is 576 / 1166 / 2982 at 56² / 96² / 160²) the test
    chip's 13 ports are reduced in contact space (best of 3, plus the
    tracemalloc peak of one more call) and, up to 96², by the mesh solve
    (direct LU on the assembled Laplacian) for the speedup and the
    agreement, relative to max|Y|.  ``paper_flow`` is the calibrated mesh
    of the VCO experiments (56², 60 um margin, K = 635) with the complete
    ``run_extraction_flow`` of the Figure-10 loop timed on top.
    """
    import tracemalloc

    from repro.substrate import SubstrateExtractionOptions, kron_reduce

    cell = make_vco_testchip()

    def rung(options, mesh_solve: bool) -> dict:
        laplacian, port_nodes, names = _captured_kron_args(
            cell, technology, options)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fast = kron_reduce(laplacian, port_nodes, names)
            times.append(time.perf_counter() - start)
        tracemalloc.start()
        kron_reduce(laplacian, port_nodes, names)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        entry = {"nodes": laplacian.n_nodes,
                 "contacted_cells": fast.contacted_cells,
                 "method": fast.method,
                 "contact_space_seconds": min(times),
                 "contact_space_peak_mb": peak / 2**20,
                 "contact_space_rowsum_resid": fast.residuals["rowsum"]}
        if mesh_solve:
            start = time.perf_counter()
            slow = kron_reduce(laplacian.matrix(), port_nodes, names)
            entry["mesh_solve_seconds"] = time.perf_counter() - start
            entry["mesh_solve_vs_contact_space_speedup"] = (
                entry["mesh_solve_seconds"] / entry["contact_space_seconds"])
            entry["mesh_solve_rowsum_resid"] = slow.residuals["rowsum"]
            entry["max_rel_difference"] = float(
                np.abs(fast.admittance - slow.admittance).max()
                / np.abs(slow.admittance).max())
        return entry

    record = {f"nx{nx}": rung(SubstrateExtractionOptions(nx=nx, ny=nx),
                              nx <= 96)
              for nx in (56, 96, 160)}
    flow_options = VcoExperimentOptions().flow
    paper = rung(flow_options.substrate, True)
    start = time.perf_counter()
    run_extraction_flow(cell, technology, options=flow_options)
    paper["extraction_seconds"] = time.perf_counter() - start
    record["paper_flow"] = paper
    return record


#: Snapshot sections and the functions that produce them.
SECTIONS = {
    "flow": _bench_flow,
    "parallel": _bench_parallel,
    "solver": _bench_solver,
    "solver_micro": _bench_solver_micro,
    "sweep": _bench_sweep,
}


def _next_snapshot_path() -> Path:
    """First unused ``BENCH_<n>.json`` so PRs never clobber the trajectory."""
    index = 1
    while (REPO_ROOT / f"BENCH_{index}.json").exists():
        index += 1
    return REPO_ROOT / f"BENCH_{index}.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the snapshot JSON "
                             "(default: the next unused BENCH_<n>.json)")
    parser.add_argument("--section", choices=sorted(SECTIONS), action="append",
                        default=None,
                        help="record only the named section(s); "
                             "repeatable (default: all sections)")
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = _next_snapshot_path()
    sections = args.section or sorted(SECTIONS)

    import os

    snapshot = {
        "benchmark": "repro_perf_snapshot",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    for name in sections:
        snapshot[name] = SECTIONS[name]()

    args.output.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {args.output}")
    print(json.dumps(snapshot, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
