"""Quickstart for the design-study sweep engine (``repro.studies``).

Declares a spur campaign over noise frequency, tuning voltage and ground-grid
width, then runs it three ways to show the engine's two scaling levers:

1. serial (the default single in-process worker) with a cold extraction
   cache (every layout variant extracts once),
2. serial again with the warm cache (zero extractions — the cache is
   content-addressed, so re-declared campaigns hit the same entries),
3. sharded across worker processes by a 2-worker ``WorkScheduler``, which
   must produce numerically identical results to the serial run.

The cache is a :class:`~repro.studies.store.DiskExtractionCache` persisted
under ``.repro-cache/`` and the final result is saved to
``spur_campaign_result.npz`` — re-running this script (or any other process
sweeping the same layouts, e.g. ``repro-campaign run``) therefore starts with
zero extractions, and the saved result can be reloaded with
``SweepResult.load`` or inspected with ``repro-campaign show``.

Run with::

    python examples/spur_campaign.py
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.core.flow import FlowOptions
from repro.core.vco_experiment import VcoExperimentOptions
from repro.parallel import WorkScheduler
from repro.studies import (
    Campaign,
    DiskExtractionCache,
    ParamSpace,
    SweepRunner,
)
from repro.substrate import SubstrateExtractionOptions
from repro.technology import make_technology

CACHE_DIR = Path(".repro-cache")
RESULT_PATH = Path("spur_campaign_result.npz")


def main() -> None:
    technology = make_technology()
    options = VcoExperimentOptions(
        flow=FlowOptions(substrate=SubstrateExtractionOptions(
            nx=40, ny=40, lateral_margin=60e-6)))

    # --- declare the study ----------------------------------------------------
    campaign = Campaign(
        name="grid_width_study",
        space=ParamSpace({
            "ground_width_scale": (1.0, 2.0),
            "vtune": (0.0, 0.75, 1.5),
            "noise_frequency": tuple(
                float(f) for f in np.logspace(5, np.log10(15e6), 6)),
        }),
        options=options)
    print(f"campaign {campaign.name!r}: {campaign.n_points} grid points, "
          f"{len(campaign.variants())} layout variants")

    # --- 1. serial, disk-backed cache (cold only on the very first run) --------
    cache = DiskExtractionCache(CACHE_DIR)
    runner = SweepRunner(technology, cache=cache)
    start = time.perf_counter()
    cold = runner.run(campaign)
    print(f"\nserial      : {time.perf_counter() - start:6.2f} s  "
          f"(extractions={cold.cache_misses}, hits={cold.cache_hits}; "
          f"persistent cache in {CACHE_DIR}/)")

    # --- 2. serial, warm cache ------------------------------------------------
    start = time.perf_counter()
    warm = runner.run(campaign)
    print(f"serial warm : {time.perf_counter() - start:6.2f} s  "
          f"(extractions={warm.cache_misses}, hits={warm.cache_hits})")

    # --- 3. sharded across processes -------------------------------------------
    sharded_runner = SweepRunner(technology,
                                 scheduler=WorkScheduler(max_workers=2),
                                 cache=cache)
    start = time.perf_counter()
    sharded = sharded_runner.run(campaign)
    print(f"sharded x2  : {time.perf_counter() - start:6.2f} s  "
          f"(extractions={sharded.cache_misses}, hits={sharded.cache_hits})")
    difference = np.max(np.abs(cold.column("spur_power_dbm")
                               - sharded.column("spur_power_dbm")))
    print(f"max |serial - sharded| spur difference: {difference:.2e} dB")

    # --- summary queries --------------------------------------------------------
    print("\nworst spur per ground-grid width:")
    for scale, record in sorted(cold.worst_per("ground_width_scale").items()):
        print(f"  width x{scale:<4.1f}: {record.spur_power_dbm:6.1f} dBm "
              f"(V_tune={record.vtune:.2f} V, "
              f"f_noise={record.noise_frequency / 1e6:.2f} MHz)")
    frequencies, spur = cold.spur_vs_frequency(ground_width_scale=1.0,
                                               vtune=0.0)
    print("\nspur vs noise frequency (nominal grid, V_tune=0 V):")
    for f, p in zip(frequencies, spur):
        print(f"  {f / 1e6:8.3f} MHz   {p:7.1f} dBm")
    print("\ncache totals:", cache.stats)

    # --- persist the result ------------------------------------------------------
    npz_path, meta_path = cold.save(RESULT_PATH)
    print(f"result saved to {npz_path} (+ {meta_path.name}); inspect it with "
          f"'repro-campaign show {npz_path}'")


if __name__ == "__main__":
    main()
