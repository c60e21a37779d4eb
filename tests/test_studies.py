"""Tests of the design-study sweep engine (:mod:`repro.studies`).

Covers the acceptance properties of the subsystem:

* the extraction cache is content-addressed (structurally identical cells
  share an entry), counts hits/misses and invalidates on layout or mesh
  changes,
* a layout-invariant sweep extracts exactly once, warm re-runs extract zero
  times, and layout sweeps re-extract only the changed variants,
* a 2-worker process pool produces numerically identical results to the
  in-process single worker (<= 1e-12), under invariant labels and counters,
* the tidy result store answers the summary queries the figures need.

All sweeps here run on a deliberately tiny substrate mesh — the engine's
behaviour does not depend on mesh resolution.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.flow import FlowOptions
from repro.core.vco_experiment import (
    VcoExperimentOptions,
    VcoImpactAnalysis,
    ground_resistance_study,
)
from repro.errors import AnalysisError
from repro.layout.testchips import VcoLayoutSpec, make_vco_testchip
from repro.parallel import WorkScheduler
from repro.studies import (
    Campaign,
    ExtractionCache,
    ParamSpace,
    SweepRunner,
    fingerprint,
)
from repro.substrate.extraction import SubstrateExtractionOptions


TINY_MESH = FlowOptions(substrate=SubstrateExtractionOptions(
    nx=16, ny=16, n_z_per_layer=2, lateral_margin=60e-6))


@pytest.fixture(scope="module")
def sweep_options():
    return VcoExperimentOptions(
        vtune_values=(0.0, 0.75),
        noise_frequencies=(1e6, 4e6, 12e6),
        flow=TINY_MESH)


@pytest.fixture(scope="module")
def campaign(sweep_options):
    return Campaign(
        name="vtune_x_fnoise",
        space=ParamSpace({"vtune": (0.0, 0.75),
                          "noise_frequency": (1e6, 4e6, 12e6)}),
        options=sweep_options)


# -- parameter space ------------------------------------------------------------------


def test_param_space_grid_shape_and_order():
    space = ParamSpace({"vtune": (0.0, 1.5), "noise_frequency": (1e6, 2e6, 4e6)})
    assert space.shape == (2, 3)
    assert space.size == len(space) == 6
    points = list(space.grid())
    # Last axis varies fastest.
    assert points[0] == {"vtune": 0.0, "noise_frequency": 1e6}
    assert points[1] == {"vtune": 0.0, "noise_frequency": 2e6}
    assert points[3] == {"vtune": 1.5, "noise_frequency": 1e6}


def test_param_space_rejects_unknown_and_empty_axes():
    with pytest.raises(AnalysisError):
        ParamSpace({"not_an_axis": (1.0,)})
    with pytest.raises(AnalysisError):
        ParamSpace({"vtune": ()})


def test_campaign_resolves_layout_and_mesh_variants(sweep_options):
    campaign = Campaign(
        name="variants",
        space=ParamSpace({"ground_width_scale": (1.0, 2.0),
                          "mesh_nx": (12, 16),
                          "vtune": (0.0,)}),
        options=sweep_options)
    variants = campaign.variants()
    assert len(variants) == 4
    assert variants[0].knobs == {"ground_width_scale": 1.0, "mesh_nx": 12}
    assert variants[0].spec.ground_width_scale == 1.0
    assert variants[0].flow_options.substrate.nx == 12
    assert variants[3].spec.ground_width_scale == 2.0
    assert variants[3].flow_options.substrate.nx == 16
    # Simulation axes fall back to the options where not swept.
    powers, vtunes, frequencies = campaign.sim_grid()
    assert powers == (sweep_options.injected_power_dbm,)
    assert vtunes == (0.0,)
    assert frequencies == sweep_options.noise_frequencies
    assert campaign.n_points == 4 * 1 * 1 * 3


# -- extraction cache -----------------------------------------------------------------


def test_fingerprint_is_content_addressed():
    spec = VcoLayoutSpec()
    assert fingerprint(make_vco_testchip(spec)) == \
        fingerprint(make_vco_testchip(VcoLayoutSpec()))
    widened = replace(spec, ground_width_scale=2.0)
    assert fingerprint(make_vco_testchip(spec)) != \
        fingerprint(make_vco_testchip(widened))
    with pytest.raises(AnalysisError):
        fingerprint(object())


def test_cache_counts_hits_misses_and_invalidates(technology):
    cache = ExtractionCache()
    cell = make_vco_testchip()
    flow = cache.get_or_extract(cell, technology, TINY_MESH)
    assert (cache.hits, cache.misses) == (0, 1)
    # A structurally identical, separately built cell hits the same entry.
    again = cache.get_or_extract(make_vco_testchip(), technology, TINY_MESH)
    assert again is flow
    assert (cache.hits, cache.misses) == (1, 1)
    # A different mesh spec invalidates.
    finer = FlowOptions(substrate=replace(TINY_MESH.substrate, nx=20))
    cache.get_or_extract(cell, technology, finer)
    assert (cache.hits, cache.misses) == (1, 2)
    # A different layout invalidates.
    widened = make_vco_testchip(VcoLayoutSpec(ground_width_scale=2.0))
    cache.get_or_extract(widened, technology, TINY_MESH)
    assert (cache.hits, cache.misses) == (1, 3)
    assert len(cache) == 3
    cache.clear()
    assert len(cache) == 0 and cache.stats.requests == 0


def test_layout_invariant_sweep_extracts_exactly_once(technology, campaign):
    runner = SweepRunner(technology, cache=ExtractionCache())
    cold = runner.run(campaign)
    assert cold.cache_misses == 1 and cold.cache_hits == 0
    warm = runner.run(campaign)
    # Warm cache: the single layout variant is never re-extracted.
    assert warm.cache_misses == 0 and warm.cache_hits == 1
    assert len(runner.cache) == 1
    np.testing.assert_array_equal(cold.column("spur_power_dbm"),
                                  warm.column("spur_power_dbm"))


def test_layout_sweep_reextracts_only_changed_variants(technology, sweep_options):
    cache = ExtractionCache()
    runner = SweepRunner(technology, cache=cache)
    nominal_only = Campaign(
        name="nominal",
        space=ParamSpace({"vtune": (0.0,), "noise_frequency": (1e6,)}),
        options=sweep_options)
    runner.run(nominal_only)
    assert cache.misses == 1

    widths = Campaign(
        name="widths",
        space=ParamSpace({"ground_width_scale": (1.0, 2.0),
                          "vtune": (0.0,), "noise_frequency": (1e6,)}),
        options=sweep_options)
    sweep = runner.run(widths)
    # Only the widened layout is new; the nominal one is a content hit.
    assert sweep.cache_misses == 1 and sweep.cache_hits == 1
    assert sweep.variants[0].from_cache is True
    assert sweep.variants[1].from_cache is False
    assert sweep.variants[0].cache_key != sweep.variants[1].cache_key


# -- worker-count equivalence ---------------------------------------------------------


def test_process_pool_matches_serial(technology, campaign):
    cache = ExtractionCache()
    serial = SweepRunner(technology, scheduler=WorkScheduler(max_workers=1),
                         cache=cache).run(campaign)
    sharded = SweepRunner(technology, scheduler=WorkScheduler(max_workers=2),
                          cache=cache).run(campaign)
    assert len(serial) == len(sharded) == 6
    assert [r.point_index for r in serial.records] == \
        [r.point_index for r in sharded.records]
    for column in ("spur_power_dbm", "carrier_frequency", "carrier_amplitude",
                   "noise_frequency", "vtune"):
        assert np.max(np.abs(serial.column(column)
                             - sharded.column(column))) <= 1e-12
    # The sharded run reused the serial run's extraction.
    assert sharded.cache_misses == 0
    # Labels and attempt telemetry do not depend on the worker count: the
    # cold serial run's extraction item is not a campaign task.
    assert serial.backend_name == "serial"
    assert sharded.backend_name == "process-pool[2]"
    powers, vtunes, _ = campaign.sim_grid()
    corners = len(campaign.variants()) * len(powers) * len(vtunes)
    attempts = [result.telemetry["metrics"]["counters"]
                ["campaign.task_attempts"] for result in (serial, sharded)]
    assert attempts == [corners, corners]


def test_spur_sweep_backend_equivalence(technology, sweep_options):
    analysis = VcoImpactAnalysis(technology, options=sweep_options)
    cache = ExtractionCache()
    serial = analysis.spur_sweep(cache=cache)
    sharded = analysis.spur_sweep(scheduler=WorkScheduler(max_workers=2),
                                  cache=cache)
    # The seeded cache means neither run extracts anything.
    assert cache.misses == 0
    for vtune in serial.vtune_values:
        assert np.max(np.abs(serial.spur_power_dbm[vtune]
                             - sharded.spur_power_dbm[vtune])) <= 1e-12


# -- result store ---------------------------------------------------------------------


def test_sweep_result_queries(technology, campaign):
    sweep = SweepRunner(technology).run(campaign)

    frequencies, power = sweep.spur_vs_frequency(vtune=0.0)
    np.testing.assert_allclose(frequencies, (1e6, 4e6, 12e6))
    assert np.all(np.diff(power) < 0)          # spur falls with frequency

    worst = sweep.worst_spur()
    assert worst.noise_frequency == pytest.approx(1e6)
    per_vtune = sweep.worst_per("vtune")
    assert set(per_vtune) == {0.0, 0.75}
    assert all(record.noise_frequency == pytest.approx(1e6)
               for record in per_vtune.values())

    rows = sweep.rows()
    assert len(rows) == 6
    assert {"vtune", "noise_frequency", "spur_power_dbm",
            "injected_power_dbm"} <= set(rows[0])

    with pytest.raises(AnalysisError):
        sweep.column("no_such_column")
    with pytest.raises(AnalysisError):
        sweep.spur_vs_frequency(vtune=99.0)
    with pytest.raises(AnalysisError):
        sweep.spur_vs_frequency()              # two curves left


def test_to_vco_sweep_result_round_trip(technology, campaign):
    sweep = SweepRunner(technology).run(campaign)
    classic = sweep.to_vco_sweep_result()
    assert classic.vtune_values == (0.0, 0.75)
    np.testing.assert_allclose(classic.noise_frequencies, (1e6, 4e6, 12e6))
    for vtune in classic.vtune_values:
        frequencies, power = sweep.spur_vs_frequency(vtune=vtune)
        np.testing.assert_array_equal(classic.spur_power_dbm[vtune], power)
        # Reference line is anchored at the first simulated point.
        assert classic.reference_dbm[vtune][0] == pytest.approx(power[0])
    assert len(classic.points) == 6


def test_ground_resistance_study_shares_cache(technology, sweep_options):
    cache = ExtractionCache()
    study = ground_resistance_study(technology, options=sweep_options,
                                    width_scale=2.0, vtune=0.0, cache=cache)
    assert cache.misses == 2                   # nominal + widened layout
    assert study.improved_ground_resistance == pytest.approx(
        study.nominal_ground_resistance / 2.0, rel=1e-6)
    again = ground_resistance_study(technology, options=sweep_options,
                                    width_scale=2.0, vtune=0.0, cache=cache)
    assert cache.misses == 2                   # warm cache: zero re-extractions
    np.testing.assert_array_equal(study.nominal_dbm, again.nominal_dbm)
