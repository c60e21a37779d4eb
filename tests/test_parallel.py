"""The unified work scheduler and its shared-memory data plane.

Covers the `repro.parallel` package end to end:

* plan validation (duplicate ids, unknown deps, cycles) and the scheduler's
  dependency/priority dispatch, dependency-failure propagation and retries —
  inline and on real worker processes;
* the zero-copy arena / shipped-object plane, including the inline fallback;
* worker-count configuration: the ``REPRO_MAX_WORKERS`` environment
  override and the ``[execution] max_workers`` config key;
* the fingerprint seam: memory and transport knobs (``max_cached_patterns``,
  flow transport) must never invalidate the extraction cache;
* numerical equivalence: a whole campaign on the graph scheduler == serial.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.core.flow import FlowOptions
from repro.core.vco_experiment import VcoExperimentOptions
from repro.errors import AnalysisError
from repro.parallel import (
    MAX_WORKERS_ENV,
    SharedArena,
    WorkItem,
    WorkScheduler,
    attach_arena,
    default_max_workers,
    load_object,
    ship_object,
    validate_plan,
)
from repro.parallel.plan import TaskFailure
from repro.parallel.shm import InlineArena, InlineObjectRef, ObjectShipper
from repro.simulator.linalg import SolverOptions
from repro.studies import (
    Campaign,
    DiskExtractionCache,
    FaultPlan,
    FaultSpec,
    ParamSpace,
    ProcessPoolBackend,
    SweepRunner,
)
from repro.studies.cache import fingerprint
from repro.substrate.extraction import SubstrateExtractionOptions

TINY_MESH = FlowOptions(substrate=SubstrateExtractionOptions(
    nx=12, ny=12, n_z_per_layer=2, lateral_margin=60e-6))


# -- picklable scheduler payloads ---------------------------------------------


@dataclass(frozen=True)
class _Job:
    value: int

    def corner_label(self) -> str:
        return f"job {self.value}"


def _double(job: _Job) -> int:
    return job.value * 2


def _boom(job: _Job) -> int:
    raise ValueError(f"boom {job.value}")


def _add_jobs(job: _Job) -> int:
    return job.value


# -- plan validation ----------------------------------------------------------


def test_validate_plan_returns_topological_order():
    items = [WorkItem(id="c", fn=_double, payload=_Job(3), deps=("a", "b")),
             WorkItem(id="a", fn=_double, payload=_Job(1)),
             WorkItem(id="b", fn=_double, payload=_Job(2), deps=("a",))]
    order = validate_plan(items)
    assert order.index("a") < order.index("b") < order.index("c")


def test_validate_plan_rejects_duplicate_ids():
    items = [WorkItem(id="a", fn=_double, payload=_Job(1)),
             WorkItem(id="a", fn=_double, payload=_Job(2))]
    with pytest.raises(AnalysisError, match="duplicate work item id"):
        validate_plan(items)


def test_validate_plan_rejects_unknown_dependency():
    with pytest.raises(AnalysisError, match="unknown item"):
        validate_plan([WorkItem(id="a", fn=_double, payload=_Job(1),
                                deps=("ghost",))])


def test_validate_plan_rejects_cycles():
    items = [WorkItem(id="a", fn=_double, payload=_Job(1), deps=("b",)),
             WorkItem(id="b", fn=_double, payload=_Job(2), deps=("a",))]
    with pytest.raises(AnalysisError, match="dependency cycle"):
        validate_plan(items)


# -- scheduler: dispatch, binding, failure propagation ------------------------


def test_scheduler_binds_dependency_results_inline():
    # Single worker => the in-process path; bind folds the dep's result in.
    started: list[str] = []
    scheduler = WorkScheduler(max_workers=1)
    items = [
        WorkItem(id="x", fn=_double, payload=_Job(21)),
        WorkItem(id="c", fn=_add_jobs, payload=_Job(0), deps=("x",),
                 priority=1,
                 bind=lambda payload, deps: replace(payload,
                                                    value=deps["x"] + 1)),
    ]
    outcomes = scheduler.run(items,
                             on_start=lambda i, a: started.append(i))
    assert outcomes == {"x": 42, "c": 43}
    assert started == ["x", "c"]
    assert scheduler.attempts == {"x": 1, "c": 1}


def test_scheduler_priority_orders_ready_items():
    order: list[str] = []
    scheduler = WorkScheduler(max_workers=1)
    items = [WorkItem(id="late", fn=_double, payload=_Job(1), priority=5),
             WorkItem(id="early", fn=_double, payload=_Job(2), priority=0),
             WorkItem(id="mid", fn=_double, payload=_Job(3), priority=2)]
    scheduler.run(items, on_start=lambda i, a: order.append(i))
    assert order == ["early", "mid", "late"]


def test_scheduler_dooms_dependents_with_root_failure():
    scheduler = WorkScheduler(max_workers=1)
    items = [WorkItem(id="x", fn=_boom, payload=_Job(7)),
             WorkItem(id="c1", fn=_double, payload=_Job(1), deps=("x",)),
             WorkItem(id="c2", fn=_double, payload=_Job(2), deps=("c1",))]
    outcomes = scheduler.run(items, on_error="skip")
    root = outcomes["x"]
    assert isinstance(root, TaskFailure)
    assert root.error_type == "ValueError" and "boom 7" in root.message
    # Dependents inherit the ROOT failure object verbatim, attempts unspent.
    assert outcomes["c1"] is root and outcomes["c2"] is root
    assert scheduler.attempts == {"x": 1, "c1": 0, "c2": 0}


def test_scheduler_runs_dag_on_worker_processes():
    scheduler = WorkScheduler(max_workers=2)
    items = [WorkItem(id=f"j{i}", fn=_double, payload=_Job(i))
             for i in range(5)]
    items.append(WorkItem(
        id="sum", fn=_add_jobs, payload=_Job(0),
        deps=tuple(f"j{i}" for i in range(5)),
        bind=lambda payload, deps: replace(payload,
                                           value=sum(deps.values()))))
    outcomes = scheduler.run(items)
    assert outcomes["sum"] == sum(2 * i for i in range(5))


def test_scheduler_propagates_failures_across_processes():
    scheduler = WorkScheduler(max_workers=2, retries=1)
    items = [WorkItem(id="x", fn=_boom, payload=_Job(3)),
             WorkItem(id="ok", fn=_double, payload=_Job(4)),
             WorkItem(id="c", fn=_double, payload=_Job(5), deps=("x",))]
    outcomes = scheduler.run(items, on_error="retry_then_skip")
    assert outcomes["ok"] == 8
    failure = outcomes["x"]
    assert isinstance(failure, TaskFailure) and failure.attempts == 2
    assert outcomes["c"] is failure
    assert scheduler.attempts["c"] == 0


# -- shared-memory data plane -------------------------------------------------


def test_arena_roundtrip_and_output_views():
    g = np.arange(6, dtype=float)
    out = np.zeros((2, 3), dtype=complex)
    arena = SharedArena.create({"g": g, "out": out})
    try:
        views = attach_arena(arena.handle)
        np.testing.assert_array_equal(views["g"], g)
        if arena.shared:
            # Writes through an attached view land in the parent's view.
            views["out"][1] = 1.0 + 2.0j
            np.testing.assert_array_equal(arena.view("out")[1],
                                          np.full(3, 1.0 + 2.0j))
        with pytest.raises(AnalysisError, match="no field named"):
            arena.view("missing")
    finally:
        arena.dispose()


def test_arena_inline_fallback(monkeypatch):
    import repro.parallel.shm as shm

    monkeypatch.setattr(shm, "_shared_memory", None)
    arena = SharedArena.create({"g": np.ones(3)})
    assert isinstance(arena, InlineArena) and not arena.shared
    views = attach_arena(arena.handle)
    np.testing.assert_array_equal(views["g"], np.ones(3))
    arena.dispose()


def test_ship_object_roundtrip_and_shipper_memoization():
    payload = {"flow": np.linspace(0.0, 1.0, 7), "label": "variant-0"}
    ref, arena = ship_object(payload)
    try:
        loaded = load_object(ref)
        assert loaded["label"] == "variant-0"
        np.testing.assert_array_equal(loaded["flow"], payload["flow"])
    finally:
        if arena is not None:
            arena.dispose()
    shipper = ObjectShipper()
    try:
        first = shipper.ref_for("key", payload)
        assert shipper.ref_for("key", payload) is first
    finally:
        shipper.close()


def test_inline_object_ref_roundtrip(monkeypatch):
    import repro.parallel.shm as shm

    monkeypatch.setattr(shm, "_shared_memory", None)
    ref, arena = ship_object([1, 2, 3])
    assert isinstance(ref, InlineObjectRef) and arena is None
    assert load_object(ref) == [1, 2, 3]


# -- worker-count configuration -----------------------------------------------


def test_default_max_workers_env_override(monkeypatch):
    import os

    monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
    assert default_max_workers() == min(4, os.cpu_count() or 1)
    monkeypatch.setenv(MAX_WORKERS_ENV, "7")
    assert default_max_workers() == 7
    assert ProcessPoolBackend().max_workers == 7


@pytest.mark.parametrize("raw, match", [
    ("three", "positive integer"),
    ("0", ">= 1"),
    ("-2", ">= 1"),
])
def test_default_max_workers_rejects_invalid_env(monkeypatch, raw, match):
    monkeypatch.setenv(MAX_WORKERS_ENV, raw)
    with pytest.raises(AnalysisError, match=match):
        default_max_workers()


def test_execution_table_max_workers_key(tmp_path):
    from repro.studies.cli import load_campaign_config

    config = tmp_path / "campaign.toml"
    config.write_text(
        'name = "w"\n'
        "[axes]\nvtune = [0.0]\nnoise_frequency = [1e6]\n"
        '[execution]\nbackend = "process-pool"\nmax_workers = 3\n')
    execution = load_campaign_config(config).execution
    backend = execution.make_backend()
    assert isinstance(backend, ProcessPoolBackend)
    assert backend.max_workers == 3


def test_execution_settings_worker_alias_validation():
    from repro.studies.cli import ExecutionSettings

    assert ExecutionSettings(workers=2, max_workers=2).effective_workers() == 2
    assert ExecutionSettings(max_workers=5).effective_workers() == 5
    with pytest.raises(AnalysisError, match="aliases"):
        ExecutionSettings(workers=2, max_workers=3)
    with pytest.raises(AnalysisError, match="must be >= 1"):
        ExecutionSettings(max_workers=0)


# -- fingerprint seam: parallelism never invalidates the cache ----------------


def test_parallelism_knobs_excluded_from_solver_fingerprint():
    base = SolverOptions()
    assert SolverOptions.__fingerprint_exclude__ == ("max_cached_patterns",)
    varied = replace(base, max_cached_patterns=2)
    assert fingerprint(base) == fingerprint(varied)
    # A genuinely numerical knob still changes the identity.
    assert fingerprint(base) != fingerprint(replace(base, gmin=1e-9))


def test_sweep_task_fingerprint_ignores_flow_transport(technology):
    from repro.studies.runner import SweepTask

    campaign = _layout_campaign()
    variant = campaign.variants()[0]
    task = SweepTask(index=0, variant_index=0, knobs={},
                     technology=technology, spec=variant.spec,
                     options=campaign.options, injected_power_dbm=-10.0,
                     vtune=0.0, noise_frequencies=(1e6,), flow=None,
                     first_point_index=0)
    assert "flow_ref" in SweepTask.__fingerprint_exclude__
    shipped = replace(task, flow_ref=InlineObjectRef(payload=b"flow-bytes"))
    assert fingerprint(task) == fingerprint(shipped)


# -- worker heartbeats -------------------------------


@dataclass(frozen=True)
class _WedgeJob:
    """Scheduler payload the fault plan can target (matches on ``index``)."""

    index: int

    def corner_label(self) -> str:
        return f"wedge job {self.index}"


def _wedge_value(job: _WedgeJob) -> int:
    return job.index + 100


def test_scheduler_heartbeat_detects_silently_wedged_worker(tmp_path):
    # A SIGSTOPped worker never errors, never completes and never breaks
    # the pool: only the heartbeat monitor can notice it before the
    # wall-clock task_timeout (set far too high to be the thing that saves
    # this test).  The trip SIGKILLs the frozen worker, recycles the pool
    # and the retry completes.
    plan = FaultPlan(state_dir=str(tmp_path / "stop-state"),
                     specs=(FaultSpec("stop", task_index=0, attempts=1),))
    scheduler = WorkScheduler(max_workers=2, retries=1, task_timeout=300.0,
                              heartbeat_timeout=1.0, backoff_base=0.01)
    items = [WorkItem(id=f"w{index}", fn=plan.wrap(_wedge_value),
                      payload=_WedgeJob(index))
             for index in range(4)]
    start = time.monotonic()
    outcomes = scheduler.run(items)
    elapsed = time.monotonic() - start
    assert outcomes == {f"w{index}": index + 100 for index in range(4)}
    assert scheduler.heartbeat_trips >= 1
    assert scheduler.attempts["w0"] == 2
    assert elapsed < 120.0                       # long before task_timeout


# -- campaign-level equivalence on the graph scheduler ------------------------


def _layout_campaign() -> Campaign:
    """Two layout variants (two extractions) x one corner each."""
    return Campaign(
        name="parallel_equivalence",
        space=ParamSpace({"ground_width_scale": (1.0, 2.0),
                          "noise_frequency": (1e6, 4e6)}),
        options=VcoExperimentOptions(vtune_values=(0.0,),
                                     noise_frequencies=(1e6, 4e6),
                                     flow=TINY_MESH))


def test_graph_campaign_bit_identical_to_serial(technology, tmp_path):
    campaign = _layout_campaign()
    serial = SweepRunner(
        technology, cache=DiskExtractionCache(tmp_path / "serial"),
    ).run(campaign)

    # Cold cache: extractions run as plan items, corners depend on them and
    # receive the flow through shared memory.
    pool_backend = ProcessPoolBackend(max_workers=2)
    cache = DiskExtractionCache(tmp_path / "graph")
    graph = SweepRunner(technology, backend=pool_backend,
                        cache=cache).run(campaign)
    assert not graph.failures
    assert graph.cache_misses == 2 and graph.cache_hits == 0
    np.testing.assert_array_equal(graph.column("spur_power_dbm"),
                                  serial.column("spur_power_dbm"))

    # Re-run against the warm cache with a different worker count: every
    # extraction must hit (parallelism knobs are fingerprint-excluded).
    warm = SweepRunner(technology, backend=ProcessPoolBackend(max_workers=3),
                       cache=cache).run(campaign)
    assert warm.cache_misses == 0 and warm.cache_hits == 2
    np.testing.assert_array_equal(warm.column("spur_power_dbm"),
                                  serial.column("spur_power_dbm"))


def test_graph_campaign_reports_extraction_failure_per_corner(
        technology, tmp_path, monkeypatch):
    import repro.studies.runner as runner_module

    campaign = _layout_campaign()

    def sabotage(task):
        raise RuntimeError("substrate mesher exploded")

    monkeypatch.setattr(runner_module, "_execute_extraction", sabotage)
    # Single worker => the inline graph path; the monkeypatched module
    # global is visible because nothing needs to cross a process boundary.
    runner = SweepRunner(technology, backend=ProcessPoolBackend(max_workers=1),
                         cache=DiskExtractionCache(tmp_path / "cache"),
                         on_error="skip")
    result = runner.run(campaign)
    assert len(result.failures) == 2          # one per corner, none ran
    for failure in result.failures:
        assert failure.error_type == "RuntimeError"
        assert "extraction of variant" in failure.corner_label
        assert failure.variant_index >= 0
    assert not result.records
