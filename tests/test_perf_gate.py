"""The perf gate gates every PR — so it gets gated itself.

Covers the comparison core (threshold x jitter-floor interaction, the
per-stage breakdown floor) and the CLI contract against synthetic baseline /
current snapshots: regression detected, jitter suppressed, missing sections
hard-fail, new metrics tolerated.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import perf_gate  # noqa: E402

BASELINE = {
    "benchmark": "repro_perf_snapshot",
    "flow": {
        "extraction_seconds": 2.0,
        "total_seconds": 5.0,
        "extraction_breakdown": {
            "mesh_assembly_seconds": 0.5,
            "kron_reduction_seconds": 1.2,
        },
        "mesh_nodes": 4800,
    },
    "solver": {
        "contact_space": {
            "nx56": {"contact_space_seconds": 0.03,
                     "mesh_solve_seconds": 0.6,
                     "contacted_cells": 576},
        },
    },
}


def _write(tmp_path, name, snapshot):
    path = tmp_path / name
    path.write_text(json.dumps(snapshot))
    return path


def _current(flow_total=5.0, extraction=2.0, kron=1.2, **extra):
    snapshot = json.loads(json.dumps(BASELINE))    # deep copy
    snapshot["flow"]["total_seconds"] = flow_total
    snapshot["flow"]["extraction_seconds"] = extraction
    snapshot["flow"]["extraction_breakdown"]["kron_reduction_seconds"] = kron
    snapshot.update(extra)
    return snapshot


# -- flatten / compare core ---------------------------------------------------------


def test_flatten_collects_only_seconds_keys():
    metrics = perf_gate.flatten_seconds(BASELINE)
    assert metrics["flow.total_seconds"] == 5.0
    assert metrics["solver.contact_space.nx56.mesh_solve_seconds"] == 0.6
    assert "solver.contact_space.nx56.contacted_cells" not in metrics
    assert "flow.mesh_nodes" not in metrics
    assert all(key.endswith("_seconds") for key in metrics)


def test_compare_flags_regression_over_threshold_and_floor():
    rows, regressed = perf_gate.compare(
        {"a_seconds": 1.0}, {"a_seconds": 3.0},
        threshold=2.5, min_delta=0.05)
    assert regressed
    assert rows[0]["status"] == "REGRESSED"
    assert rows[0]["ratio"] == pytest.approx(3.0)


def test_compare_suppresses_jitter_below_absolute_floor():
    # 4x ratio but only +30 ms absolute: below the floor, not a finding
    rows, regressed = perf_gate.compare(
        {"a_seconds": 0.01}, {"a_seconds": 0.04},
        threshold=2.5, min_delta=0.05)
    assert not regressed
    assert rows[0]["status"] == "ok"


def test_compare_within_threshold_passes():
    rows, regressed = perf_gate.compare(
        {"a_seconds": 1.0}, {"a_seconds": 2.0},
        threshold=2.5, min_delta=0.05)
    assert not regressed


def test_compare_breakdown_stages_use_stage_floor():
    baseline = {"flow.extraction_breakdown.kron_seconds": 0.02,
                "flow.total_seconds": 0.02}
    current = {"flow.extraction_breakdown.kron_seconds": 0.10,
               "flow.total_seconds": 0.10}
    # +80 ms at 5x: clears the section floor (0.05) but not the stage floor
    rows, regressed = perf_gate.compare(baseline, current, threshold=2.5,
                                        min_delta=0.05, stage_min_delta=0.1)
    by_name = {row["metric"]: row for row in rows}
    assert by_name["flow.total_seconds"]["status"] == "REGRESSED"
    assert by_name[
        "flow.extraction_breakdown.kron_seconds"]["status"] == "ok"
    assert regressed


def test_compare_new_and_removed_metrics_are_annotated():
    rows, regressed = perf_gate.compare(
        {"old_seconds": 1.0}, {"new_seconds": 1.0},
        threshold=2.5, min_delta=0.05)
    statuses = {row["metric"]: row["status"] for row in rows}
    assert statuses == {"old_seconds": "removed", "new_seconds": "new"}
    assert not regressed          # metric-level churn is annotated, not fatal


# -- CLI contract -------------------------------------------------------------------


def test_gate_passes_on_identical_snapshots(tmp_path, capsys):
    baseline = _write(tmp_path, "baseline.json", BASELINE)
    current = _write(tmp_path, "current.json", BASELINE)
    code = perf_gate.main(["--baseline", str(baseline),
                           "--current", str(current)])
    assert code == 0
    assert "perf-gate: ok" in capsys.readouterr().out


def test_gate_detects_regression(tmp_path, capsys):
    baseline = _write(tmp_path, "baseline.json", BASELINE)
    current = _write(tmp_path, "current.json", _current(flow_total=30.0))
    code = perf_gate.main(["--baseline", str(baseline),
                           "--current", str(current)])
    assert code == 1
    captured = capsys.readouterr()
    assert "flow.total_seconds" in captured.err
    assert "REGRESSED" not in captured.err or "regressed" in captured.err


def test_gate_suppresses_small_absolute_jitter(tmp_path):
    baseline = _write(tmp_path, "baseline.json", BASELINE)
    # 3x the 0.5 s mesh assembly stage = +1.0 s — but bump only the
    # *stage*, keeping totals flat, then raise the stage floor above it
    snapshot = _current()
    snapshot["flow"]["extraction_breakdown"]["mesh_assembly_seconds"] = 1.5
    current = _write(tmp_path, "current.json", snapshot)
    assert perf_gate.main(["--baseline", str(baseline),
                           "--current", str(current),
                           "--stage-min-delta", "2.0"]) == 0
    assert perf_gate.main(["--baseline", str(baseline),
                           "--current", str(current),
                           "--stage-min-delta", "0.5"]) == 1


def test_gate_fails_on_missing_section(tmp_path, capsys):
    """A benchmark section silently dropped from the measurement must fail."""
    baseline = _write(tmp_path, "baseline.json", BASELINE)
    snapshot = _current()
    del snapshot["solver"]
    current = _write(tmp_path, "current.json", snapshot)
    code = perf_gate.main(["--baseline", str(baseline),
                           "--current", str(current)])
    assert code == 1
    assert "solver" in capsys.readouterr().err


def test_gate_section_filter_restricts_comparison(tmp_path):
    """--section limits both the comparison and the missing-section check."""
    baseline = _write(tmp_path, "baseline.json", BASELINE)
    snapshot = _current(flow_total=30.0)        # flow regressed
    del snapshot["flow"]                         # ...and then dropped
    current = _write(tmp_path, "current.json", snapshot)
    # gating only the solver section: the dropped flow section is out of scope
    assert perf_gate.main(["--baseline", str(baseline),
                           "--current", str(current),
                           "--section", "solver"]) == 0
    assert perf_gate.main(["--baseline", str(baseline),
                           "--current", str(current),
                           "--section", "flow"]) == 1


def test_gate_missing_baseline_file_fails(tmp_path, capsys):
    code = perf_gate.main(["--baseline", str(tmp_path / "nope.json"),
                           "--current", str(_write(tmp_path, "c.json",
                                                   BASELINE))])
    assert code == 1
    assert "does not exist" in capsys.readouterr().err


def test_gate_tolerates_new_sections_and_metrics(tmp_path):
    baseline = _write(tmp_path, "baseline.json", BASELINE)
    snapshot = _current()
    snapshot["solver"]["contact_space"]["nx160"] = {
        "contact_space_seconds": 0.6}
    current = _write(tmp_path, "current.json", snapshot)
    assert perf_gate.main(["--baseline", str(baseline),
                           "--current", str(current)]) == 0


def test_markdown_table_lists_every_metric():
    rows, _ = perf_gate.compare(
        {"a_seconds": 1.0, "b_seconds": 0.5},
        {"a_seconds": 9.0, "c_seconds": 0.1},
        threshold=2.5, min_delta=0.05)
    table = perf_gate.markdown_table(rows, threshold=2.5)
    for name in ("a_seconds", "b_seconds", "c_seconds"):
        assert f"`{name}`" in table
    assert "regressed" in table and "removed" in table and "new" in table
