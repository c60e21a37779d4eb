"""Fast self-test of the benchmark itself, on a tiny mesh.

    python3 perfbench/selftest.py

Checks that every workload emits every metric BENCHMARK.json declares, with
its unit, in both modes; that an injected failing corner is counted as
failed; and that the seed changes the fig8-warm grid while fig10-cold stays
the paper's study.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
TINY_MESH = 12


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--mesh", str(TINY_MESH)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    check(proc.returncode == 0,
          f"{workload} --trace {trace} exited {proc.returncode}:\n"
          f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names(spec: dict) -> None:
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            result = run_benchmark(workload, trace)
            label = f"{workload} --trace {trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{label}: checks failed")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{label}: attempted/failed {result['attempted']}"
                  f"/{result['failed']}")
            units = {name: entry["unit"]
                     for name, entry in result["metrics"].items()}
            expected = {entry["name"]: entry["unit"] for entry in declared}
            check(units == expected,
                  f"{label}: metrics {units} != declared {expected}")
            print(f"ok  {label}: {len(units)} metrics")


def test_injected_failure(workdir: Path) -> None:
    from repro.studies import FaultPlan, FaultSpec
    from workloads import Fig8Warm

    plan = FaultPlan(state_dir=str(workdir / "faults"),
                     specs=(FaultSpec("raise", task_index=0, attempts=1000),))
    workload = Fig8Warm(1, workdir, mesh=TINY_MESH, fault_plan=plan)
    workload.prepare()
    rep = workload.run_once()
    workload.check(rep)
    check(rep.attempted == 14 and rep.failed == 1,
          f"injected failure counted as {rep.failed} of {rep.attempted}")
    check(not workload.problems, f"checks failed: {workload.problems}")
    print(f"ok  injected failing corner: failed_frac "
          f"{rep.failed / rep.attempted:.4f} (1 of 14)")


def test_seed(workdir: Path) -> None:
    import numpy as np

    from workloads import Fig8Warm, Fig10Cold, PAPER_MESH

    one, two = (Fig8Warm(seed, workdir, mesh=TINY_MESH).inputs
                for seed in (1, 2))
    check(one["vtune"] != two["vtune"]
          and one["noise_frequency"] != two["noise_frequency"],
          "the seed does not change the fig8-warm grid")
    check(one == Fig8Warm(1, workdir, mesh=TINY_MESH).inputs,
          "the same seed gives another fig8-warm grid")
    paper = Fig10Cold(1, workdir).inputs
    check(paper == Fig10Cold(2, workdir).inputs,
          "the seed changes the fig10-cold study")
    check(paper["mesh"] == PAPER_MESH and paper["width_scale"] == 2.0
          and paper["vtune"] == 0.0
          and np.allclose(paper["noise_frequencies"],
                          np.logspace(5, np.log10(15e6), 10)),
          f"fig10-cold is not the paper's study: {paper}")
    print("ok  seed changes fig8-warm only")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(PERFBENCH))
    workdir = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        test_seed(workdir)
        test_injected_failure(workdir)
        test_metric_names(spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
