"""Repository benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload fig10-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fig8-warm --seed 1 --seconds 30 --trace 1

Run from the repository root.  With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run; the last line of standard output is the JSON result.  Every name,
unit and workload is declared in BENCHMARK.json; README.md in this
directory explains them.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import numpy as np

from reference import scaled
from tracing import LAYER_NAMES, LayerTracer

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fresh-process set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: ``python -X importtime`` samples behind ``import.repro_s``.
IMPORT_SAMPLES = 3
#: Fewest repetitions of each kind a run makes, however short ``--seconds``.
MIN_REPS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig10-cold", "fig8-warm", "cli-fig8"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mesh", type=int, default=None,
                        help="lateral mesh override (the self-test's tiny "
                             "mesh); default: the workload's own")
    return parser.parse_args(argv)


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import scipy

    import repro

    blas = {}
    with open("/proc/self/maps") as maps:
        libraries = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)",
                                          maps.read())))
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                blas[Path(library).name] = getter()
                break
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": blas,
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "repro": repro.__version__}


def source_digest() -> str:
    """Hash of the program's sources: counters are compared per version."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def import_time_sample(spawn, env: dict, log: Path) -> tuple[float, int]:
    """Cumulative seconds of ``import repro`` and the modules it imports."""
    child = spawn([sys.executable, "-X", "importtime", "-c", "import repro"],
                  log, env)
    if child.exit_code != 0:
        raise RuntimeError("python -X importtime -c 'import repro' failed")
    rows = [line.split("|") for line in log.read_text().splitlines()
            if line.startswith("import time:") and "cumulative" not in line]
    cumulative = next(int(row[1]) for row in rows if row[2].strip() == "repro")
    return cumulative * 1e-6, len(rows)


def setup_samples(workload) -> tuple[list[float], list[float]]:
    """Fresh-process set-up times, raw and scaled by the process reference."""
    times, references = [], []
    for _ in range(SETUP_SAMPLES):
        references.append(workload.process_reference())
        times.append(workload.setup_sample())
    references.append(workload.process_reference())
    return times, scaled(times, references, "process")


def measure(workload, seconds: float, tracer: LayerTracer | None):
    """Repetitions until ``seconds`` have passed, checked one by one.

    Untraced, the workload's reference runs before every repetition and once
    after the last, and each repetition's ``scaled`` time comes from the two
    around it.  With a ``tracer``, untraced and traced repetitions alternate
    instead, so the machine's drift reaches both halves alike.
    """
    reps, traced, references = [], [], []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(reps) < MIN_REPS
           or (tracer and len(traced) < MIN_REPS)):
        if tracer and len(traced) < len(reps):
            with tracer:
                rep = run_rep(workload, tracer)
            tracer.record_rep(rep.start, rep.start + rep.seconds)
            traced.append(rep)
        else:
            if not tracer:
                references.append(workload.reference())
            rep = run_rep(workload, tracer)
            reps.append(rep)
        workload.check(rep)
    if not tracer:
        references.append(workload.reference())
        for rep, value in zip(reps, scaled([rep.seconds for rep in reps],
                                           references,
                                           workload.reference.kind)):
            rep.scaled = value
    return reps, traced


def run_rep(workload, tracer):
    # The traced CLI run calls repro.studies.cli.main in this process, in
    # both halves of the overhead comparison.
    if tracer and hasattr(workload, "run_once_in_process"):
        return workload.run_once_in_process()
    return workload.run_once()


def check_counters(workload, reps, key: str) -> dict:
    """Counters must repeat exactly: across repetitions and across runs."""
    counters = reps[0].counters
    for rep in reps[1:]:
        for name, value in rep.counters.items():
            if value != counters[name]:
                workload.problems.append(
                    f"counter {name} differs between repetitions: "
                    f"{counters[name]} vs {value}")
    path = WORK / "counters" / f"{key}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        for name, value in counters.items():
            if previous.get(name) != value:
                workload.problems.append(
                    f"counter {name} differs from the previous run with this "
                    f"seed and source: {previous.get(name)} vs {value}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counters, sort_keys=True))
    return counters


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, setup, reps) -> dict:
    rss_kb = (median([rep.peak_rss_kb for rep in reps])
              if workload.name == "cli-fig8"
              else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return {
        "setup_s": metric(median(setup), "s"),
        "study_s": metric(median([rep.scaled for rep in reps]), "s"),
        "points_per_s": metric(median([rep.points / rep.scaled
                                       for rep in reps]), "1/s"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
    }


def per_layer(workload, imports, reps, traced, tracer, counters) -> dict:
    n = len(traced)
    self_s = tracer.self_times()
    metrics = {
        "import.repro_s": metric(median([s for s, _ in imports]), "s"),
        "import.modules": metric(imports[0][1], "count"),
    }
    for name in LAYER_NAMES:
        key = "studies.runner_self_s" if name == "studies.runner" \
            else f"{name}_s"
        metrics[key] = metric(self_s[name] / n, "s")
    metrics["bench.other_s"] = metric(self_s["other"] / n, "s")
    for name in ("mesh_nodes", "contacted_cells"):
        metrics[f"substrate.{name}"] = metric(counters[name], "count")
    for name in ("kron_sym_resid", "kron_rowsum_resid"):
        metrics[f"substrate.{name}"] = metric(workload.facts[name], "rel")
    for name in ("factorizations", "solves", "fallbacks"):
        metrics[f"simulator.{name}"] = metric(counters[name], "count")
    metrics["vco.points"] = metric(counters["points"], "count")
    for name in ("extractions", "cache_hits", "cache_misses", "corners"):
        metrics[f"studies.{name}"] = metric(counters[name], "count")
    metrics["studies.npz_bytes"] = metric(counters["npz_bytes"], "bytes")
    # Each traced repetition against the untraced one just before it.
    metrics["bench.trace_overhead_frac"] = metric(median(
        [(t.seconds - u.seconds) / u.seconds for u, t in zip(reps, traced)]),
        "frac")
    return metrics


def report(name: str, values, unit: str) -> str:
    """Median, sample count and the highest percentile with ten samples
    beyond it (when there are enough samples for one above the median)."""
    line = f"{name:<20} median {median(values):.6g} {unit}  (n={len(values)}"
    q = int(100 * (1 - 10 / len(values)))
    if q > 50:
        line += f", p{q} {np.percentile(values, q):.6g} {unit}"
    return line + ")"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args: argparse.Namespace, workdir: Path) -> int:
    from workloads import WORKLOADS, spawn

    workload = WORKLOADS[args.workload](args.seed, workdir, mesh=args.mesh)
    imports, setup_raw, setup = [], [], []
    if args.trace:
        imports = [import_time_sample(spawn, workload.env,
                                      workdir / f"importtime-{i}.log")
                   for i in range(IMPORT_SAMPLES)]
    else:
        setup_raw, setup = setup_samples(workload)
    workload.prepare()
    tracer = LayerTracer() if args.trace else None
    reps, traced = measure(workload, args.seconds, tracer)
    counters = check_counters(
        workload, reps + traced,
        f"{args.workload}-mesh{args.mesh or 'default'}-seed{args.seed}"
        f"-trace{args.trace}-{source_digest()}")

    attempted = sum(rep.attempted for rep in reps + traced)
    failed = sum(rep.failed for rep in reps + traced)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    if setup:
        print(report("setup_s wall", setup_raw, "s"))
        print(report("setup_s scaled", setup, "s"))
    print(report("study_s wall", [rep.seconds for rep in reps], "s"))
    if not tracer:
        print(report("study_s scaled", [rep.scaled for rep in reps], "s"))
    for part in reps[0].parts:
        print(report(f"{part}_run_s wall", [rep.parts[part] for rep in reps],
                     "s"))
    print(f"failed_frac          {failed / attempted:.6g}  "
          f"({failed} of {attempted} attempted)")
    print("counters " + json.dumps(counters, sort_keys=True))
    for problem in dict.fromkeys(workload.problems):
        print(f"CHECK FAILED: {problem}")

    if tracer:
        metrics = per_layer(workload, imports, reps, traced, tracer, counters)
        tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.json",
                     workload=args.workload, seed=args.seed,
                     traced_reps=len(traced))
    else:
        metrics = end_to_end(workload, setup, reps)
    for name, entry in metrics.items():
        print(f"{name:<28} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": not workload.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
