"""The three benchmark workloads, their inputs, repetitions and checks.

Every workload runs one *repetition* at a time: ``run_once`` does the timed
unit of work and returns a :class:`Rep`; ``check`` then verifies the
repetition's outputs outside the timed interval.  Work counters come back
with each repetition and must repeat exactly.  Import this module only after
``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import repro.studies.persist
import repro.substrate.extraction
from repro.core.flow import FlowOptions, run_extraction_flow
from repro.core.vco_experiment import VcoExperimentOptions, ground_resistance_study
from repro.layout.testchips import VcoLayoutSpec, make_vco_testchip
from repro.simulator.linalg import SolverOptions
from repro.simulator.solver import stats as solver_stats
from repro.studies import (
    Campaign,
    DiskExtractionCache,
    ExtractionCache,
    ParamSpace,
    SweepRunner,
    load_result,
)
from repro.substrate.extraction import SubstrateExtractionOptions
from repro.technology import make_technology

from reference import Mixed, Process, SparseLU

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"

#: Calibrated VCO mesh: 56 x 56 lateral x 6 layers = 18,816 nodes, 13 ports.
PAPER_MESH = 56
#: Lateral mesh of examples/campaign_fig8.toml.
CLI_MESH = 40
LATERAL_MARGIN = 60e-6

#: Invariant tolerances of the Kron macromodel, relative to max |Y|.
KRON_SYM_TOL = 1e-12
KRON_ROWSUM_TOL = 1e-9
KRON_OFFDIAG_TOL = 1e-12
#: Fig-10 checks (dB).
FIG10_MIN_REDUCTION_DB = 2.0
FIG10_IDEAL_MARGIN_DB = 0.5
FIG10_REFERENCE_TOL_DB = 0.01


def flow_options(mesh: int, backend: str = "direct") -> FlowOptions:
    return FlowOptions(
        substrate=SubstrateExtractionOptions(nx=mesh, ny=mesh,
                                             lateral_margin=LATERAL_MARGIN),
        solver=SolverOptions(backend=backend))


def make_ready():
    """Technology and the VCO test-chip cell: a process's set-up."""
    return make_technology(), make_vco_testchip(VcoLayoutSpec())


def fill_warm_cache(cache_dir, technology, cell, mesh: int):
    """Extract the test chip into an empty disk cache; return the flow."""
    cache = DiskExtractionCache(cache_dir)
    return cache.get_or_extract(cell, technology, flow_options(mesh))


def fig10_inputs(mesh: int) -> dict:
    """The paper's Figure-10 study; the seed does not enter it."""
    frequencies = np.logspace(np.log10(100e3), np.log10(15e6), 10)
    return {"width_scale": 2.0, "vtune": 0.0, "mesh": mesh,
            "noise_frequencies": tuple(float(f) for f in frequencies)}


def fig8_inputs(seed: int, mesh: int) -> dict:
    """2 powers x 7 V_tune x 60 noise frequencies; the seed draws the last two."""
    rng = np.random.default_rng(seed)
    while True:
        vtunes = np.unique(rng.uniform(0.0, 1.5, 7).round(4))
        frequencies = np.unique(np.exp(rng.uniform(np.log(100e3),
                                                   np.log(15e6), 60)))
        if vtunes.size == 7 and frequencies.size == 60:
            break
    return {"injected_power_dbm": (-15.0, -5.0),
            "vtune": tuple(float(v) for v in vtunes),
            "noise_frequency": tuple(float(f) for f in frequencies),
            "mesh": mesh}


def cli_config(mesh: int) -> dict:
    """The settings of examples/campaign_fig8.toml, as a JSON config."""
    return {
        "name": "fig8_spur_sweep",
        "axes": {"vtune": [0.0, 0.75, 1.5],
                 "noise_frequency": {"start": 1e5, "stop": 15e6, "num": 12,
                                     "spacing": "log"}},
        "options": {"mesh": {"nx": mesh, "ny": mesh,
                             "lateral_margin": LATERAL_MARGIN}},
        "solver": {"backend": "reuse-lu"},
        "execution": {"backend": "serial"},
    }


# -- helpers ------------------------------------------------------------------


@dataclass
class Rep:
    """One timed repetition."""

    seconds: float                  #: wall time
    points: int
    attempted: int
    failed: int
    counters: dict[str, int]
    start: float = 0.0
    scaled: float = 0.0             #: seconds at the nominal machine speed
    peak_rss_kb: int = 0
    parts: dict[str, float] = field(default_factory=dict)
    outputs: object = None          #: what ``check`` inspects


@dataclass
class Child:
    seconds: float
    exit_code: int
    peak_rss_kb: int


def child_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(workdir)
    return env


def spawn(argv: list[str], log_path: Path, env: dict[str, str]) -> Child:
    """Run ``argv`` to completion; time it from spawn to exit."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log_path),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return Child(seconds=time.perf_counter() - start,
                 exit_code=os.waitstatus_to_exitcode(status),
                 peak_rss_kb=usage.ru_maxrss)


@contextlib.contextmanager
def contacted_cells_probe(found: list[int]):
    """Record K, the distinct mesh nodes the ports contact, per Kron call."""
    module = repro.substrate.extraction
    original = module.kron_reduce

    def probe(conductance, port_nodes, *args, **kwargs):
        found.append(len({entry[0] if isinstance(entry, tuple) else entry
                          for nodes in port_nodes for entry in nodes}))
        return original(conductance, port_nodes, *args, **kwargs)

    module.kron_reduce = probe
    try:
        yield found
    finally:
        module.kron_reduce = original


def kron_residuals(flow) -> dict[str, float]:
    """Symmetry, row-sum and off-diagonal sign residuals, relative to max|Y|."""
    y = np.asarray(flow.substrate.macromodel.admittance)
    scale = float(np.abs(y).max())
    off = y - np.diag(np.diag(y))
    return {"sym": float(np.abs(y - y.T).max()) / scale,
            "rowsum": float(np.abs(y.sum(axis=1)).max()) / scale,
            "offdiag": max(float(off.max()), 0.0) / scale}


def check_kron(flow, problems: list[str]) -> dict[str, float]:
    resid = kron_residuals(flow)
    for name, tol in (("sym", KRON_SYM_TOL), ("rowsum", KRON_ROWSUM_TOL),
                      ("offdiag", KRON_OFFDIAG_TOL)):
        if not resid[name] <= tol:
            problems.append(f"Kron macromodel {name} residual {resid[name]:.3e}"
                            f" exceeds {tol:.0e}")
    return resid


def same_result(loaded, result) -> bool:
    return (loaded.campaign_name == result.campaign_name
            and loaded.axes == result.axes
            and loaded.rows() == result.rows()
            and loaded.cache_hits == result.cache_hits
            and loaded.cache_misses == result.cache_misses
            and loaded.wall_seconds == result.wall_seconds
            and len(loaded.failures) == len(result.failures)
            and len(loaded.variants) == len(result.variants))


class _RecordingCache(ExtractionCache):
    """In-memory cache that keeps the flows it stores, for the Kron checks."""

    def __init__(self):
        super().__init__()
        self.flows = []

    def store(self, key, flow):
        super().store(key, flow)
        self.flows.append(flow)


# -- workloads ----------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env(workdir)
        self.problems: list[str] = []
        #: times fresh processes, the set-up samples' reference
        self.process_reference = Process(spawn, self.env,
                                         workdir / "reference.log")
        #: the reference timed around every repetition
        self.reference = self.process_reference
        #: substrate facts: mesh nodes, contacted cells and Kron residuals
        self.facts: dict[str, float] = {}
        self._samples = 0

    def _log(self) -> Path:
        self._samples += 1
        return self.workdir / f"child-{self._samples}.log"

    def _spawn_checked(self, argv: list[str]) -> Child:
        child = spawn(argv, self._log(), self.env)
        if child.exit_code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {child.exit_code}")
        return child

    def setup_sample(self) -> float:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def run_once(self) -> Rep:
        raise NotImplementedError

    def check(self, rep: Rep) -> None:
        raise NotImplementedError

    def structure_counters(self) -> dict[str, int]:
        return {"mesh_nodes": int(self.facts["mesh_nodes"]),
                "contacted_cells": int(self.facts["contacted_cells"])}

    def _structure(self, flow, contacted: list[int]) -> None:
        resid = check_kron(flow, self.problems)
        self.facts = {"mesh_nodes": flow.substrate.mesh_nodes,
                      "contacted_cells": contacted[0] if contacted else 0,
                      "kron_sym_resid": resid["sym"],
                      "kron_rowsum_resid": resid["rowsum"]}


class Fig10Cold(Workload):
    """Figure-10 ground-width study, both layout variants re-extracted."""

    name = "fig10-cold"

    def __init__(self, seed, workdir, mesh=None):
        super().__init__(workdir)
        self.reference = SparseLU()
        self.inputs = fig10_inputs(mesh or PAPER_MESH)
        self.options = VcoExperimentOptions(
            noise_frequencies=self.inputs["noise_frequencies"],
            flow=flow_options(self.inputs["mesh"]))

    def setup_sample(self) -> float:
        return self._spawn_checked([
            sys.executable, str(PERFBENCH / "child.py"), "ready",
            "--mesh", str(self.inputs["mesh"])]).seconds

    def _study(self, options, cache):
        return ground_resistance_study(
            self.technology, options=options,
            width_scale=self.inputs["width_scale"], vtune=self.inputs["vtune"],
            cache=cache)

    def prepare(self) -> None:
        self.technology, _ = make_ready()
        direct = replace(self.options,
                         flow=flow_options(self.inputs["mesh"], "direct"))
        contacted: list[int] = []
        cache = _RecordingCache()
        with contacted_cells_probe(contacted):
            self.direct_study = self._study(direct, cache)
        self._structure(cache.flows[0], contacted)

    def run_once(self) -> Rep:
        solver_stats.reset()
        start = time.perf_counter()
        cache = _RecordingCache()
        study = self._study(self.options, cache)
        seconds = time.perf_counter() - start
        points = study.nominal_dbm.size + study.improved_dbm.size
        return Rep(seconds=seconds, points=points, attempted=2, failed=0,
                   start=start, outputs=(study, cache.flows), counters={
                       "extractions": cache.misses,
                       "cache_hits": cache.hits,
                       "cache_misses": cache.misses,
                       "factorizations": solver_stats.factorizations,
                       "solves": solver_stats.solves,
                       "fallbacks": solver_stats.fallbacks,
                       "corners": 2,
                       "points": points,
                       "npz_bytes": 0,
                       **self.structure_counters()})

    def check(self, rep: Rep) -> None:
        study, flows = rep.outputs
        reduction = study.predicted_reduction_db
        ceiling = study.ideal_reduction_db + FIG10_IDEAL_MARGIN_DB
        if not FIG10_MIN_REDUCTION_DB <= reduction <= ceiling:
            self.problems.append(
                f"Figure-10 reduction {reduction:.3f} dB outside "
                f"[{FIG10_MIN_REDUCTION_DB}, {ceiling:.3f}] dB")
        for name in ("nominal_dbm", "improved_dbm"):
            error = np.abs(getattr(study, name) - getattr(self.direct_study, name))
            if not error.max() <= FIG10_REFERENCE_TOL_DB:
                self.problems.append(
                    f"fig10 {name} differs from the direct-LU reference by "
                    f"{error.max():.4f} dB")
        for flow in flows:
            check_kron(flow, self.problems)
        rep.outputs = None


class Fig8Warm(Workload):
    """Fig-8 campaign on a warm disk cache: zero extractions."""

    name = "fig8-warm"

    def __init__(self, seed, workdir, mesh=None, fault_plan=None):
        super().__init__(workdir)
        self.reference = Mixed()
        self.inputs = fig8_inputs(seed, mesh or PAPER_MESH)
        self.fault_plan = fault_plan
        self.campaign = Campaign(
            name="fig8_warm",
            space=ParamSpace({name: self.inputs[name] for name in
                              ("injected_power_dbm", "vtune",
                               "noise_frequency")}),
            base_spec=VcoLayoutSpec(),
            options=VcoExperimentOptions(flow=flow_options(self.inputs["mesh"])))
        self.corners = (len(self.inputs["injected_power_dbm"])
                        * len(self.inputs["vtune"]))
        self.warm_dir = workdir / "warm-cache"
        self.npz = workdir / "fig8_warm.npz"

    def setup_sample(self) -> float:
        cache_dir = self.workdir / f"setup-cache-{self._samples}"
        seconds = self._spawn_checked([
            sys.executable, str(PERFBENCH / "child.py"), "fill",
            "--mesh", str(self.inputs["mesh"]),
            "--cache-dir", str(cache_dir)]).seconds
        shutil.rmtree(cache_dir)
        return seconds

    def prepare(self) -> None:
        self.technology, cell = make_ready()
        contacted: list[int] = []
        with contacted_cells_probe(contacted):
            flow = fill_warm_cache(self.warm_dir, self.technology, cell,
                                   self.inputs["mesh"])
        self._structure(flow, contacted)

    def run_once(self) -> Rep:
        solver_stats.reset()
        start = time.perf_counter()
        runner = SweepRunner(self.technology,
                             cache=DiskExtractionCache(self.warm_dir),
                             on_error="skip", fault_plan=self.fault_plan)
        result = runner.run(self.campaign)
        repro.studies.persist.save_result(result, self.npz)
        seconds = time.perf_counter() - start
        return Rep(seconds=seconds, points=len(result.records),
                   attempted=self.corners, failed=len(result.failures),
                   start=start, outputs=result, counters={
                       "extractions": result.cache_misses,
                       "cache_hits": result.cache_hits,
                       "cache_misses": result.cache_misses,
                       "factorizations": solver_stats.factorizations,
                       "solves": solver_stats.solves,
                       "fallbacks": solver_stats.fallbacks,
                       "corners": self.corners,
                       "points": len(result.records),
                       "npz_bytes": self.npz.stat().st_size,
                       **self.structure_counters()})

    def check(self, rep: Rep) -> None:
        result = rep.outputs
        if result.cache_misses:
            self.problems.append(
                f"warm campaign extracted {result.cache_misses} time(s)")
        if not same_result(load_result(self.npz), result):
            self.problems.append("load_result of the fig8-warm NPZ differs "
                                 "from the result in memory")
        rep.outputs = None


class CliFig8(Workload):
    """Fresh ``repro-campaign run`` processes: a cold one, then a warm one."""

    name = "cli-fig8"

    def __init__(self, seed, workdir, mesh=None):
        super().__init__(workdir)
        self.mesh = mesh or CLI_MESH
        self.config = workdir / "campaign_fig8.json"
        self.config.write_text(json.dumps(cli_config(self.mesh), indent=2))
        self.pair_dir = workdir / "pair"
        self.first_arrays: dict[str, tuple] | None = None
        self.first_rows = None

    def setup_sample(self) -> float:
        return self._spawn_checked([
            sys.executable, "-c", "import repro.studies.cli"]).seconds

    def prepare(self) -> None:
        technology, cell = make_ready()
        contacted: list[int] = []
        with contacted_cells_probe(contacted):
            flow = run_extraction_flow(cell, technology,
                                       options=flow_options(self.mesh,
                                                            "reuse-lu"))
        self._structure(flow, contacted)

    def _argv(self, result: str) -> list[str]:
        return ["run", str(self.config),
                "--cache-dir", str(self.pair_dir / "cache"),
                "--result", str(self.pair_dir / result)]

    def _fresh_pair_dir(self) -> None:
        shutil.rmtree(self.pair_dir, ignore_errors=True)
        self.pair_dir.mkdir(parents=True)

    def run_once(self) -> Rep:
        """One cold and one warm ``repro-campaign run`` process."""
        self._fresh_pair_dir()
        start = time.perf_counter()
        children = {}
        for kind in ("cold", "warm"):
            children[kind] = spawn(
                [sys.executable, "-m", "repro.studies.cli"]
                + self._argv(f"{kind}.npz"),
                self.pair_dir / f"{kind}.log", self.env)
        return self._rep(start, {kind: child.seconds
                                 for kind, child in children.items()},
                         failed=sum(child.exit_code != 0
                                    for child in children.values()),
                         peak_rss_kb=max(child.peak_rss_kb
                                         for child in children.values()))

    def run_once_in_process(self) -> Rep:
        """The same pair through ``repro.studies.cli.main`` in this process."""
        import repro.studies.cli

        self._fresh_pair_dir()
        start = time.perf_counter()
        parts, failed = {}, 0
        for kind in ("cold", "warm"):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                failed += repro.studies.cli.main(self._argv(f"{kind}.npz")) != 0
            parts[kind] = time.perf_counter() - t0
        return self._rep(start, parts, failed=failed, peak_rss_kb=0)

    def _rep(self, start, parts, failed, peak_rss_kb) -> Rep:
        counters = {**self.structure_counters(),
                    "corners": 0, "points": 0, "npz_bytes": 0}
        totals = {"extractions": 0, "cache_hits": 0, "cache_misses": 0,
                  "factorizations": 0, "solves": 0, "fallbacks": 0}
        for kind in ("cold", "warm"):
            npz = self.pair_dir / f"{kind}.npz"
            meta_path = self.pair_dir / f"{kind}.meta.json"
            if not (npz.exists() and meta_path.exists()):
                continue
            meta = json.loads(meta_path.read_text())
            solver = meta["telemetry"]["metrics"]["counters"]
            totals["extractions"] += meta["cache"]["misses"]
            totals["cache_hits"] += meta["cache"]["hits"]
            totals["cache_misses"] += meta["cache"]["misses"]
            for name in ("factorizations", "solves", "fallbacks"):
                totals[name] += solver.get(f"solver.{name}", 0)
            counters["corners"] += solver.get("campaign.task_attempts", 0)
            counters["points"] += meta["n_records"]
            counters["npz_bytes"] += npz.stat().st_size
        counters.update(totals)
        return Rep(seconds=sum(parts.values()), points=counters["points"],
                   attempted=2, failed=failed, counters=counters, start=start,
                   peak_rss_kb=peak_rss_kb, parts=parts)

    @staticmethod
    def _arrays(npz: Path) -> dict[str, tuple]:
        with np.load(npz, allow_pickle=False) as archive:
            return {name: (archive[name].dtype.str, archive[name].shape,
                           archive[name].tobytes()) for name in archive.files}

    def check(self, rep: Rep) -> None:
        if rep.failed:
            self.problems.append(f"{rep.failed} repro-campaign process(es) "
                                 "failed")
            return
        cold = self.pair_dir / "cold.npz"
        warm = self.pair_dir / "warm.npz"
        if rep.counters["extractions"] != 1:
            self.problems.append("cold+warm pair did not extract exactly once")
        arrays = self._arrays(cold)
        if self._arrays(warm) != arrays:
            self.problems.append("warm NPZ arrays differ from the cold NPZ")
        if self.first_arrays is None:
            self.first_arrays = arrays
        elif arrays != self.first_arrays:
            self.problems.append("NPZ arrays differ between repetitions")
        for npz in (cold, warm):
            rows = load_result(npz).rows()
            if self.first_rows is None:
                self.first_rows = rows
            elif rows != self.first_rows:
                self.problems.append(f"load_result({npz.name}) differs from "
                                     "the first saved result")


WORKLOADS = {cls.name: cls for cls in (Fig10Cold, Fig8Warm, CliFig8)}

