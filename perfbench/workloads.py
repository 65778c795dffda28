"""The benchmark's workloads: what each one runs and the inputs it builds.

Every workload is a function of its seed only.  The grids run the
Figures 6-8 comparison spec (the ``summary`` grid) through the
sequential executor into a fresh on-disk result store; the capture
workload streams a synthesized binary ChampSim capture through
``StreamingTraceSet.from_champsim_bin`` and ``simulate``.

This module is imported by the per-run child process (``child.py``)
with ``src/`` on ``sys.path``; the orchestrator (``run.py``) only reads
the plain-data ``PARAMS`` table and never imports the simulator.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

#: The seed whose reference-kernel digests are committed in digests.json.
DEFAULT_SEED = 1

#: Workload parameters.  Changing one invalidates the committed digests
#: (``run.py --regen-digests`` rewrites them).
PARAMS = {
    "grid-small": {
        "kind": "grid",
        "machine": "small",
        "benchmarks": ["BARNES", "RAYTRACE"],
        "scale": 0.22,
    },
    "grid-paper": {
        "kind": "grid",
        "machine": "paper",
        "benchmarks": ["STREAMCLUSTER", "OCEAN-C"],
        "scale": 0.02,
    },
    "stream-capture": {
        "kind": "capture",
        "scheme": "RT-3",
        "cores": 4,
        "records": 400_000,
        "chunk_records": 8192,
        # The hot-set fixture of benchmarks/streaming_bench.py: a 6-line
        # L1-resident hot set inside a 64K-line footprint.
        "footprint_lines": 1 << 16,
        "hot_lines": 6,
        "hot_fraction": 0.95,
        "write_fraction": 0.05,
    },
}


def stats_digest(stats) -> str:
    """SHA-256 of the stats dict; the ``stats_sha256`` that
    ``python -m repro trace simulate --json`` prints."""
    payload = json.dumps(stats.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def capture_path(workdir: Path) -> Path:
    return Path(workdir) / "capture.champsimtrace.xz"


def prepare(name: str, seed: int, workdir: Path) -> None:
    """Build the workload's on-disk inputs (not timed; grids need none)."""
    params = PARAMS[name]
    if params["kind"] != "capture":
        return
    from repro.workloads.champsim_bin import synthesize_champsim_bin

    synthesize_champsim_bin(
        capture_path(workdir),
        params["records"],
        seed=seed,
        footprint_lines=params["footprint_lines"],
        hot_lines=params["hot_lines"],
        hot_fraction=params["hot_fraction"],
        write_fraction=params["write_fraction"],
    )


class Outcome:
    """One execution of a workload: per-point stats and the timed phase."""

    def __init__(self) -> None:
        #: point id ("BENCHMARK/SCHEME") -> SimStats
        self.points: dict = {}
        #: point ids in attempt order (a raising point has no stats)
        self.attempted: list[str] = []
        self.error: "str | None" = None
        self.wall_s = 0.0
        self.num_cores = 0
        #: trace objects the run simulated (for mechanism guards)
        self.traces: list = []


def run(name: str, seed: int, workdir: Path, kernel: "str | None", tracer,
        warm_pass: bool = False) -> Outcome:
    """Execute workload ``name`` once; ``kernel=None`` is the default."""
    params = PARAMS[name]
    if params["kind"] == "grid":
        return _run_grid(params, seed, kernel, tracer, warm_pass)
    return _run_capture(params, workdir, kernel, tracer)


def _run_grid(params, seed, kernel, tracer, warm_pass) -> Outcome:
    from repro.experiments.comparison import comparison_spec
    from repro.experiments.runner import ExperimentSetup
    from repro.experiments.spec import execute_spec
    from repro.experiments.store import ResultStore

    outcome = Outcome()
    factory = getattr(ExperimentSetup, params["machine"])
    setup = factory(scale=params["scale"], seed=seed)
    setup.kernel = kernel
    outcome.num_cores = setup.config.num_cores
    spec = comparison_spec(setup, params["benchmarks"])
    ids = [f"{p.benchmark}/{p.scheme}" for p in spec.points]
    outcome.attempted = ids
    # REPRO_RESULT_CACHE names a fresh directory: every point misses.
    store = ResultStore.from_env()
    start = time.perf_counter()
    try:
        with tracer.phase():
            results = execute_spec(spec, setup, store=store)
    except Exception as error:  # a raising point fails the grid's remainder
        outcome.wall_s = time.perf_counter() - start
        outcome.error = f"{type(error).__name__}: {error}"
        return outcome
    outcome.wall_s = time.perf_counter() - start
    for point, point_id in zip(spec.points, ids):
        outcome.points[point_id] = results.result_for(point).stats
    outcome.traces = [setup.trace_for(b) for b in params["benchmarks"]]
    if warm_pass:
        # A second store over the same directory: every lookup is a disk
        # hit.  Exercises the store's read path for the per-layer split;
        # not part of wall_s.
        warm = execute_spec(spec, setup, store=ResultStore.from_env())
        for point, point_id in zip(spec.points, ids):
            if stats_digest(warm.result_for(point).stats) != stats_digest(
                outcome.points[point_id]
            ):
                del outcome.points[point_id]
                outcome.error = f"the store served other stats for {point_id}"
    return outcome


def _run_capture(params, workdir, kernel, tracer) -> Outcome:
    import repro.sim.simulator as simulator
    from repro.common.params import MachineConfig
    from repro.schemes.factory import make_scheme
    from repro.workloads.streaming import StreamingTraceSet

    outcome = Outcome()
    point_id = f"capture/{params['scheme']}"
    outcome.attempted = [point_id]
    with tracer.span("build"):
        traces = StreamingTraceSet.from_champsim_bin(
            capture_path(workdir),
            num_cores=params["cores"],
            chunk_records=params["chunk_records"],
        )
    config = MachineConfig.tiny()
    outcome.num_cores = config.num_cores
    outcome.traces = [traces]
    engine = make_scheme(params["scheme"], config)
    start = time.perf_counter()
    try:
        with tracer.phase(), tracer.span("point", point=point_id):
            stats = simulator.simulate(engine, traces, kernel=kernel)
    except Exception as error:
        outcome.wall_s = time.perf_counter() - start
        outcome.error = f"{type(error).__name__}: {error}"
        return outcome
    outcome.wall_s = time.perf_counter() - start
    outcome.points[point_id] = stats
    return outcome
