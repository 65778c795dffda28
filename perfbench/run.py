"""The repository benchmark: one workload, timed, checked and summarized.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-small --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics over the timed passes
(``wall_s`` takes every point at its median pass; see ``median_wall``);
``--trace 1`` reports the per-layer split from a traced pass, a
cProfile pass and an untraced pass for the tracing overhead.  Every pass
runs ``perfbench/child.py`` in a process of its own against ``src/``,
with the ``REPRO_*`` environment cleared and a fresh result store, and
every simulated point is checked against the reference-kernel stats
digests.  The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Per-pass records are appended to ``.perfbench/runs.ndjson`` and the
traced pass's spans go to ``.perfbench/spans-<workload>-seed<N>.ndjson``.
``--regen-digests`` rewrites ``perfbench/digests.json`` (the expected
digests at the default seed) with the reference kernel.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"
DIGESTS = BENCH / "digests.json"

#: Timed passes per run, at least.  One pass of a grid outlasts
#: ``--seconds`` on a slow host, and a single pass spreads too much.
MIN_PASSES = 2
#: Wall-clock budget for one invocation; children are killed past it.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s", "records_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """A pass failed to run, or a mechanism guard failed."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def child_env(store_dir: Path) -> dict:
    """The hermetic environment of every pass."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_RESULT_CACHE=str(store_dir),
    )
    return env


def host_info() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "git": revision}


def source_hash() -> str:
    """Content hash of the simulator sources (keys cached digests)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Passes:
    """Starts child passes for one workload and seed, and logs them."""

    def __init__(self, workload: str, seed: int, workdir: Path, host: dict,
                 deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.host = host
        self.deadline = deadline
        self.records: list[dict] = []
        self._running: list[subprocess.Popen] = []

    def run(self, mode: str) -> dict:
        return self.finish(self.start(mode))

    def start(self, mode: str) -> tuple:
        """Start a pass in the background; ``finish`` collects it."""
        if time.monotonic() >= self.deadline:
            raise BenchError(f"time budget spent before the {mode} pass")
        store = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        argv = [sys.executable, str(BENCH / "child.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--mode", mode, "--workdir", str(self.workdir),
                "--t0", repr(time.monotonic())]
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(store), text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self._running.append(proc)
        return mode, proc, store

    def finish(self, started: tuple) -> dict:
        mode, proc, store = started
        try:
            stdout, stderr = proc.communicate(
                timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} pass exceeded the time budget") from None
        finally:
            shutil.rmtree(store, ignore_errors=True)
        self._running.remove(proc)
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited {proc.returncode}:\n{stderr[-3000:]}")
        lines = stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} pass printed no result")
        result = json.loads(lines[-1])
        record = {k: v for k, v in result.items() if k != "trace"}
        record.update(ts=time.time(), workload=self.workload, seed=self.seed,
                      host=self.host)
        self.records.append(record)
        return result

    def close(self) -> None:
        """Kill any pass still running and wait until it has ended."""
        for proc in self._running:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self._running.clear()


def expected_digests(passes: Passes) -> dict:
    """Reference-kernel digests: committed for the default seed, else
    computed (and cached per source tree) before any timed pass."""
    params = workloads.PARAMS[passes.workload]
    if passes.seed == workloads.DEFAULT_SEED:
        committed = json.loads(DIGESTS.read_text())[passes.workload]
        if committed["params"] != params:
            raise BenchError(f"{DIGESTS.name} was made for other {passes.workload} "
                             f"parameters; rerun with --regen-digests")
        return committed["digests"]
    cache = STATE / "expected" / (
        f"{passes.workload}-seed{passes.seed}-{source_hash()[:16]}.json")
    if cache.is_file():
        cached = json.loads(cache.read_text())
        if cached["params"] == params:
            return cached["digests"]
    reference = passes.run("reference")
    if reference["error"] is not None:
        raise BenchError(f"reference pass failed: {reference['error']}")
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps({"params": params,
                                 "digests": reference["digests"]}))
    return reference["digests"]


def check(result: dict, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) of one pass against the digests.

    A point fails when it raised (no digest) or its digest differs."""
    messages = []
    attempted = list(result["attempted"])
    missing = sorted(set(expected) - set(attempted))
    if missing:
        messages.append(f"points not attempted: {missing}")
    failed = len(missing)
    for point in attempted:
        digest = result["digests"].get(point)
        if digest is None:
            failed += 1
            messages.append(f"{point}: raised ({result['error']})")
        elif digest != expected.get(point):
            failed += 1
            messages.append(f"{point}: stats digest {digest[:12]} != "
                            f"expected {str(expected.get(point))[:12]}")
    return len(attempted) + len(missing), failed, messages


def guard(workload: str, result: dict) -> list[str]:
    """Mechanism guards: the run took the path its workload exists for."""
    problems = []
    if result["sim_calls"] == 0:
        problems.append("no simulate call ran")
    if workload == "grid-small":
        rt3 = {p: n for p, n in result["replica_hits"].items() if p.endswith("/RT-3")}
        if not rt3 or not all(rt3.values()):
            problems.append(f"RT-3 points served no L1 miss from a replica: {rt3}")
    if workload == "grid-paper" and result["num_cores"] != 64:
        problems.append(f"ran on {result['num_cores']} cores, not the 64-core machine")
    if workload == "stream-capture":
        if not result["streaming"]:
            problems.append("the capture was not simulated as a streaming set")
        if not result["producers"]:
            problems.append("no background decode producer was started")
    return problems


# ---------------------------------------------------------------------------
# Timed (untraced) run
# ---------------------------------------------------------------------------

def median_wall(reps: list) -> float:
    """The simulation phase's time with every point at its median pass.

    A slow spell of a few seconds on a shared host slows the points that
    run in it.  A point's median over the passes drops a spell that hit
    that point in a minority of passes, even when spells hit every pass
    somewhere.  Points are the segments ``child.py`` reports: one per
    ``simulate`` call, and one per streamed chunk, in their fixed order."""
    return sum(map(statistics.median, zip(*(r["segments"] for r in reps))))


def timed_run(passes: Passes, expected: dict, seconds: float) -> tuple:
    # One pass that stops at the first simulate call, plus the timed passes.
    # A further pass starts only if a pass as long as the median one so far
    # still ends within ``seconds``.
    setups = [passes.run("setup")["setup_s"]]
    reps, lengths = [], []
    start = time.monotonic()
    while len(reps) < MIN_PASSES or (
            time.monotonic() - start + statistics.median(lengths) <= seconds):
        began = time.monotonic()
        reps.append(passes.run("plain"))
        lengths.append(time.monotonic() - began)
    attempted = failed = 0
    for rep in reps:
        if rep["error"] is None:
            problems = guard(passes.workload, rep)
            if problems:
                raise BenchError("; ".join(problems))
        n, bad, messages = check(rep, expected)
        attempted += n
        failed += bad
        for message in messages:
            print(f"MISMATCH {message}", file=sys.stderr)
    wall = median_wall(reps)
    metrics = {
        "wall_s": wall,
        "records_per_s": statistics.median(r["records"] for r in reps) / wall,
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
    }
    info = {"passes": len(reps), "setup_samples": len(setups) + len(reps),
            "kernel": reps[0]["kernel"]}
    return ({name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()},
            attempted, failed, info)


# ---------------------------------------------------------------------------
# Traced run: the per-layer split
# ---------------------------------------------------------------------------

def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(plain: dict, traced: dict, profile: dict) -> tuple[dict, list]:
    """The per-layer metrics (value, unit), and the paths the workload did
    not take (their metrics read 0)."""
    trace = traced["trace"]
    hot = trace["hot"].values()
    shares = profile["profile"]
    named = {}
    for span in trace["spans"]:
        named.setdefault(span["name"], []).append(span)
    sim_spans = named.get("simulate", [])
    sim_ids = {str(s["id"]) for s in sim_spans}
    sim_busy = sum(map(_duration, sim_spans))
    layers = ("network", "cache", "core", "coherence", "dram")
    calls = {layer: sum(acc["calls"][layer] for acc in hot) for layer in layers}
    busy = {layer: sum(acc["busy_s"][layer] for acc in hot) for layer in layers}
    component_s = sum(trace["hot"][i]["outer_s"] for i in sim_ids if i in trace["hot"])
    pulls_s = sum(_duration(s) for s in named.get("pull", [])
                  if str(s["parent"]) in sim_ids)
    status = traced["miss_status"]  # L1 hit, replica hit, home hit, off-chip
    misses = sum(status[1:])
    decode = named.get("decode", [])
    # CPU time, not span length: the producer thread's spans also cover
    # its waits for the interpreter lock while the simulation runs.
    decode_s = sum(s["cpu_s"] for s in decode)
    wait_s = sum(map(_duration, named.get("wait", [])))
    store = named.get("store", [])
    metrics = {
        "sim.calls": (len(sim_spans), "count"),
        "sim.busy_s": (sim_busy, "s"),
        "sim.self_s": (sim_busy - component_s - pulls_s, "s"),
        "sim.profile_share": (shares.get("sim", 0.0), "fraction"),
        "schemes.profile_share": (shares.get("schemes", 0.0), "fraction"),
        "schemes.replica_hit_share": (_ratio(status[1], misses), "fraction"),
        "network.calls": (calls["network"], "count"),
        "network.busy_s": (busy["network"], "s"),
        "network.ns_per_call": (_ratio(busy["network"] * 1e9, calls["network"]), "ns"),
        "network.profile_share": (shares.get("network", 0.0), "fraction"),
        "network.flits": (traced["flits"], "count"),
        "cache.calls": (calls["cache"], "count"),
        "cache.busy_s": (busy["cache"], "s"),
        "cache.victim_calls": (sum(acc["victim_calls"] for acc in hot), "count"),
        "cache.profile_share": (shares.get("cache", 0.0), "fraction"),
        "cache.l1_hit_share": (_ratio(status[0], sum(status)), "fraction"),
        "core.calls": (calls["core"], "count"),
        "core.busy_s": (busy["core"], "s"),
        "core.profile_share": (shares.get("core", 0.0), "fraction"),
        "coherence.calls": (calls["coherence"], "count"),
        "coherence.busy_s": (busy["coherence"], "s"),
        "coherence.invalidations": (traced["invalidations"], "count"),
        "dram.calls": (calls["dram"], "count"),
        "dram.busy_s": (busy["dram"], "s"),
        "dram.offchip_share": (_ratio(status[3], misses), "fraction"),
        "placement.profile_share": (shares.get("placement", 0.0), "fraction"),
        "workloads.build_s": (sum(map(_duration, named.get("build", []))), "s"),
        "workloads.decode_busy_s": (decode_s, "s"),
        "workloads.decode_chunks": (len(decode), "count"),
        "workloads.wait_s": (wait_s, "s"),
        "workloads.decode_hidden_share": (
            1.0 - wait_s / decode_s if decode_s else 0.0, "fraction"),
        "experiments.store_calls": (len(store), "count"),
        "experiments.store_busy_s": (sum(map(_duration, store)), "s"),
        "experiments.store_hit_ratio": (
            _ratio(trace["store_hits"], trace["store_gets"]), "fraction"),
        "trace.overhead": (traced["wall_s"] / plain["wall_s"], "ratio"),
    }
    not_taken = [layer for layer in layers if not calls[layer]]
    if not decode:
        not_taken.append("workloads.decode")
    if not store:
        not_taken.append("experiments.store")
    return metrics, not_taken


def traced_guard(workload: str, traced: dict, metrics: dict) -> list[str]:
    problems = []
    decode_threads = {s["thread"] for s in traced["trace"]["spans"]
                      if s["name"] == "decode"}
    if workload == "stream-capture" and not decode_threads - {"MainThread"}:
        problems.append("no chunk was decoded on the producer thread")
    required = {
        "grid-small": ("cache.calls", "core.calls", "network.calls"),
        "grid-paper": ("network.calls", "coherence.calls", "dram.calls"),
        "stream-capture": ("cache.calls", "network.calls"),
    }[workload]
    for name in required:
        if not metrics[name][0]:
            problems.append(f"{name} is 0: the layer this workload measures "
                            f"was not exercised")
    return problems


def traced_run(passes: Passes, expected: dict, profile: dict) -> tuple:
    plain = passes.run("plain")
    traced = passes.run("traced")
    attempted = failed = 0
    for result in (plain, traced, profile):
        n, bad, messages = check(result, expected)
        attempted += n
        failed += bad
        for message in messages:
            print(f"MISMATCH [{result['mode']}] {message}", file=sys.stderr)
    if traced["digests"] != plain["digests"]:
        failed += 1
        print("MISMATCH traced digests differ from the untraced pass", file=sys.stderr)
    problems = guard(passes.workload, plain) + guard(passes.workload, traced)
    metrics, not_taken = layer_metrics(plain, traced, profile)
    problems += traced_guard(passes.workload, traced, metrics)
    if problems:
        raise BenchError("; ".join(problems))
    spans_path = STATE / f"spans-{passes.workload}-seed{passes.seed}.ndjson"
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in traced["trace"]["spans"]:
            handle.write(json.dumps(span) + "\n")
    info = {"kernel": traced["kernel"], "not_taken": not_taken,
            "profile": profile["profile"], "spans": str(spans_path.relative_to(ROOT))}
    return metrics, attempted, failed, info


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def regen_digests(host: dict) -> None:
    table = {}
    for name, params in workloads.PARAMS.items():
        workdir = Path(tempfile.mkdtemp(prefix="regen-", dir=STATE / "tmp"))
        try:
            passes = Passes(name, workloads.DEFAULT_SEED, workdir, host,
                            time.monotonic() + 1800)
            if params["kind"] == "capture":
                passes.run("prepare")
            result = passes.run("reference")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if result["error"] is not None:
            raise BenchError(f"{name}: {result['error']}")
        table[name] = {"params": params, "seed": workloads.DEFAULT_SEED,
                       "kernel": "reference", "digests": result["digests"]}
        print(f"{name}: {len(result['digests'])} points", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main(argv: "list[str] | None" = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.PARAMS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help=f"repeat timed passes for this long (at least {MIN_PASSES})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-digests", action="store_true",
                        help=f"rewrite {DIGESTS.name} with the reference kernel")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    host = host_info()
    if args.regen_digests:
        regen_digests(host)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE / "tmp"))
    passes = Passes(args.workload, args.seed, workdir, host, started + BUDGET_S)
    try:
        if workloads.PARAMS[args.workload]["kind"] == "capture":
            passes.run("prepare")
        # The cProfile pass is not timed, so it may overlap the reference
        # pass; it ends before any timed pass starts.
        profiling = passes.start("profile") if args.trace else None
        expected = expected_digests(passes)
        if args.trace:
            metrics, attempted, failed, info = traced_run(
                passes, expected, passes.finish(profiling))
        else:
            metrics, attempted, failed, info = timed_run(passes, expected, args.seconds)
    except BenchError as error:
        print(f"perfbench {args.workload}: {error}", file=sys.stderr)
        return 3
    finally:
        passes.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with open(STATE / "runs.ndjson", "a", encoding="utf-8") as handle:
            for record in passes.records:
                handle.write(json.dumps(record) + "\n")

    summary = {"ts": time.time(), "workload": args.workload, "seed": args.seed,
               "trace": args.trace, "host": host, "attempted": attempted,
               "failed": failed, "error_rate": failed / attempted,
               "metrics": {k: v[0] for k, v in metrics.items()}, **info}
    with open(STATE / "runs.ndjson", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(summary) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<15} {name:<32} {value:>16.6g} {unit}")
    print(f"{args.workload:<15} {'error_rate':<32} {failed / attempted:>16.6g} fraction "
          f"({failed} of {attempted} points)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
