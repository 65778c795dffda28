"""One pass of one workload, in a process of its own.

``run.py`` starts this script once per pass and reads the JSON object it
prints as its last stdout line.  Modes:

* ``prepare``   - build the workload's on-disk inputs (not timed);
* ``setup``     - stop at the first ``simulate`` call (a set-up probe);
* ``plain``     - the untraced, timed pass (default kernel);
* ``traced``    - the same pass under the per-layer span/counter hooks;
* ``profile``   - the same pass under cProfile (main thread only);
* ``reference`` - the same pass on the ``reference`` kernel, for the
  expected digests of a seed whose digests are not committed.

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from pathlib import Path

import tracer as tracing
import workloads

MODES = ("prepare", "setup", "plain", "traced", "profile", "reference")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    if args.mode == "prepare":
        workloads.prepare(args.workload, args.seed, args.workdir)
        print(json.dumps({"mode": "prepare"}))
        return 0

    tracer = tracing.Tracer(
        full=args.mode == "traced",
        profile=args.mode == "profile",
        stop_at_first_sim=args.mode == "setup",
    )
    tracer.install()
    kernel = "reference" if args.mode == "reference" else None
    try:
        outcome = workloads.run(
            args.workload, args.seed, args.workdir, kernel, tracer,
            warm_pass=args.mode == "traced",
        )
    except tracing.SetupReached:
        print(json.dumps({"mode": "setup",
                          "setup_s": tracer.first_sim - args.t0}))
        return 0

    import numpy

    from repro.common.types import MissStatus

    result = {
        "mode": args.mode,
        "kernel": tracer.kernel,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "wall_s": outcome.wall_s,
        "segments": tracer.segments(),
        "setup_s": (tracer.first_sim - args.t0) if tracer.first_sim else None,
        "records": tracer.records,
        "sim_calls": tracer.sim_calls,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "error": outcome.error,
        "digests": {pid: workloads.stats_digest(stats)
                    for pid, stats in outcome.points.items()},
        "replica_hits": {pid: stats.miss_status[MissStatus.LLC_REPLICA_HIT]
                         for pid, stats in outcome.points.items()},
        "num_cores": outcome.num_cores,
        "streaming": any(getattr(t, "is_streaming", False) for t in outcome.traces),
        "producers": tracer.producers,
        "miss_status": tracer.miss_status,
        "invalidations": tracer.invalidations,
        "flits": tracer.flits,
    }
    if args.mode == "traced":
        result["trace"] = tracer.summary()
    if args.mode == "profile":
        result["profile"] = tracer.profile_shares()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
