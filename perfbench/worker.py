"""One fresh interpreter: set up a workload, then run whole passes of its job list.

Started by run.py, never by hand.  ``--t0`` is the parent's monotonic clock
reading taken just before the spawn, so set-up time covers interpreter start,
imports, config generation and warm-up.  Results go to ``--result`` as JSON.

With ``--trace 1`` the first half of the passes runs untraced and the second
half with tracing installed; every original is restored afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import time
from pathlib import Path


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def run_pass(jobs, workloads, tracer=None):
    """Run every job once, closed loop; then read back their outputs."""
    for job in jobs:  # a job must not be scored on an earlier pass's files
        if job.out:
            shutil.rmtree(job.out, ignore_errors=True)
    timed = []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        t = time.perf_counter()
        try:
            rc, result = workloads.run(job)
            error = None
        except Exception as exc:  # a raising job is scored as failed
            rc, result, error = None, None, f"{type(exc).__name__}: {exc}"
        timed.append((job, time.perf_counter() - t, rc, result, error))
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.job = None
    records = []
    for job, seconds, rc, result, error in timed:
        rec = {"job": job.id, "seconds": seconds, "rc": rc, "error": error}
        if error is None:
            try:
                rec.update(workloads.score(job, result))
            except workloads.JobOutputError as exc:
                rec["error"] = f"output: {exc}"
        records.append(rec)
    return wall, records


def _passes(jobs, workloads, numbers, tracer=None):
    walls, records = [], []
    for p in numbers:
        wall, recs = run_pass(jobs, workloads, tracer)
        walls.append(wall)
        records += [{**r, "pass": p} for r in recs]
    return walls, records


def main(argv=None) -> int:
    args = _args(argv)
    import numpy as np
    import workloads
    import tracing

    work = Path(args.work)
    jobs = workloads.build_jobs(args.workload, work, args.seed)
    workloads.warm_up(args.workload, work)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if not args.setup_only:
        leftover = tracing.installed()
        if leftover:
            raise RuntimeError(f"wrappers in place before the run: {leftover}")
        passes = workloads.passes_for(args.workload, args.seconds)
        plain = passes if not args.trace else max(1, passes // 2)
        walls, records = _passes(jobs, workloads, range(plain))
        if tracing.installed():
            raise RuntimeError(f"wrappers in place during an untraced pass: {tracing.installed()}")
        out.update(passes=plain, walls=walls, records=records)
        if args.trace:
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            try:
                traced_walls, traced_records = _passes(jobs, workloads,
                                                       range(plain, 2 * plain), tracer)
            finally:
                tracing.restore(patches)
            tracer.dump(work / "spans.jsonl")
            out.update(traced_walls=traced_walls, traced_records=traced_records,
                       spans=tracer.summary(), admitted_points=sum(tracer.admitted.values()),
                       span_count=len(tracer.spans), leftover_wrappers=tracing.installed())
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")},
        "seed": args.seed,
        "workload": args.workload,
        "jobs": [j.id for j in jobs],
    }
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
