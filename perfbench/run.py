#!/usr/bin/env python3
"""mongesol benchmark: one workload, one seed, every metric by name and unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_81 --seed 1 --seconds 30 --trace 0

A single closed-loop client runs the workload's job list in whole passes, in
a fresh interpreter that imports mongesol from ``src``.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs half the passes untraced and half
with spans recorded around each layer and prints the per-layer metrics.
Every job is scored against ``reference.json``; the last stdout line is the
result object.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
SETUP_SAMPLES = 5          # fresh interpreters timed for setup_s (median)
DEADLINE_S = 170.0         # the whole run, children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# span name -> what its amount counts (None: calls and seconds only)
SPAN_METRICS = {
    "families.fields_fn": "points",
    "families.derivative_forms": "points",
    "families.make_family": None,
    "families.mask": "points",
    "families.require": None,
    "families.w_of_f": None,
    "jets.mul": "coeff_elems",
    "jets.recip": None,
    "jets.compose_series": None,
    "functional_eq.residual": None,
    "functional_eq.resolve": None,
    "hodograph.solve_implicit": "points",
    "hodograph.implicit_jet": None,
    "hodograph.schrodinger_solve": "mode_steps",
    "hodograph.assemble_r_integral": None,
}
CHECK_SPANS = ("compat", "dependence", "wf", "eq", "reconstruct")
HEADROOM_CHECKS = ("compat", "dependence", "wf", "wf_quadrature", "eq5", "eq10", "reconstruct")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:  # one BLAS/OpenMP thread: at most nproc, and steadier
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every run
    return env


def _spawn(args, work: Path, tag: str, deadline: float, setup_only: bool) -> dict:
    result = work / f"worker-{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {tag} exceeded the {DEADLINE_S:.0f} s deadline") from None
    if rc != 0:
        raise BenchError(f"worker {tag} exited with code {rc}")
    return json.loads(result.read_text())


def judge(rec: dict, ref: dict | None) -> str | None:
    """Why a job failed against its reference entry, or None if it passed."""
    if ref is None:
        return "no reference entry"
    if rec.get("error"):
        return rec["error"]
    if rec["rc"] != ref["rc"]:
        return f"exit code {rec['rc']}, reference {ref['rc']}"
    if rec["verdicts"] != ref["verdicts"]:
        diff = sorted(k for k in set(rec["verdicts"]) | set(ref["verdicts"])
                      if rec["verdicts"].get(k) != ref["verdicts"].get(k))
        return f"verdicts differ from reference: {', '.join(diff)}"
    if rec["job"].startswith("mode:") and not all(rec["verdicts"].values()):
        return "mode superposition over its limits"
    return None


def tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least 10 samples above it, and the
    share of samples at or below it in percent."""
    ordered = sorted(values, reverse=True)
    if len(ordered) <= 10:
        return ordered[-1], 100.0 / len(ordered)
    return ordered[10], 100.0 * (len(ordered) - 10) / len(ordered)


def _finite(v: float) -> float:
    return v if math.isfinite(v) else 1e300  # the result line must stay strict JSON


def end_to_end(res: dict, setups: list[float], reference: dict, lines: list[str]):
    records = res["records"]
    durations = [r["seconds"] for r in records]
    failures, digest_mismatch = [], 0
    worst, worst_at = 0.0, "-"
    for rec in records:
        ref = reference.get(rec["job"])
        why = judge(rec, ref)
        if why:
            failures.append(f"{rec['job']} (pass {rec['pass']}): {why}")
            continue
        if ref["digest"] is not None and rec["digest"] != ref["digest"]:
            digest_mismatch += 1
        for check, h in rec["headroom"].items():
            if h > worst:
                worst, worst_at = h, f"{rec['job']} {check}"
    n = len(records)
    tail_v, tail_pct = tail(durations)
    by_pass = {}
    for rec in records:
        by_pass.setdefault(rec["pass"], []).append(rec["seconds"])
    # median over passes of each pass's median job: the job mix is fixed, and on a
    # two-job mix the pooled median would jump between the two kinds' extremes
    p50 = statistics.median(statistics.median(v) for v in by_pass.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(res["walls"]), "s"),
        "job_p50_s": (p50, "s"),
        "job_tail_s": (tail_v, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_frac": ((n - len(failures)) / n, "ratio"),
        "worst_headroom": (_finite(worst), "ratio"),
    }
    lines += [
        f"setup_s         {metrics['setup_s'][0]:.4f} s   median of {len(setups)} fresh interpreters",
        f"wall_s          {metrics['wall_s'][0]:.4f} s   median of {res['passes']} passes",
        f"job_p50_s       {p50:.4f} s   median over passes of the median of {n // res['passes']} jobs",
        f"job_tail_s      {tail_v:.4f} s   p{tail_pct:.1f}: {min(10, n - 1)} of {n} jobs above it",
        f"peak_rss_mb     {metrics['peak_rss_mb'][0]:.1f} MB  ru_maxrss of the measuring process",
        f"ok_frac         {metrics['ok_frac'][0]:.4f}     fail_frac {len(failures) / n:.4f}"
        f" = {len(failures)} failed / {n} attempted",
        f"worst_headroom  {worst:.4g}     max_abs / tolerance at {worst_at}",
        f"output digests differing from reference: {digest_mismatch}",
    ] + [f"FAILED {f}" for f in failures]
    return metrics, n, len(failures)


def per_layer(res: dict, lines: list[str]):
    passes = len(res["traced_walls"])
    spans = res["spans"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0) / passes

    metrics = {}
    for name, amount in SPAN_METRICS.items():
        metrics[f"{name}.calls"] = (get(name, "calls"), "count")
        if amount:
            unit = "count_computed" if amount == "coeff_elems" else "count"
            metrics[f"{name}.{amount}"] = (get(name, "amount"), unit)
        metrics[f"{name}.s"] = (get(name, "s"), "s")
    admitted = res["admitted_points"] / passes
    points = get("families.fields_fn", "amount")
    metrics["families.fields_fn.admitted_points"] = (admitted, "count")
    metrics["families.fields_fn.reuse_ratio"] = (admitted / points if points else 0.0, "ratio")
    for check in CHECK_SPANS:
        metrics[f"verifier.{check}.s"] = (get(f"verifier.{check}", "s"), "s")
    metrics["verifier.run_suite.calls"] = (get("verifier.run_suite", "calls"), "count")
    metrics["verifier.run_suite.self_s"] = (get("verifier.run_suite", "self_s"), "s")
    metrics["verifier.admissible_grid.calls"] = (get("verifier.admissible_grid", "calls"), "count")
    records = res["records"] + res["traced_records"]
    for check in HEADROOM_CHECKS:
        h = max((r.get("headroom", {}).get(check, 0.0) for r in records), default=0.0)
        metrics[f"verifier.{check}.headroom"] = (_finite(h), "ratio")
    metrics["cli.self_s"] = (get("cli.cmd", "self_s"), "s")
    metrics["cli.bytes_written"] = (sum(r.get("bytes", 0) for r in res["traced_records"]) / passes,
                                    "bytes")
    traced, plain = statistics.median(res["traced_walls"]), statistics.median(res["walls"])
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (plain, "s")
    metrics["trace.overhead_s"] = (traced - plain, "s")
    lines.append(f"per pass, over {passes} traced passes ({res['span_count']} spans;"
                 f" reuse_ratio base: {admitted:.0f} admitted / {points:.0f} evaluated points)")
    lines += [f"{k:44s} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    if res["leftover_wrappers"]:
        raise BenchError(f"wrappers left in place: {res['leftover_wrappers']}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mongesol" / "__init__.py").is_file():
        print(f"no mongesol sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    if args.workload not in reference:
        print(f"unknown workload {args.workload!r}; known: {sorted(reference)}", file=sys.stderr)
        return 2

    work = BENCH / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    lines = []
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(args, work, f"setup{i}", deadline, True)["setup_s"])
        res = _spawn(args, work, "run", deadline, False)
        setups.append(res["setup_s"])
        env = res["env"]
        lines.append("environment " + json.dumps(
            {**env, "passes": res["passes"], "traced_passes": len(res.get("traced_walls", [])),
             "closed_loop_clients": 1}))
        if args.trace:
            metrics = per_layer(res, lines)
            # every pass is scored: a wrapper must not change any output
            scored = dict(res, records=res["records"] + res["traced_records"])
            _, attempted, failed = end_to_end(scored, setups, reference[args.workload], [])
        else:
            metrics, attempted, failed = end_to_end(res, setups, reference[args.workload], lines)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    (work / "result.json").write_text(json.dumps(
        {"args": vars(args), "env": env, "passes": res["passes"], "setups": setups,
         "records": res["records"], "metrics": metrics}, indent=1))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
