"""Workload definitions: the job list of each workload, how a job runs, and
how its outputs are read back.

A job goes through one of mongesol's public entry points: ``mongesol.cli.main``
in-process (construct / verify / sweep) or ``hodograph.assemble_r_integral``.
``score`` turns what a job left behind into per-check verdicts, headroom
(``max_abs / tolerance``) and a digest of the outputs that do not depend on
the workload seed; ``run.py`` compares those with ``reference.json``.

Import this module only with ``src`` on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mongesol import FAMILY_TAGS, canonical_config, default_checks, family_to_dict, make_family
from mongesol import cli, hodograph

# Checks whose residuals depend on the probe seed; their rows stay out of the digest.
PROBE_CHECKS = ("eq5", "eq10")

# Sweep parameter and its five values for every family that has a numeric parameter.
# m3_general avoids g = -1.625: at 21x21 it fails wf_quadrature (see NOTES.md).
SWEEPS = {
    "m1_implicit": ("seed_lambda", (1.0, 1.1, 1.2, 1.3, 1.4)),
    "degenerate": ("seed_a", (1.5, 1.75, 2.0, 2.25, 2.5)),
    "m3_sigma_const": ("A", (0.5, 0.875, 1.25, 1.625, 2.0)),
    "m3_l1_const": ("D", (0.5, 0.875, 1.25, 1.625, 2.0)),
    "m3_theta_const": ("E", (0.5, 0.875, 1.25, 1.625, 2.0)),
    "m3_hodograph_example": ("beta", (1.5, 1.875, 2.25, 2.625, 3.0)),
    "m3_general": ("g", (-0.5, -1.0, -1.25, -1.5, -2.0)),
    "m3_general_e0": ("a", (0.5, 0.875, 1.25, 1.625, 2.0)),
    "mn_theta_const": ("E", (0.5, 0.875, 1.25, 1.625, 2.0)),
}

# Pass limits of mode_superposition (and of any assemble_r_integral job).
MODE_LIMITS = {"residual_max": 1e-8, "node_doubling_change": 1e-6, "wronskian_drift": 1e-8}

# Planned seconds per pass, near what a pass takes on a 2-core x86-64 box
# (numpy 2.4, one BLAS thread).  The pass count of a run is derived from these
# and --seconds only, so the parent commit and a change time the same job
# list.  At --seconds 35 they give 4, 18 and 7 passes; at those counts the
# 11th-slowest job (job_tail_s) lies inside the slowest job kind's spread
# rather than at its minimum or maximum.
NOMINAL_PASS_S = {"verify_81": 7.5, "sweep_21": 1.9, "mode_superposition": 4.5}

WORKLOADS = tuple(NOMINAL_PASS_S)


def passes_for(workload: str, seconds: float) -> int:
    return max(2, int(seconds // NOMINAL_PASS_S[workload]))


@dataclass(frozen=True)
class Job:
    id: str
    kind: str                  # construct | verify | sweep | mode
    argv: tuple = ()           # cli.main arguments
    out: str = ""              # output directory of a cli job
    call: dict = field(default_factory=dict)  # assemble_r_integral arguments


class JobOutputError(Exception):
    """A job's output is missing or cannot be parsed."""


def _write_config(path: Path, family: dict, n: int, checks=None) -> str:
    cfg = {"family": family, "grid": {"nx": n, "nz": n}}
    if checks is not None:
        cfg["checks"] = checks
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return str(path)


def build_jobs(workload: str, work: Path, seed: int) -> list[Job]:
    """Job list of one pass; writes the configs the cli jobs read."""
    seed_arg = ("--seed", str(seed))
    jobs = []
    if workload == "verify_81":
        for tag in FAMILY_TAGS:
            cfg = canonical_config(tag)
            bundle = make_family(cfg)
            checks = default_checks(bundle) + (["reconstruct"] if bundle.n <= 4 else [])
            path = _write_config(work / "configs" / f"{tag}.json", family_to_dict(cfg), 81, checks)
            for cmd in ("construct", "verify"):
                out = str(work / "out" / tag / cmd)
                jobs.append(Job(f"{cmd}:{tag}", cmd,
                                (cmd, "--config", path, "--out", out) + seed_arg, out))
    elif workload == "sweep_21":
        for tag, (param, values) in SWEEPS.items():
            path = _write_config(work / "configs" / f"{tag}.json",
                                 family_to_dict(canonical_config(tag)), 21)
            out = str(work / "out" / tag)
            # "--values=..." because argparse reads "--values -0.5,..." as an option
            vals = "--values=" + ",".join(repr(float(v)) for v in values)
            jobs.append(Job(f"sweep:{tag}", "sweep",
                            ("sweep", "--config", path, "--param", param, vals, "--out", out)
                            + seed_arg, out))
    elif workload == "mode_superposition":
        # assemble_r_integral takes no seed, and its residuals sit at roundoff,
        # where any seeded input change would move worst_headroom: fixed inputs
        jobs.append(Job("mode:trapezoid", "mode", call=dict(
            f1=_gauss, f2=_zero, k_nodes=[float(k) for k in np.linspace(0.0, 2.0, 13)],
            w_c_profile=_flat, nb=15, steps=1000, mode="trapezoid")))
        jobs.append(Job("mode:sum", "mode", call=dict(
            f1=_one, f2=_three_tenths, k_nodes=[0.5, 1.0, 1.5, 2.0],
            w_c_profile=_linear, nb=21, steps=2000, mode="sum")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def _gauss(k):
    return float(np.exp(-18.0 * (k - 1.0) ** 2))


def _zero(k):
    return 0.0


def _one(k):
    return 1.0


def _three_tenths(k):
    return 0.3


def _flat(c):
    return np.ones_like(np.asarray(c, dtype=float))


def _linear(c):
    return 1.0 + 0.5 * np.asarray(c, dtype=float)


def _assemble(call: dict):
    # looked up at call time so a traced run sees the wrapped function
    return hodograph.assemble_r_integral(b_range=(0.0, 1.0), c_range=(0.0, 1.0), **call)


def run(job: Job):
    """Run one job; returns (exit code, in-memory result or None)."""
    if job.kind == "mode":
        return 0, _assemble(job.call)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(list(job.argv)), None
        except SystemExit as exc:  # argparse usage errors
            return (exc.code if isinstance(exc.code, int) else 2), None


def _headroom(max_abs: float, tol: float) -> float:
    return max_abs / tol if math.isfinite(max_abs) else math.inf


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _read_csv(path: Path) -> list[list[str]]:
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise JobOutputError(f"{path.name}: {exc}") from None
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        raise JobOutputError(f"{path.name}: empty or ragged")
    return rows


def _floats(cells) -> list[float]:
    try:
        return [float(c) for c in cells]
    except ValueError as exc:
        raise JobOutputError(str(exc)) from None


def score(job: Job, result) -> dict:
    """Verdicts, headroom, seed-independent digest and bytes written.

    Raises JobOutputError when a cli job's output is missing or unparseable.
    """
    if job.kind == "mode":
        vals = {"residual_max": result.residual_max, "wronskian_drift": result.wronskian_drift}
        if result.node_doubling_change is not None:
            vals["node_doubling_change"] = result.node_doubling_change
        return {
            "verdicts": {k: bool(v <= MODE_LIMITS[k]) for k, v in vals.items()},
            "headroom": {f"mode.{k}": _headroom(v, MODE_LIMITS[k]) for k, v in vals.items()},
            "digest": hashlib.sha256(result.r_values.tobytes()).hexdigest()[:16],
            "bytes": 0,
        }
    out = Path(job.out)
    written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
    if job.kind == "construct":
        rows = _read_csv(out / "fields.csv")
        if rows[0][:2] != ["x", "z"]:
            raise JobOutputError("fields.csv: header does not start with x,z")
        for r in rows[1:]:
            _floats(r)
        raw = (out / "fields.csv").read_bytes()
        return {"verdicts": {}, "headroom": {},
                "digest": hashlib.sha256(raw).hexdigest()[:16], "bytes": written}
    if job.kind == "verify":
        try:
            checks = json.loads((out / "report.json").read_text())["checks"]
            verdicts = {k: bool(c["passed"]) for k, c in checks.items()}
            headroom = {k: _headroom(float(c["max_abs"]), float(c["tolerance"]))
                        for k, c in checks.items()}
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise JobOutputError(f"report.json: {exc!r}") from None
        if len(_read_csv(out / "report.csv")) != len(checks) + 1:
            raise JobOutputError("report.csv and report.json disagree")
        return {
            "verdicts": verdicts,
            "headroom": headroom,
            "digest": _digest({k: c for k, c in checks.items() if k not in PROBE_CHECKS}),
            "bytes": written,
        }
    rows = _read_csv(out / "sweep.csv")
    if rows[0] != ["value", "check", "max_abs", "mean_abs", "tolerance", "passed"]:
        raise JobOutputError(f"sweep.csv: unexpected header {rows[0]}")
    verdicts, headroom, stable = {}, {}, []
    for value, check, max_abs, mean_abs, tol, passed in rows[1:]:
        max_abs_f, _, tol_f = _floats((max_abs, mean_abs, tol))
        verdicts[f"{value}:{check}"] = passed == "true"
        headroom[check] = max(headroom.get(check, 0.0), _headroom(max_abs_f, tol_f))
        if check not in PROBE_CHECKS:
            stable.append([value, check, max_abs, mean_abs, tol, passed])
    return {"verdicts": verdicts, "headroom": headroom, "digest": _digest(stable),
            "bytes": written}


def warm_up(workload: str, work: Path) -> None:
    """One small job through the same entry point, so pass 1 starts warm."""
    if workload == "mode_superposition":
        _assemble(dict(f1=_one, f2=_zero, k_nodes=[1.0], w_c_profile=_flat,
                       nb=5, steps=100, mode="sum"))
        return
    path = _write_config(work / "configs" / "warmup.json",
                         family_to_dict(canonical_config("m3_sigma_const")), 11)
    run(Job("warmup", "verify", ("verify", "--config", path, "--out", str(work / "warmup"))))
