#!/usr/bin/env python3
"""Digest every CLI output of a fixed job matrix, to compare two commits byte for byte.

Prints one ``job exit sha256`` line per job.  The digest covers the job's
stdout, its stderr and the name and bytes of every file it wrote
(``fields.csv``, ``report.json``, ``report.csv``, ``sweep.csv``).  The jobs:

- construct and verify (default checks plus reconstruct) of every family at
  21x21 and 81x81;
- verify at 21x21 with each mutation slot scaled by 1.1;
- one five-value sweep per family with a numeric parameter, at 21x21: the
  parameters and values of the ``sweep_21`` benchmark workload (``SWEEPS``
  of ``perfbench/workloads.py``);
- a reconstruct-only verify per family on the grid of spacing 0.01 over its
  rectangle (``nx = round(span / 0.01) + 1``, 101x41 to 201x161).  These
  ``reconstruct:<tag>:h0.01`` jobs stand where the ``fd_h:<tag>`` jobs of
  the former ``grid.fd_h`` step stood, and report the same ``checks``;
- construct and verify of a ``trivial`` family with complex fields;
- verify of every family at 81x81 with its default checks, which read no
  second partial;
- construct and verify (default checks plus reconstruct) of ``m3_general``
  at ``g = 1``, 21x21: the complex branch ``h = i*sqrt(g)``, which the
  canonical ``g = -1`` never takes;
- construct and verify (default checks, plus reconstruct where n <= 4) of
  each constant-slope family at a second config (``OFF_CANONICAL``), 21x21:
  other slopes and amplitudes, the (x0, z0) translation of nonzero phase
  offsets, and degree 5, which no canonical config reaches.

The last three groups were appended after the jobs above them, so earlier
lines keep their content and order.

The jobs keep the ``:m2`` suffix of their names from when the matrix also
ran at jet order 4, so lines stay comparable across commits.

After the CLI jobs come the mode solver's lines, which print ``-`` in the
exit column: the bytes of ``r_values`` from the two ``assemble_r_integral``
calls of the ``mode_superposition`` benchmark workload, and of ``w1`` and
``w2`` from one ``schrodinger_solve`` over a 2-D array of nodes, with that
workload's linear profile.  Both tables are imported from
``perfbench/workloads.py`` (read only), so the script and the benchmark run
the same sweeps and mode calls.

That makes 114 lines: 110 CLI jobs and four mode-solver arrays.  Nothing
is compared here: run it on each commit and diff the two outputs.  CI runs
it under two ``PYTHONHASHSEED`` values and under glibc's default malloc
thresholds, and diffs those.

Usage:
  python scripts/output_digests.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from mongesol import (FAMILY_TAGS, GeneralNuConfig, canonical_config, default_checks,
                      family_from_dict, family_to_dict, make_family)
from mongesol import hodograph
from mongesol.cli import main as cli_main

# the benchmark's job tables, read from its one copy
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import SWEEPS, build_jobs  # noqa: E402

MODE_CALLS = {job.id: job.call for job in build_jobs("mode_superposition", None, 0)}

# quartics along the cube roots of unity 1 and exp(2 pi i / 3): complex chain fields
COMPLEX_TRIVIAL = {"family": "trivial", "n": 3, "terms": [
    [1.0, [0, 0, 0, 0, 1.0]], [[-0.5, 0.8660254037844386], [0, 0, 0, 0, 1.0]]]}


# a second config of each constant-slope family, off the canonical nu = (1, 2)
OFF_CANONICAL = (
    {"family": "m3_sigma_const", "nu": [1.2, 2.5], "A": 1.3, "k": 0.8, "d1": 0.15, "d2": -0.1},
    {"family": "m3_l1_const", "nu": [0.9, 1.7], "D": 1.2, "k": 1.1},
    {"family": "m3_theta_const", "nu": [1.3, 2.2], "E": 0.8, "k": 1.2},
    {"family": "mn_theta_const", "n": 5, "nu": [1.1, 1.9], "E": 1.3, "k": 0.07, "c": 0.8,
     "cbar": 1.2},
)


def jobs():
    """(job name, config object, extra CLI arguments after ``--config``)."""
    for tag in FAMILY_TAGS:
        bundle = make_family(canonical_config(tag))
        family = family_to_dict(bundle.config)
        checks = default_checks(bundle) + (["reconstruct"] if bundle.n <= 4 else [])
        for n in (21, 81):
            cfg = {"family": family, "grid": {"nx": n, "nz": n}, "checks": checks}
            for cmd in ("construct", "verify"):
                yield f"{cmd}:{tag}:{n}:m2", cfg, (cmd,)
        base = {"family": family, "grid": {"nx": 21, "nz": 21}}
        for slot in bundle.mutation_slots:
            yield f"mutate:{tag}:{slot}", base, ("verify", "--mutate", f"{slot}=1.1")
        if tag in SWEEPS:
            param, values = SWEEPS[tag]
            yield f"sweep:{tag}", base, ("sweep", "--param", param,
                                         "--values=" + ",".join(map(repr, values)))
        x_lo, x_hi, z_lo, z_hi = bundle.domain.rect
        fine = {"nx": round((x_hi - x_lo) / 0.01) + 1, "nz": round((z_hi - z_lo) / 0.01) + 1}
        yield f"reconstruct:{tag}:h0.01", {"family": family, "grid": fine,
                                           "checks": ["reconstruct"]}, ("verify",)
    cfg = {"family": COMPLEX_TRIVIAL, "grid": {"nx": 21, "nz": 21}}
    for cmd in ("construct", "verify"):
        yield f"{cmd}:trivial_complex:m2", cfg, (cmd,)
    for tag in FAMILY_TAGS:
        family = family_to_dict(canonical_config(tag))
        yield f"verify:{tag}:81:default", {"family": family, "grid": {"nx": 81, "nz": 81}}, ("verify",)
    bundle = make_family(GeneralNuConfig(g=1.0))
    cfg = {"family": family_to_dict(bundle.config), "grid": {"nx": 21, "nz": 21},
           "checks": default_checks(bundle) + ["reconstruct"]}
    for cmd in ("construct", "verify"):
        yield f"{cmd}:m3_general_g1:21", cfg, (cmd,)
    for family in OFF_CANONICAL:
        bundle = make_family(family_from_dict(family))
        checks = default_checks(bundle) + (["reconstruct"] if bundle.n <= 4 else [])
        cfg = {"family": family, "grid": {"nx": 21, "nz": 21}, "checks": checks}
        for cmd in ("construct", "verify"):
            yield f"{cmd}:{bundle.family}:off_canonical:21", cfg, (cmd,)


def run_job(name: str, config: dict, args: tuple) -> tuple[int, str]:
    """Run one job in the current directory; its exit code and output digest."""
    work = Path(name.replace(":", "_"))
    work.mkdir()
    (work / "config.json").write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    argv = [args[0], "--config", str(work / "config.json"), "--out", str(work / "out"),
            *args[1:]]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    digest = hashlib.sha256()
    for text in (out.getvalue(), err.getvalue()):
        digest.update(text.encode() + b"\0")
    for path in sorted((work / "out").glob("*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return code, digest.hexdigest()


def mode_digests():
    """(name, sha256 of the array bytes) of the mode solver's outputs."""
    for name, call in MODE_CALLS.items():
        res = hodograph.assemble_r_integral(b_range=(0.0, 1.0), c_range=(0.0, 1.0), **call)
        yield f"{name}:r_values", hashlib.sha256(res.r_values.tobytes()).hexdigest()
    ks = np.array([[0.0, 0.5, 1.0], [1.5, 2.0, 3.0]])
    linear = MODE_CALLS["mode:sum"]["w_c_profile"]
    sol = hodograph.schrodinger_solve(linear, ks, (0.0, 1.0), steps=400)
    for attr in ("w1", "w2"):
        yield f"schrodinger:2d:{attr}", hashlib.sha256(getattr(sol, attr).tobytes()).hexdigest()


def main() -> int:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative output paths, so stdout does not name the temporary directory
        try:
            for name, config, cli_args in jobs():
                code, digest = run_job(name, config, cli_args)
                print(f"{name} {code} {digest}", flush=True)
        finally:
            os.chdir(start)
    for name, digest in mode_digests():
        print(f"{name} - {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
