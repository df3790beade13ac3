#!/usr/bin/env python3
"""Verify the whole family catalog at its canonical parameters.

Runs every applicable check on each family, prints a residual table, and
optionally writes per-family reports.

Usage:
  python scripts/run_catalog.py [--out reports/] [--seed 123] [--reconstruct]

Without ``--seed`` the probes are drawn with ``run_suite``'s default seed,
as the ``mongesol`` CLI draws them.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from mongesol import (
    FAMILY_TAGS,
    GridSpec,
    canonical_config,
    default_checks,
    make_family,
    run_suite,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="write report.json per family here")
    ap.add_argument("--seed", type=int, default=None, help="probe seed (default: run_suite's)")
    ap.add_argument("--reconstruct", action="store_true",
                    help="also rebuild the underlying potential (degrees <= 4)")
    args = ap.parse_args()

    header = f"{'family':24s} {'checks':>7s} {'worst residual':>15s} {'time':>7s}  status"
    print(header)
    print("-" * len(header))
    all_ok = True
    for tag in FAMILY_TAGS:
        bundle = make_family(canonical_config(tag))
        grid = GridSpec.for_bundle(bundle)
        checks = default_checks(bundle)
        if args.reconstruct and bundle.n <= 4:
            checks = checks + ["reconstruct"]
        t0 = time.time()
        seed = {} if args.seed is None else {"seed": args.seed}
        report = run_suite(bundle, grid, checks, **seed)
        dt = time.time() - t0
        worst = max((r.max_abs / r.tolerance for r in report.checks.values()), default=0.0)
        status = "ok" if report.passed else "FAIL " + ",".join(
            name for name, r in report.checks.items() if not r.passed)
        print(f"{tag:24s} {len(report.checks):>7d} {worst:>15.3e} {dt:>6.2f}s  {status}")
        all_ok &= report.passed
        if args.out:
            out = Path(args.out) / tag
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.json").write_text(
                json.dumps(report.to_json_dict(), indent=2, allow_nan=False) + "\n")
    print("-" * len(header))
    print("catalog:", "all checks passed" if all_ok else "FAILURES above")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
