#!/usr/bin/env python3
"""Write reference.json: what every job of every workload must reproduce.

For each job: its exit code, its per-check verdicts and a digest of the
outputs that do not depend on the workload seed.  Record it from a commit
whose outputs are known good, from the repository root:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from worker import run_pass  # noqa: E402


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        work = BENCH / "_work" / "reference" / name
        jobs = workloads.build_jobs(name, work, seed=0)
        _, records = run_pass(jobs, workloads)
        for rec in records:
            if rec["error"]:
                print(f"{name} {rec['job']}: {rec['error']}", file=sys.stderr)
                return 1
        reference[name] = {r["job"]: {"rc": r["rc"], "verdicts": r["verdicts"],
                                      "digest": r["digest"]} for r in records}
        print(f"{name}: {len(records)} jobs, exit codes {sorted({r['rc'] for r in records})}")
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
