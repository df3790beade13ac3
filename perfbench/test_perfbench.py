"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
for p in (BENCH, BENCH.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text())


def _jobs(tmp_path, workload, ids, seed=3):
    jobs = {j.id: j for j in workloads.build_jobs(workload, tmp_path, seed)}
    return [jobs[i] for i in ids]


def test_reference_covers_every_job(tmp_path):
    for name in workloads.WORKLOADS:
        ids = {j.id for j in workloads.build_jobs(name, tmp_path / name, seed=5)}
        assert ids == set(REFERENCE[name])


def test_install_and_restore_leave_no_wrapper():
    originals = {(o, a): tracing._current(o, a) for o, a, _, _ in tracing._targets()}
    assert tracing.installed() == []
    patches = tracing.install(tracing.Tracer())
    try:
        assert len(tracing.installed()) == len(originals)
    finally:
        tracing.restore(patches)
    assert tracing.installed() == []
    for (owner, attr), fn in originals.items():
        assert tracing._current(owner, attr) is fn
    # __rmul__ is its own class attribute; it must be restored to the shared original
    assert tracing.Jet2.__dict__["__rmul__"] is tracing.Jet2.__dict__["__mul__"]


def test_untraced_pass_runs_without_wrappers(tmp_path, monkeypatch):
    seen = []
    real_run = workloads.run

    def spy(job):
        seen.append(tracing.installed())
        return real_run(job)

    monkeypatch.setattr(workloads, "run", spy)
    _, records = run_pass(_jobs(tmp_path, "sweep_21", ["sweep:mn_theta_const"]), workloads)
    assert seen == [[]]
    assert records[0]["error"] is None


def test_mutated_verify_is_scored_as_a_failure(tmp_path):
    ref = REFERENCE["verify_81"]["verify:m3_theta_const"]
    (job,) = _jobs(tmp_path, "verify_81", ["verify:m3_theta_const"])
    _, (good,) = run_pass([job], workloads)
    assert run.judge({**good}, ref) is None
    mutated = workloads.Job(job.id, job.kind, job.argv + ("--mutate", "theta=1.1"), job.out)
    _, (bad,) = run_pass([mutated], workloads)
    assert bad["rc"] == 1
    assert run.judge(bad, ref) is not None


def test_missing_output_is_scored_as_a_failure(tmp_path):
    (job,) = _jobs(tmp_path, "verify_81", ["construct:trivial"])
    ref = REFERENCE["verify_81"][job.id]
    with pytest.raises(workloads.JobOutputError):
        workloads.score(job, None)
    rec = {"job": job.id, "rc": 0, "error": "output: fields.csv missing"}
    assert run.judge(rec, ref) is not None


def test_mode_limits_fail_a_job_even_if_the_reference_did():
    ref = {"rc": 0, "verdicts": {"residual_max": False, "wronskian_drift": True}, "digest": None}
    rec = {"job": "mode:sum", "rc": 0, "error": None, "verdicts": dict(ref["verdicts"])}
    assert run.judge(rec, ref) == "mode superposition over its limits"


def _traced_counts(tmp_path, ids):
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        _, records = run_pass(_jobs(tmp_path, "verify_81", ids), workloads, tracer)
    finally:
        tracing.restore(patches)
    counts = {name: (row["calls"], row["amount"]) for name, row in tracer.summary().items()}
    return counts, sum(tracer.admitted.values()), [(r["digest"], r["bytes"]) for r in records]


def test_traced_counts_repeat_and_outputs_match_untraced(tmp_path):
    ids = ["construct:m1_implicit", "verify:m3_sigma_const"]
    first = _traced_counts(tmp_path / "a", ids)
    second = _traced_counts(tmp_path / "b", ids)
    assert first == second
    counts = first[0]
    assert counts["families.fields_fn"][0] > 0 and counts["jets.mul"][1] > 0
    assert "hodograph.schrodinger_solve" not in counts
    _, plain = run_pass(_jobs(tmp_path / "c", "verify_81", ids), workloads)
    assert [r["digest"] for r in plain] == [d for d, _ in first[2]]


def test_self_time_subtracts_child_coverage():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    rows = tracer.summary()
    assert rows["outer"]["self_s"] == pytest.approx(rows["outer"]["s"] - rows["inner"]["s"])


def test_tail_keeps_ten_samples_above():
    values = [float(i) for i in range(1, 41)]
    value, pct = run.tail(values)
    assert value == 30.0 and sum(v > value for v in values) == 10 and pct == 75.0
