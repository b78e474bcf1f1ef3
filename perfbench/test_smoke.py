"""Smoke test of the benchmark: one timed job per workload, in both modes.

    python3 -m pytest perfbench/test_smoke.py

Each run must end with the contract's result line, carry every metric that
BENCHMARK.json names for its mode with the same unit, and print each of them
with its unit in the readable report above that line.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd, script, workload, trace, jobs=1):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--jobs", str(jobs)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_job_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, RUN, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    printed = {tuple(line.split()[::2]) for line in lines[:-1]
               if len(line.split()) == 3}
    for name, unit in expected.items():
        assert (name, unit) in printed, name


def test_refuses_without_package_source(tmp_path):
    """With only BENCHMARK.json and the benchmark's files there is no
    program to measure: exit nonzero and print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, os.path.join("perfbench", "run.py"),
                     SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_outcomes_and_percentiles_count_each_distinct_job_once():
    """Repeated runs of a job weigh no more than one run, and a job failed
    if any of its runs failed, so the counts do not depend on how many runs
    fit in the time."""
    import run
    run.import_package()
    from workloads import Outcome

    tally = run.Tally(3)
    # job 0 runs three times, job 1 twice (failing once), job 2 once
    for i, seconds, ok in [(0, 1.0, True), (3, 1.0, True), (6, 1.0, True),
                           (1, 2.0, True), (4, 2.0, False), (2, 3.0, True)]:
        tally.add(i, seconds, Outcome(ok))
    assert run.outcome_counts(tally)[:2] == (3, 1)
    assert tally.percentile(tally.times, 50) == 2.0
    assert tally.pass_s(tally.times) == 6.0
