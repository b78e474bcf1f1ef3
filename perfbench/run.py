"""Benchmark runner: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload verify-newton --seed 0 --seconds 30 --trace 0

Each job is an in-process call to ``bethe_forge.cli.main([... , "--json"])``
with stdout captured, parsed and checked.  Jobs run back to back: the next
starts when the previous one returns.  The loop runs for ``--seconds`` and
always completes at least one pass over the workload's job list, so the
completeness figures cover every distinct job.

``--trace 0`` prints the end-to-end metrics, with times in reference
seconds: each job run is scaled by a fixed reference kernel timed next to
it, which takes out the host's drifting speed (see calibrate.py).  Set-up
time is the median of three cold starts, each a fresh interpreter that
imports the package, generates the inputs and runs one warm-up job.
Outcomes count once per distinct job, so ``attempted`` and ``failed``
repeat exactly for a seed.  ``--trace 1`` runs each job
twice in a row, once plain and once under the span tracer (alternating which
goes first), and prints the per-layer metrics; the pair gives the tracing
overhead.  The last stdout line is the JSON result; the full report and the
spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

# pinned before numpy is imported: default OpenBLAS threading on a small box
# stalls single eigensolver calls for about a second
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
from time import perf_counter

import numpy as np

from calibrate import REF_NOMINAL_S, SETUP_REF_S, Calibrator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "completeness.M2": "ratio",
    "completeness.M3": "ratio",
    "states_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "bethe.solve_bae.M2.s": "s/job",
    "bethe.solve_bae.M3.s": "s/job",
    "bethe.root_sets.M2": "count/job",
    "bethe.root_sets.M3": "count/job",
    "bethe.null_vectors": "count/job",
    "bethe.yield.M3": "ratio",
    "bethe.assemble_eigenvector.s": "s/job",
    "bethe.assemble_eigenvector.calls": "calls/job",
    "bethe.to_vector.s": "s/job",
    "bethe.verify_eigenpair.s": "s/job",
    "hamiltonian.sector_basis.s": "s/job",
    "hamiltonian.sector_basis.calls": "calls/job",
    "oracle.sector_matrix.s": "s/job",
    "oracle.sector_matrix.calls": "calls/job",
    "oracle.sector_spectrum.self_s": "s/job",
    "oracle.compare.s": "s/job",
    "oracle.unmatched": "count/job",
    "constraints.is_cba_solvable.s": "s/job",
    "constraints.is_cba_solvable.calls": "calls/job",
    "constraints.lambda_fn.calls": "calls/job",
    "constraints.s_matrix.calls": "calls/job",
    "families.classify.s": "s/job",
    "families.classify.calls": "calls/job",
    "reductions.reduce_hamiltonian.s": "s/job",
    "cli.self_s": "s/job",
    "layer.hamiltonian.share": "share",
    "layer.constraints.share": "share",
    "layer.families.share": "share",
    "layer.reductions.share": "share",
    "layer.bethe.share": "share",
    "layer.oracle.share": "share",
    "layer.cli.share": "share",
    "trace.job_s": "s/job",
    "trace.jobs": "count",
    "trace.overhead_share": "share",
}


class BenchError(RuntimeError):
    pass


def import_package():
    """Import bethe_forge from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "bethe_forge", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no package source at {init}")
    sys.path.insert(0, SRC)
    import bethe_forge
    if os.path.realpath(bethe_forge.__file__) != os.path.realpath(init):
        raise BenchError(f"imported {bethe_forge.__file__}, expected {init}")


def git_commit():
    """HEAD of the checkout, read from .git without running git; None
    outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def call_cli(job, tracer=None, job_id=None):
    """(seconds, exit code, captured stdout) of one in-process CLI call."""
    from bethe_forge import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        if tracer is None:
            rc = cli.main(job.argv)
        else:
            rc = tracer.run_job(job_id, cli.main, job.argv)
        dt = perf_counter() - t0
    return dt, rc, buf.getvalue()


def prepare(workload, seed):
    """Generate the workload's jobs and run the first one as a warm-up (its
    answer is checked when the timed loop runs it again)."""
    for key, val in workload.env:
        os.environ[key] = val
    os.makedirs(OUT_DIR, exist_ok=True)
    jobs = workload.make_jobs(seed, OUT_DIR)
    call_cli(jobs[0])
    return jobs


def setup_only(workload, seed):
    """The child side of cold_setup: set up between two blocks of reference
    kernel runs, and print (seconds of both blocks, mean kernel seconds)."""
    calib = Calibrator()
    spent = calib.block(SETUP_REF_S)
    prepare(workload, seed)
    spent += calib.block(SETUP_REF_S)
    print(json.dumps([spent, calib.kernel_s()]))


def cold_setup(workload, seed):
    """(wall seconds, reference seconds) of one fresh interpreter doing the
    whole set-up.  The child times the kernel right before and after
    generating the inputs and running the warm-up job, in the same process;
    those blocks are not part of the set-up time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           workload.name, "--seed", str(seed), "--seconds", "0", "--trace",
           "0", "--setup-only"]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=150)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"cold set-up exited {proc.returncode}")
    spent, kernel_s = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = dt - spent
    return wall, wall * REF_NOMINAL_S / kernel_s


class Tally:
    """Checked outcomes and times of the timed jobs.

    Jobs cycle through the workload's list; index % n_distinct names the
    distinct job.  Outcomes are counted per distinct job: the job is
    attempted once however often the loop repeats it for timing, and it
    failed if any of its runs failed.  How many runs fit in the time varies
    from run to run; these counts do not, for a given seed.
    """

    def __init__(self, n_distinct):
        self.n_distinct = n_distinct
        self.times = []
        self.ends = []              # perf_counter() at the end of each run
        self.indices = []           # distinct job of each run
        self.sector_totals = {}     # M -> [matched, ED dimension], all runs
        self.distinct = {}          # distinct job -> Outcome (a failed one
                                    # if any of its runs failed)

    def add(self, index, seconds, outcome):
        index %= self.n_distinct
        self.times.append(seconds)
        self.ends.append(perf_counter())
        self.indices.append(index)
        for M, matched, dim in outcome.sectors:
            tot = self.sector_totals.setdefault(M, [0, 0])
            tot[0] += matched
            tot[1] += dim
        if index not in self.distinct or not outcome.ok:
            self.distinct[index] = outcome

    def pass_s(self, times):
        """One pass over the job list: the sum over distinct jobs of the
        mean of each one's run times, `times` given per run.  How many runs
        of each job fit in the time varies; this does not weigh them."""
        per_job = {}
        for index, t in zip(self.indices, times):
            per_job.setdefault(index, []).append(t)
        return sum(statistics.fmean(ts) for ts in per_job.values())

    def percentile(self, times, pct):
        """The pct-th percentile of `times` (given per run) over one pass:
        each run weighs 1 / (runs of its job), so that every distinct job
        counts once however often it ran.  Where the weight up to a run
        meets the target exactly, the next run is averaged in, as in the
        median of an even count."""
        runs = collections.Counter(self.indices)
        target = pct / 100 * len(runs)
        order = sorted(range(len(times)), key=times.__getitem__)
        acc = 0.0
        for k, i in enumerate(order):
            acc += 1 / runs[self.indices[i]]
            if acc >= target - 1e-9:
                if acc <= target + 1e-9 and k + 1 < len(order):
                    return (times[i] + times[order[k + 1]]) / 2
                return times[i]
        return times[order[-1]]

    def states(self):
        """Matched Bethe states (verify) or right answers (classify) of one
        pass over the distinct jobs."""
        return sum(out.answers + sum(m for _, m, _ in out.sectors)
                   for out in self.distinct.values())

    def completeness(self, M):
        """Sum matched over sum ED dimension in sector M, over distinct jobs;
        for classify jobs, the share of distinct inputs answered right."""
        matched = dim = 0
        for out in self.distinct.values():
            if out.sectors:
                matched += sum(m for mm, m, _ in out.sectors if mm == M)
                dim += sum(d for mm, _, d in out.sectors if mm == M)
            else:
                matched += out.answers
                dim += 1
        return matched / dim if dim else 0.0


def run_loop(jobs, seconds, max_jobs, body):
    """Closed loop: call body(index, job) until the time is up and every job
    ran at least once, or until max_jobs jobs ran."""
    start = perf_counter()
    i = 0
    while True:
        if max_jobs is not None:
            if i >= max_jobs:
                break
        elif i >= len(jobs) and perf_counter() - start >= seconds:
            break
        body(i, jobs[i % len(jobs)])
        i += 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(tally, times):
    """(percentile, value, runs beyond): the highest listed percentile
    with at least TAIL_MIN_BEYOND runs above it, else the median."""
    for pct in TAIL_PERCENTILES:
        val = tally.percentile(times, pct)
        beyond = sum(t > val for t in times)
        if beyond >= TAIL_MIN_BEYOND or pct == TAIL_PERCENTILES[-1]:
            return pct, val, beyond


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outcome_counts(*tallies):
    """(attempted, failed, wrong, reasons) over the distinct jobs of the
    given tallies; a job failed if it failed in any of them."""
    merged = {}
    for tally in tallies:
        for index, out in tally.distinct.items():
            if index not in merged or not out.ok:
                merged[index] = out
    bad = [out for _, out in sorted(merged.items()) if not out.ok]
    return (len(merged), len(bad), sum(out.wrong for out in bad),
            [out.reason for out in bad[:5]])


def end_to_end(tally, calib, setups):
    """End-to-end metrics in reference seconds (see calibrate.py): each job
    run is scaled by the kernel runs next to it, each cold set-up by the
    kernel runs right after it.  The raw wall-clock figures go to the
    report's extras."""
    ref = [calib.reference_s(t, end) for t, end in zip(tally.times, tally.ends)]
    pass_s = tally.pass_s(ref)
    pct, val, beyond = tail(tally, ref)
    metrics = {
        "setup_s": statistics.median(r for _, r in setups),
        "jobs_per_s": len(tally.distinct) / pass_s,
        "job_s_p50": tally.percentile(ref, 50),
        "job_s_tail": val,
        "completeness.M2": tally.completeness(2),
        "completeness.M3": tally.completeness(3),
        "states_per_s": tally.states() / pass_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    wall_pass = tally.pass_s(tally.times)
    extra = {"job_s_tail_percentile": pct, "job_s_tail_beyond": beyond,
             "runs": len(tally.times), "distinct_jobs": len(tally.distinct),
             "kernel_runs": len(calib.times),
             "ref_per_wall_s": REF_NOMINAL_S / calib.kernel_s(),
             "wall_setup_s": statistics.median(w for w, _ in setups),
             "wall_jobs_per_s": len(tally.distinct) / wall_pass,
             "wall_job_s_p50": tally.percentile(tally.times, 50),
             "wall_busy_s": sum(tally.times)}
    return metrics, extra


def per_layer(tracer, traced, plain):
    """Per-layer metrics of the traced jobs; traced and plain are the Tally
    of the traced and untraced halves of each pair."""
    from spans import JOB_SPAN, LAYER_OF, LAYERS
    calls, incl, self_s, infos = tracer.totals()
    n = calls[JOB_SPAN]
    job_s = incl[JOB_SPAN]
    solve = {2: [0.0, 0], 3: [0.0, 0]}
    for dur, info in infos["bethe.solve_bae"]:
        if info["M"] in solve:
            solve[info["M"]][0] += dur
            solve[info["M"]][1] += info["root_sets"]
    nulls = sum(info["null"] for _, info in infos["bethe.assemble_eigenvector"])
    matched_m3 = traced.sector_totals.get(3, [0, 0])[0]
    unmatched = sum(d - m for m, d in traced.sector_totals.values())
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, secs in self_s.items():
        layer_self[LAYER_OF[name]] += secs
    m = {
        "bethe.solve_bae.M2.s": solve[2][0] / n,
        "bethe.solve_bae.M3.s": solve[3][0] / n,
        "bethe.root_sets.M2": solve[2][1] / n,
        "bethe.root_sets.M3": solve[3][1] / n,
        "bethe.null_vectors": nulls / n,
        "bethe.yield.M3": matched_m3 / solve[3][1] if solve[3][1] else 0.0,
        "bethe.assemble_eigenvector.s": incl["bethe.assemble_eigenvector"] / n,
        "bethe.assemble_eigenvector.calls": calls["bethe.assemble_eigenvector"] / n,
        "bethe.to_vector.s": incl["bethe.to_vector"] / n,
        "bethe.verify_eigenpair.s": incl["bethe.verify_eigenpair"] / n,
        "hamiltonian.sector_basis.s": incl["hamiltonian.sector_basis"] / n,
        "hamiltonian.sector_basis.calls": calls["hamiltonian.sector_basis"] / n,
        "oracle.sector_matrix.s": incl["oracle.sector_matrix"] / n,
        "oracle.sector_matrix.calls": calls["oracle.sector_matrix"] / n,
        "oracle.sector_spectrum.self_s": self_s["oracle.sector_spectrum"] / n,
        "oracle.compare.s": incl["oracle.compare"] / n,
        "oracle.unmatched": unmatched / n,
        "constraints.is_cba_solvable.s": incl["constraints.is_cba_solvable"] / n,
        "constraints.is_cba_solvable.calls": calls["constraints.is_cba_solvable"] / n,
        "constraints.lambda_fn.calls": tracer.counts["constraints.lambda_fn"] / n,
        "constraints.s_matrix.calls": tracer.counts["constraints.s_matrix"] / n,
        "families.classify.s": incl["families.classify"] / n,
        "families.classify.calls": calls["families.classify"] / n,
        "reductions.reduce_hamiltonian.s": incl["reductions.reduce_hamiltonian"] / n,
        "cli.self_s": self_s[JOB_SPAN] / n,
    }
    for layer in LAYERS:
        m[f"layer.{layer}.share"] = layer_self[layer] / job_s
    m["trace.job_s"] = job_s / n
    m["trace.jobs"] = n
    m["trace.overhead_share"] = sum(traced.times) / sum(plain.times) - 1.0
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--jobs", type=int, default=None,
                    help="stop after this many timed jobs (smoke test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="one cold set-up, then exit (used for setup_s)")
    return ap.parse_args(argv)


def main(argv=None):
    try:
        import_package()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_only:
            setup_only(workload, args.seed)
            return 0
        result = measure(workload, args)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def measure(workload, args):
    env = environment()
    setups = []
    if not args.trace:
        setups = [cold_setup(workload, args.seed)
                  for _ in range(SETUP_REPEATS)]
    jobs = prepare(workload, args.seed)
    tally = Tally(len(jobs))
    calib = Calibrator()
    report = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env}

    if not args.trace:
        def body(i, job):
            dt, rc, out = call_cli(job)
            tally.add(i, dt, job.check(rc, out))
            calib.after_job(dt)

        calib.block(REF_NOMINAL_S)
        run_loop(jobs, args.seconds, args.jobs, body)
        calib.block(calib.owed)
        metrics, extra = end_to_end(tally, calib, setups)
        attempted, failed, wrong, reasons = outcome_counts(tally)
        units = END_TO_END
    else:
        from spans import Tracer
        tracer = Tracer()
        traced = Tally(len(jobs))

        def body(i, job):
            for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_turn:
                    dt, rc, out = call_cli(job, tracer, i)
                    traced.add(i, dt, job.check(rc, out))
                else:
                    dt, rc, out = call_cli(job)
                    tally.add(i, dt, job.check(rc, out))

        run_loop(jobs, args.seconds, args.jobs, body)
        metrics = per_layer(tracer, traced, tally)
        extra = {"runs": len(tally.times) + len(traced.times),
                 "spans": len(tracer.spans), "unwrapped": tracer.missing}
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl"))
        attempted, failed, wrong, reasons = outcome_counts(tally, traced)
        units = PER_LAYER
    extra["failed_share"] = failed / attempted

    report.update(metrics=metrics, extra=extra, failures=reasons,
                  attempted=attempted, failed=failed, wrong=wrong,
                  setups=setups, job_times=tally.times, job_ends=tally.ends,
                  kernel_times=calib.times, kernel_ends=calib.ends)
    path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:.6g} {unit}")
    for key, val in extra.items():
        print(f"  ({key} = {val})")
    for reason in reasons:
        print(f"  FAILED: {reason}")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
