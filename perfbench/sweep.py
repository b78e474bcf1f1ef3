"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads verify-newton,classify-mix \\
        --seeds 0-9 --seconds 30 --trace 0 [--out perfbench/results/x.json]

Runs are sequential, one ``run.py`` process at a time.  For every metric the
summary gives the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median.  With ``--out`` the summary is merged into
that JSON file under ``[workload]["trace0" | "trace1"]``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(RUN)), ".perfbench_out")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        report = json.load(fh)
    return result, report


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "values": vals}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    merged = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            merged = json.load(fh)
    for workload in args.workloads.split(","):
        results, reports = [], []
        for seed in args.seeds:
            result, report = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            reports.append(report)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        summary = summarise(results)
        for name, s in summary.items():
            print(f"  {name:36s} median {s['median']:.6g} {s['unit']:9s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}")
        merged.setdefault(workload, {})[f"trace{args.trace}"] = {
            "seeds": args.seeds, "seconds": args.seconds,
            "correct": [r["correct"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "failures": [f for rep in reports for f in rep["failures"]],
            "extra": [rep["extra"] for rep in reports],
            "environment": reports[0]["environment"],
            "metrics": summary,
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(merged, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
