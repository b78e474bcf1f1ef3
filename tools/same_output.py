"""Whether two source trees give the same stdout and exit code on a fixed grid.

    python tools/same_output.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are ``src`` directories that hold the
``bethe_forge`` package, such as ``src`` of this checkout and ``src`` of a
``git archive`` of its parent commit.  The grid is

* ``verify PRESET --L L --M 0..3 --json`` for every preset of PARENT_SRC and
  L = 2..12 (19 x 11 = 209 runs), then
* for every preset, ``classify PRESET``, ``classify PRESET
  --conjugate-vacuum --json``, ``verify PRESET --L 6 --M 0..3`` and
  ``spectrum PRESET --L 5 --M 0..3`` with and without ``--json`` (19 x 5
  = 95 runs), then ``catalog`` and ``catalog --json``, which print every
  family's formula text, then
* ``classify INPUT --json`` over the classify-mix inputs of workload seeds 0
  and 1 (1,200 runs), written to a temporary folder by
  ``perfbench/workloads.py`` under PARENT_SRC.

So every subcommand runs in both renderings, text and ``--json``.

Both trees read the same input files.  Each tree runs the whole grid in one
subprocess of its own, with PYTHONPATH set to the tree and
OPENBLAS_NUM_THREADS=1; every case is an in-process call to
``bethe_forge.cli.main``, whose stdout is captured and whose stderr is
dropped.  The two run side by side, and the first case whose stdout or exit
code differs is printed, with the first line where the outputs part; the
exit code is then 1, else 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(TOOLS), "perfbench")


def _presets(src):
    """The preset files of the tree src, sorted by name."""
    folder = os.path.join(src, "bethe_forge", "presets")
    return [os.path.join(folder, name) for name in sorted(os.listdir(folder))]


def verify_cases(src, Ls=range(2, 13)):
    """The verify --json runs of the grid, over the presets of the tree
    src."""
    return [["verify", path, "--L", str(L), "--M", "0..3", "--json"]
            for path in _presets(src) for L in Ls]


def preset_cases(src):
    """The runs of the grid in each rendering: five per preset of the tree
    src, then catalog as text and as JSON."""
    spectrum = ["--L", "5", "--M", "0..3"]
    return [case for path in _presets(src) for case in (
        ["classify", path],
        ["classify", path, "--conjugate-vacuum", "--json"],
        ["verify", path, "--L", "6", "--M", "0..3"],
        ["spectrum", path, *spectrum],
        ["spectrum", path, *spectrum, "--json"],
    )] + [["catalog"], ["catalog", "--json"]]


def classify_cases(src, folder):
    """The classify runs of the grid: perfbench's classify-mix inputs of
    workload seeds 0 and 1, written into folder by a subprocess on the
    tree src."""
    code = "import same_output; same_output._write_inputs()"
    out = subprocess.run([sys.executable, "-c", code], env=_env(src),
                         input=folder, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out)


def _write_inputs():
    """Subprocess side of classify_cases: the folder on stdin, the
    argument lists on stdout."""
    sys.path.insert(0, PERFBENCH)
    import workloads
    folder = sys.stdin.read()
    print(json.dumps([job.argv for seed in (0, 1)
                      for job in workloads.classify_mix(seed, folder)]))


def _env(src):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([os.path.abspath(src), TOOLS])
    return env


def _run_cases():
    """Subprocess side of run: a JSON list of argument lists on stdin; one
    JSON line [exit code, stdout] per case on stdout, in order."""
    from bethe_forge import cli
    cases = json.load(sys.stdin)
    for argv in cases:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        sys.stdout.write(json.dumps([rc, buf.getvalue()]) + "\n")
        sys.stdout.flush()


def run(src, cases):
    """Start the tree src on cases: a process whose stdout yields one JSON
    line [exit code, stdout] per case."""
    code = "import same_output; same_output._run_cases()"
    proc = subprocess.Popen([sys.executable, "-c", code], env=_env(src),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    proc.stdin.write(json.dumps(cases))
    proc.stdin.close()
    return proc


def first_difference(parent, change, cases):
    """None when the trees parent and change give every case the same exit
    code and stdout, else (case, parent's (code, stdout), change's); a
    tree that stops early answers (None, its exit status) from there."""
    procs = [run(parent, cases), run(change, cases)]
    try:
        for argv in cases:
            got = []
            for proc in procs:
                line = proc.stdout.readline()
                got.append(tuple(json.loads(line)) if line
                           else (None, f"stopped, exit {proc.wait()}"))
            if got[0] != got[1]:
                return argv, got[0], got[1]
        return None
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
            proc.stdout.close()


def describe(diff):
    """Readable lines for a first_difference result."""
    argv, (rc_a, out_a), (rc_b, out_b) = diff
    lines = [f"differs: {' '.join(argv)}",
             f"  exit code: {rc_a} (parent) vs {rc_b} (change)"]
    a, b = str(out_a).splitlines(), str(out_b).splitlines()
    for k in range(max(len(a), len(b))):
        la = a[k] if k < len(a) else "<end>"
        lb = b[k] if k < len(b) else "<end>"
        if la != lb:
            lines += [f"  stdout line {k + 1}:", f"    parent: {la[:200]}",
                      f"    change: {lb[:200]}"]
            break
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(
            os.path.isdir(os.path.join(a, "bethe_forge")) for a in argv):
        print("usage: python tools/same_output.py PARENT_SRC CHANGE_SRC",
              file=sys.stderr)
        return 2
    parent, change = argv
    with tempfile.TemporaryDirectory() as folder:
        cases = (verify_cases(parent) + preset_cases(parent)
                 + classify_cases(parent, folder))
        diff = first_difference(parent, change, cases)
    if diff is not None:
        print("\n".join(describe(diff)))
        return 1
    print(f"same stdout and exit code: {len(cases)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
