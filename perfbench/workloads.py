"""The benchmark's workloads: job lists, generated inputs and answer checks.

A job is the argument list of one ``bethe-forge`` invocation together with
the check its ``--json`` report must pass.  Every job is deterministic for
a given workload seed, so a job's answer (and the completeness figures
derived from it) repeats exactly when the seed does.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from bethe_forge import families
from bethe_forge import hamiltonian as ham

PRESET_DIR = os.path.join(os.path.dirname(families.__file__), "presets")

GENERIC_SHARE = 0.25       # share of classify-mix inputs that are not solvable
CLASSIFY_POOL = 600        # distinct classify-mix inputs per seed
JOB_SEED_STRIDE = 1000     # verify job i of workload seed s gets --seed 1000 s + i


@dataclass
class Outcome:
    """What one checked job contributes to the run's metrics.

    A job that is not ok either failed (nonzero exit: the program itself
    reported that it could not finish or verify) or answered wrong (exit 0
    with a report that contradicts the ground truth).  A job that is not ok
    delivers no states: its sectors carry 0 matched against the full ED
    dimension, so failures lower completeness.
    """

    ok: bool
    wrong: bool = False
    reason: str = ""
    sectors: tuple = ()      # (M, matched, ED dimension) per sector
    answers: int = 0         # correct classify answers (0 or 1)


@dataclass
class Job:
    argv: list
    expect: object           # verify: (L, M range); classify: family tag or None

    def check(self, rc, out):
        """Parse a job's captured stdout and judge its answer."""
        verify = self.argv[0] == "verify"
        if rc == 0:
            try:
                report = json.loads(out)
            except json.JSONDecodeError as exc:
                reason = f"unparsable report: {exc}"
            else:
                if verify:
                    reason, sectors = _check_verify(report, *self.expect)
                    if reason is None:
                        return Outcome(True, sectors=sectors)
                else:
                    reason = _check_classify(report, self.expect)
                    if reason is None:
                        return Outcome(True, answers=1)
        else:
            reason = f"exit code {rc}"
        sectors = ()
        if verify:
            L, Ms = self.expect
            sectors = tuple((M, 0, sector_dimension(L, M)) for M in Ms)
        return Outcome(False, wrong=rc == 0, sectors=sectors,
                       reason=f"{self.argv[0]} {os.path.basename(self.argv[1])} "
                              f"{' '.join(self.argv[2:])}: {reason}")


def sector_dimension(L, M):
    """Coefficient of x^M in (1 + x + x^2)^L, computed with Python ints."""
    poly = [1]
    for _ in range(L):
        nxt = [0] * (len(poly) + 2)
        for i, c in enumerate(poly):
            for d in range(3):
                nxt[i + d] += c
        poly = nxt
    return poly[M] if 0 <= M < len(poly) else 0


def _check_verify(report, L, Ms):
    """(None, sectors) for a right answer, else (reason, None)."""
    if report.get("mode") != "verify" or report.get("L") != L:
        return "report is not a verify report for this L", None
    if report.get("all_verified") is not True:
        return "all_verified is not true", None
    sectors = report.get("sectors", [])
    if [s["M"] for s in sectors] != list(Ms):
        return f"sectors {[s['M'] for s in sectors]} != {list(Ms)}", None
    out = []
    for s in sectors:
        dim = sector_dimension(L, s["M"])
        if s["dimension"] != dim:
            return f"M={s['M']} dimension {s['dimension']} != {dim}", None
        if not 0 <= s["matched"] <= dim:
            return f"M={s['M']} matched {s['matched']} of {dim}", None
        out.append((s["M"], s["matched"], dim))
    return None, tuple(out)


def _check_classify(report, tag):
    """None for a right answer, else the reason it is wrong."""
    if tag is None:
        if report.get("solvable") is not False:
            return "generic input reported solvable"
        return None
    if report.get("solvable") is not True:
        return f"{tag} member reported unsolvable"
    found = {m["family"] for m in report.get("all_matches") or []}
    if tag not in found:
        return f"{tag} member classified as {sorted(found)}"
    return None


# ---------------------------------------------------------------------------
# verify workloads
# ---------------------------------------------------------------------------

def _presets(trivial):
    out = []
    for name in sorted(os.listdir(PRESET_DIR)):
        with open(os.path.join(PRESET_DIR, name)) as fh:
            tag = json.load(fh)["family"]
        if (tag in families.TRIVIAL_S_TAGS) == trivial:
            out.append(os.path.join(PRESET_DIR, name))
    return out


def _verify_jobs(paths, L, seed):
    # one --seed per job: with a shared --seed every preset starts Newton from
    # the same random points, and their costs rise and fall together
    Ms = (1, 2, 3)
    return [Job(["verify", p, "--L", str(L), "--M", "1..3", "--json",
                 "--seed", str(JOB_SEED_STRIDE * seed + i)], (L, Ms))
            for i, p in enumerate(paths)]


def verify_newton(seed, scratch):
    return _verify_jobs(_presets(trivial=False), 9, seed)


def verify_trivial(seed, scratch):
    return _verify_jobs(_presets(trivial=True), 12, seed)


# ---------------------------------------------------------------------------
# classify-mix
# ---------------------------------------------------------------------------

def _annulus(rng, n=None):
    r = rng.uniform(0.6, 1.4, n)
    ph = rng.uniform(0.0, 2 * np.pi, n)
    z = r * np.exp(1j * ph)
    return complex(z) if n is None else z


def random_input(rng):
    """(family tag or None, parameters): a family member seen through a random
    P/C/T frame, gauge and telescoping term, or a generic 19-vertex input."""
    if rng.random() < GENERIC_SHARE:
        kw = {k: _annulus(rng) for k in ham.OFFDIAG_KEYS}
        return None, ham.HamiltonianParams(v=_annulus(rng, 9).reshape(3, 3), **kw)
    tag = families.FAMILY_ORDER[rng.integers(len(families.FAMILY_ORDER))]
    fam = families.FAMILIES[tag]
    branch = fam.branches[rng.integers(len(fam.branches))]
    h = families.construct(tag, {n: _annulus(rng) for n in fam.free_names}, branch)
    h = ham.apply_frame(h, ham.FRAME_WORDS[rng.integers(len(ham.FRAME_WORDS))])
    h = ham.apply_gauge(h, _annulus(rng, 3))
    return tag, ham.apply_telescopic(h, _annulus(rng, 3))


def classify_mix(seed, scratch):
    rng = np.random.default_rng(seed)
    folder = os.path.join(scratch, f"classify-mix-{seed}")
    os.makedirs(folder, exist_ok=True)
    jobs = []
    for i in range(CLASSIFY_POOL):
        tag, params = random_input(rng)
        path = os.path.join(folder, f"{i:04d}.json")
        with open(path, "w") as fh:
            json.dump(ham.params_to_dict(params), fh)
        jobs.append(Job(["classify", path, "--json"], tag))
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    make_jobs: object        # (seed, scratch dir) -> list of Job
    env: tuple = ()          # environment variables the jobs need


WORKLOADS = {w.name: w for w in (
    Workload("verify-newton", verify_newton),
    # the documented chain-length override; L = 12 is past the default guard
    Workload("verify-trivial", verify_trivial, (("BETHE_FORGE_LMAX", "12"),)),
    Workload("classify-mix", classify_mix),
)}
