"""Command-line front end.

Subcommands:

* ``classify <file>``  solvability verdict, family match, reduced parameters
  and the reduced two-site matrix.
* ``spectrum <file> --L n --M a..b``  Bethe roots, energies, eigenvector
  residuals, sector-by-sector comparison with dense diagonalization.
* ``verify <file> --L n --M a..b``  spectrum pipeline with a pass/fail exit.
* ``catalog``  the ten families, their free/reduced parameters, S and N
  formulas, and the parity / charge-conjugation / time-reversal action table
  regenerated from random instances.

Input files hold either a raw Hamiltonian (keys p, q, t1, t2, s1, s2, t3, s3,
tp, sp and a 3x3 "v" array; complex numbers as [re, im] pairs) or a family
preset {"family": tag, "branch": ..., "free": {...}}.

The pipeline lives in the library: after the preamble shared with classify,
spectrum and verify make one oracle.verify_sector call per M (M = 0 too) and
only render its reports.

Exit codes: 0 success, 2 parse error or bad option value, 3 hypothesis-gate
violation, 4 mode refusal, 1 internal error or failed verification.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import constraints, families, oracle, reductions
from .bethe import SolverConfig
from .hamiltonian import (FRAME_WORDS, ChainSpec, GateViolation, _pair_to_c,
                          apply_charge_conjugation, apply_frame,
                          params_from_dict, params_to_dict, with_zero_v00)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_GATE = 3
EXIT_REFUSED = 4


@dataclass
class RunConfig:
    input_path: str | None = None
    mode: str = "classify"
    L: int = 4
    M_range: tuple = (1, 2)
    tol_constraint: float = 1e-9
    tol_bae: float = 1e-10
    tol_eig: float = 1e-8
    constraint_samples: int = 20
    seed: int = 0
    json_output: bool = False
    conjugate_vacuum: bool = False

    def __post_init__(self):
        if not all(math.isfinite(t) and t > 0 for t in
                   (self.tol_constraint, self.tol_bae, self.tol_eig)):
            raise ValueError("tolerances must be finite and positive")
        if self.constraint_samples < 1:
            raise ValueError("at least 1 constraint sample is needed")
        if self.seed < 0:
            raise ValueError("the seed must be non-negative")
        ChainSpec(self.L)  # raises unless 2 <= L <= L_max
        lo, hi = self.M_range
        if not 0 <= lo <= hi:
            raise ValueError(f"M range {lo}..{hi} is empty or negative")


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.complexfloating,)):
        return _jsonable(complex(obj))
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _fmt_c(z, prec=6):
    z = complex(z)
    if z == 0:
        return "0"
    if z.imag == 0:
        return f"{z.real:.{prec}g}"
    if z.real == 0:
        return f"{z.imag:.{prec}g}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.{prec}g}{sign}{abs(z.imag):.{prec}g}i"


def render_matrix(m, prec=4):
    """Text form of a 9x9 matrix in the two-site basis layout."""
    cells = [[_fmt_c(m[i, j], prec) for j in range(9)] for i in range(9)]
    widths = [max(len(cells[i][j]) for i in range(9)) for j in range(9)]
    lines = []
    for i in range(9):
        row = "  ".join(cells[i][j].rjust(widths[j]) for j in range(9))
        lines.append(f"  [{row}]")
    return "\n".join(lines)


class InputError(ValueError):
    pass


def load_input(path):
    """Parse a Hamiltonian or preset file into parameters."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InputError("input must be a JSON object")
    try:
        if "family" in data:
            tag = data["family"]
            if tag not in families.FAMILIES:
                raise InputError(f"unknown family tag {tag!r}")
            free = {k: _pair_to_c(v) for k, v in data.get("free", {}).items()}
            branch = data.get("branch")
            if isinstance(branch, dict):
                branch = {k: _pair_to_c(v) for k, v in branch.items()}
            return families.construct(
                tag, free, branch,
                half_constrained=bool(data.get("half_constrained", False)))
        return params_from_dict(data)
    except KeyError as exc:
        raise InputError(f"missing field {exc}") from exc
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _analyse(cfg):
    """The input after its hypothesis gates, its solvability verdict, and
    its family match (None when not solvable or unmatched)."""
    params = load_input(cfg.input_path)
    if cfg.conjugate_vacuum:
        params = apply_charge_conjugation(params)
    # the ansatz energies are measured from a zero-eigenvalue pseudo-vacuum;
    # subtracting v00 * Identity shifts the whole spectrum by L*v00
    params = with_zero_v00(params)
    params.check_gates()
    verdict = constraints.is_cba_solvable(
        params, n_samples=cfg.constraint_samples, tol=cfg.tol_constraint,
        seed=cfg.seed)
    match = (families.classify(params, tol=cfg.tol_constraint,
                               check_solvable=False)
             if verdict.solvable else None)
    return params, verdict, match


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def run_classify(cfg):
    params, verdict, match = _analyse(cfg)
    report = {
        "mode": "classify",
        "solvable": verdict.solvable,
        "max_constraint_residual": verdict.max_residual,
        "constraint_samples": verdict.samples,
        "failing_constraint": verdict.failing_constraint,
        "input": params_to_dict(params),
    }
    if not verdict.solvable:
        report["family"] = None
        return report
    if match is None:
        rng = np.random.default_rng(cfg.seed)
        z1, z2 = constraints.random_momenta(rng, 2)
        report["family"] = None
        report["unclassified"] = True
        report["sample_momenta"] = [z1, z2]
        report["raw_s_matrix"] = constraints.s_matrix(params, z1, z2)
        report["raw_n_factor"] = constraints.n_factor(params, z1, z2)
        return report
    fam = families.FAMILIES[match.tag]
    hred, red = reductions.reduce_hamiltonian(params, match)
    report.update({
        "family": match.tag,
        "branch": match.branch,
        "frame": match.frame or "identity",
        "free_params": match.free_params,
        "fit_residual": match.fit_residual,
        "degenerate_match": match.degenerate,
        "all_matches": [
            {"family": t, "branch": b, "frame": w or "identity", "residual": r}
            for t, b, w, r in match.all_matches],
        "reduced_params": red.as_dict(),
        "reduced_extra": red.extra,
        "reduced_matrix": hred,
        "s_formula": fam.s_formula,
        "n_formula": fam.n_formula,
    })
    return report


def _text_classify(report):
    lines = []
    if report["solvable"]:
        lines.append("CBA-solvable: yes "
                     f"(max constraint residual {report['max_constraint_residual']:.3e} "
                     f"over {report['constraint_samples']} samples)")
    else:
        lines.append("CBA-solvable: NO "
                     f"(max constraint residual {report['max_constraint_residual']:.3e} "
                     f"in {report['failing_constraint']})")
        return "\n".join(lines)
    if report.get("family"):
        lines.append(f"family: {report['family']}   frame: {report['frame']}   "
                     f"fit residual: {report['fit_residual']:.3e}")
        if report["branch"]:
            branch = ", ".join(f"{k}={_fmt_c(v)}" for k, v in report["branch"].items())
            lines.append(f"branch: {branch}")
        free = ", ".join(f"{k}={_fmt_c(v)}" for k, v in report["free_params"].items())
        lines.append(f"free parameters: {free}")
        red = ", ".join(f"{k}={_fmt_c(v)}" for k, v in report["reduced_params"].items())
        lines.append(f"reduced parameters: {red}")
        if report["degenerate_match"]:
            tags = sorted({m["family"] for m in report["all_matches"]})
            lines.append(f"degenerate point: also consistent with {tags}")
        lines.append("S(z1,z2) = " + report["s_formula"])
        lines.append("N(z1,z2) = " + report["n_formula"])
        lines.append("reduced two-site matrix:")
        lines.append(render_matrix(np.array(report["reduced_matrix"])))
    else:
        lines.append("family: unclassified (solvable, but matches no catalog "
                     "family in any P/C/T frame)")
        lines.append(f"raw S at sample momenta: {_fmt_c(report['raw_s_matrix'])}")
        lines.append(f"raw N at sample momenta: {_fmt_c(report['raw_n_factor'])}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# spectrum / verify
# ---------------------------------------------------------------------------

def run_spectrum(cfg):
    params, verdict, match = _analyse(cfg)
    if not verdict.solvable:
        raise ModeRefusal(
            f"input is not CBA-solvable (residual {verdict.max_residual:.3e}); "
            "spectrum mode refused")
    lo, hi = cfg.M_range
    if hi > 3:
        raise ModeRefusal("M <= 3 supported")
    solver = SolverConfig(seed=cfg.seed, bae_tol=cfg.tol_bae)
    reps = [oracle.verify_sector(params, cfg.L, M, solver, cfg.tol_eig)
            for M in range(lo, hi + 1)]
    all_ok = all(rep.passed for rep in reps)
    return {
        "mode": cfg.mode,
        "L": cfg.L,
        "family": match.tag if match else None,
        "solvable": True,
        "max_constraint_residual": verdict.max_residual,
        "sectors": [{
            "M": rep.M,
            "dimension": rep.dimension,
            "solutions": [_solution_entry(sol, chk)
                          for sol, chk in zip(rep.solutions, rep.checks)],
            "verified": rep.count("verified"),
            "matched": rep.matched,
            "unmatched_energies": rep.unmatched,
            "uncovered_by_momentum": rep.uncovered,
            "null_vectors": rep.count("null"),
            "coincident_roots": rep.count("coincident"),
            "max_eig_residual": rep.max_eig_residual,
            "completeness": rep.coverage,
        } for rep in reps],
        "all_verified": all_ok,
        "verdict": ("all accepted eigenpairs verified and matched"
                    if all_ok else
                    "some eigenpairs failed verification or matching"),
    }


def _solution_entry(sol, check):
    """The report entry of one root set and what check_roots found."""
    entry = {
        "z": list(sol.z),
        "energy": sol.energy,
        "bae_residual": sol.bae_residual,
        "degenerate": sol.degenerate_flag,
        "momentum": check.momentum,
    }
    if check.outcome == "coincident":
        entry["rejected"] = "coincident roots"
    elif check.outcome == "singular":
        entry["eigenvector"] = f"failed: {check.message}"
    elif check.outcome == "null":
        entry["eigenvector"] = "null"
    else:
        entry["eig_residual"] = check.eig_residual
        entry["verified"] = check.outcome != "unverified"
        if check.outcome == "equivalent":
            entry["equivalent_state"] = True
    return entry


def _text_spectrum(report):
    lines = [f"L = {report['L']}   family: {report['family'] or 'unclassified'}"]
    for sec in report["sectors"]:
        lines.append(
            f"Sz = {sec['M']} sector (dimension {sec['dimension']}): "
            f"{len(sec['solutions'])} Bethe solutions, {sec['verified']} verified, "
            f"{sec['matched']} matched to ED, {sec['null_vectors']} null, "
            f"{sec['coincident_roots']} with coincident roots, "
            f"completeness {sec['completeness']:.1%}")
        for ent in sec["solutions"]:
            zs = ", ".join(_fmt_c(z, 4) for z in ent["z"])
            extra = ""
            if "eig_residual" in ent:
                extra = f"  eig res {ent['eig_residual']:.1e}"
            elif "eigenvector" in ent:
                extra = f"  [{ent['eigenvector']}]"
            elif "rejected" in ent:
                extra = f"  [rejected: {ent['rejected']}]"
            flag = (" (same state as an earlier root set)"
                    if ent.get("equivalent_state") else "")
            lines.append(f"    z = ({zs})  E = {_fmt_c(ent['energy'], 5)}  "
                         f"bae res {ent['bae_residual']:.1e}{extra}{flag}")
        if sec["unmatched_energies"]:
            lines.append("    unmatched: "
                         + ", ".join(_fmt_c(e) for e in sec["unmatched_energies"]))
    lines.append("all eigenpairs verified" if report["all_verified"]
                 else "SOME EIGENPAIRS FAILED VERIFICATION")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _word_group(words):
    """Subgroup of the (Z/2)^3 frame group generated by the given words."""
    out = {""}
    grown = True
    while grown:
        grown = False
        for w in list(out):
            for g in words:
                prod = "".join(ch for ch in "PCT"
                               if (ch in w) != (ch in g))
                if prod not in out:
                    out.add(prod)
                    grown = True
    return out


def run_catalog(cfg):
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for tag in families.FAMILY_ORDER:
        fam = families.FAMILIES[tag]
        free = _random_free(fam, rng)
        branch0 = dict(fam.branches[0])
        params = fam.build(free, fam.branches[0])
        images = {word: families.classify(apply_frame(params, word),
                                          tol=1e-8, check_solvable=False)
                  for word in FRAME_WORDS[1:]}     # every word but identity
        actions = {}
        for word in ("P", "C", "T"):
            m = images[word]
            if m is None:
                actions[word] = "outside catalog"
            else:
                note = " (branch swapped)" if m.branch != branch0 else ""
                frame = m.frame or "identity"
                actions[word] = f"{m.tag} via {frame}{note}"
        # generators of the invariance words: image = same family, same
        # branch, identity frame
        generators = []
        for word, m in images.items():
            if (m is not None and m.tag == tag and m.frame == ""
                    and all(abs(complex(m.branch[k]) - complex(v)) < 1e-9
                            for k, v in branch0.items())
                    and word not in _word_group(generators)):
                generators.append(word)
        rows.append({
            "family": tag,
            "vertices": 19 if tag in ("gZF", "gIK", "gB", "SpR") else
                        (17 if tag.startswith("17") or tag == "SB5" else 14),
            "free_params": list(fam.free_names),
            "branches": [ {k: v for k, v in b.items()} for b in fam.branches ],
            "reduced_params": list(fam.reduced_names),
            "s_matrix": fam.s_formula,
            "n_factor": fam.n_formula,
            "pct_actions": actions,
            "invariances": generators,
            "sample": params_to_dict(params),
        })
    return {"mode": "catalog", "families": rows}


def _random_free(fam, rng):
    free = {}
    for name in fam.free_names:
        r = rng.uniform(0.6, 1.4)
        ph = rng.uniform(0, 2 * np.pi)
        free[name] = r * np.exp(1j * ph)
    return free


def _text_catalog(report):
    lines = [f"{len(report['families'])} solution families"]
    for row in report["families"]:
        lines.append("")
        lines.append(f"{row['family']} ({row['vertices']}-vertex)")
        lines.append(f"  free: {', '.join(row['free_params'])}"
                     + (f"   branches: {row['branches']}" if len(row['branches']) > 1 else ""))
        lines.append(f"  reduced: {', '.join(row['reduced_params'])}")
        lines.append(f"  S = {row['s_matrix']}")
        lines.append(f"  N = {row['n_factor']}")
        acts = row["pct_actions"]
        lines.append(f"  P -> {acts['P']};  C -> {acts['C']};  T -> {acts['T']}")
        lines.append("  invariances: "
                     + (", ".join(row["invariances"]) if row["invariances"]
                        else "-"))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class ModeRefusal(RuntimeError):
    pass


def _parse_m_range(text):
    if ".." in text:
        a, b = text.split("..", 1)
        return int(a), int(b)
    m = int(text)
    return m, m


def build_parser():
    ap = argparse.ArgumentParser(
        prog="bethe-forge",
        description="Classify and solve three-state spin-chain Hamiltonians "
                    "by coordinate Bethe ansatz.")
    sub = ap.add_subparsers(dest="mode", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("input", help="Hamiltonian or preset JSON file")
        p.add_argument("--tol-constraint", type=float, default=1e-9)
        p.add_argument("--tol-bae", type=float, default=1e-10)
        p.add_argument("--tol-eig", type=float, default=1e-8)
        p.add_argument("--constraint-samples", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true", dest="json_output")
        p.add_argument("--conjugate-vacuum", action="store_true",
                       help="apply charge conjugation first (build on the "
                            "second pseudo-vacuum)")

    pc = sub.add_parser("classify", help="solvability + family classification")
    common(pc)
    for mode in ("spectrum", "verify"):
        ps = sub.add_parser(mode)
        common(ps)
        ps.add_argument("--L", type=int, required=True)
        ps.add_argument("--M", type=_parse_m_range, default=(1, 2),
                        help="excitation range, e.g. 2 or 1..2")
    pk = sub.add_parser("catalog", help="list the ten families")
    common(pk, needs_file=False)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        cfg = RunConfig(
            input_path=getattr(ns, "input", None), mode=ns.mode,
            L=getattr(ns, "L", 4), M_range=getattr(ns, "M", (1, 2)),
            tol_constraint=ns.tol_constraint, tol_bae=ns.tol_bae,
            tol_eig=ns.tol_eig, constraint_samples=ns.constraint_samples,
            seed=ns.seed, json_output=ns.json_output,
            conjugate_vacuum=ns.conjugate_vacuum)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        if cfg.mode == "classify":
            report, render = run_classify(cfg), _text_classify
        elif cfg.mode in ("spectrum", "verify"):
            report, render = run_spectrum(cfg), _text_spectrum
        else:
            report, render = run_catalog(cfg), _text_catalog
        text = None if cfg.json_output else render(report)
    except (json.JSONDecodeError, FileNotFoundError, InputError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GateViolation as exc:
        print(f"hypothesis gate: {exc}", file=sys.stderr)
        return EXIT_GATE
    except ModeRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    if cfg.json_output:
        print(json.dumps(_jsonable(report), sort_keys=True, indent=2))
    else:
        print(text)
    if cfg.mode == "verify" and not report.get("all_verified", False):
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
