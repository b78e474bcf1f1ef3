"""Command-line front end.

Subcommands:

* ``classify <file>``  solvability verdict, family match, reduced parameters
  and the reduced two-site matrix.
* ``spectrum <file> --L n --M a..b``  Bethe roots, energies, eigenvector
  residuals, sector-by-sector comparison with dense diagonalization.
* ``verify <file> --L n --M a..b``  spectrum pipeline with a pass/fail exit.
* ``catalog``  the ten families, their free/reduced parameters, S and N
  formulas, and the parity / charge-conjugation / time-reversal action table,
  read at each family's fixed generic member (Family.generic_free).

Each subcommand accepts only the options its run reads (build_parser), and
every tolerance must lie strictly between 0 and 1.

Input files hold either a raw Hamiltonian (keys p, q, t1, t2, s1, s2, t3, s3,
tp, sp and a 3x3 "v" array; complex numbers as [re, im] pairs) or a family
preset {"family": tag, "branch": ..., "free": {...}}.

The pipeline lives in the library: after the preamble shared with classify,
spectrum and verify make one oracle.verify_sector call per M (M = 0 too) and
only render its reports.

With --json every mode prints its report through to_json: keys sorted, a
two-space indent, complex numbers as [re, im] and non-finite floats as
NaN / Infinity / -Infinity, byte for byte what json.dumps(..., sort_keys=True,
indent=2) writes.  to_json is one emitter that appends to one list.  It
writes each float's text once per report and reuses it, since a float
prints the same wherever it stands; ±0.0 (equal, printed apart) and NaN
(equal to nothing) are written afresh each time.  Each dict's sorted keys,
with the text before its values, are cached per key tuple and indent.
``python -m bethe_forge`` runs main from a checkout.

Exit codes: 0 success, 2 parse error or bad option value, 3 hypothesis-gate
violation, 4 mode refusal, 1 internal error or failed verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import constraints, families, oracle, reductions
from .bethe import BAE_TOL, M_MAX
from .hamiltonian import (FRAME_WORDS, OFFDIAG_KEYS, GateViolation, _pair_to_c,
                          apply_charge_conjugation, apply_frame, check_chain,
                          params_from_dict, params_to_dict, with_zero_v00)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_GATE = 3
EXIT_REFUSED = 4


@dataclass
class RunConfig:
    """One run's options, as build_parser defines and defaults them; the
    input path, L and M_range are None where the mode takes none."""

    input_path: str | None
    mode: str
    L: int | None
    M_range: tuple | None
    tol_constraint: float
    tol_bae: float
    tol_eig: float
    json_output: bool
    conjugate_vacuum: bool

    def __post_init__(self):
        # a relative tolerance of 1 or more accepts a residual as large as
        # the quantity it is measured against
        if not all(0 < t < 1 for t in
                   (self.tol_constraint, self.tol_bae, self.tol_eig)):
            raise ValueError("tolerances must lie strictly between 0 and 1")
        if self.mode not in ("spectrum", "verify"):
            return
        lo, hi = self.M_range
        if not 0 <= lo <= hi:
            raise ValueError(f"M range {lo}..{hi} is empty or negative")
        # sector dimensions rise with M up to M = L and fall after it: the
        # range's largest sector is the one nearest M = L
        check_chain(self.L, min(max(lo, self.L), hi))


_escape = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_JSON_TYPES = (dict, list, tuple, str, int, float, complex)


@functools.lru_cache(maxsize=1024)
def _key_layout(keys, nl):
    """The str keys of a dict opened at line break and indent nl, sorted,
    each with the text written before its value ('{' for the first key and
    ',' for the rest, the keys' line break and indent, the key and ': '),
    and the keys' line break and indent."""
    inner = nl + "  "
    keys = sorted(keys)
    opens = ["{" + inner] + ["," + inner] * (len(keys) - 1)
    return tuple((k, f"{o}{_escape(k)}: ") for k, o in zip(keys, opens)), inner


def to_json(obj):
    """The --json text of a report: the bytes json.dumps(obj, sort_keys=True,
    indent=2) writes, with complex numbers as [re, im], numpy scalars and
    arrays as their .item() and .tolist() values, and dict keys through str().

    Written in one pass because json falls back to its pure-Python encoder
    when asked to indent.  A nested render appends to one list, joined into
    one chunk after any dict that leaves it over 512 pieces.  The float,
    complex, bool and int values of a dict, and the float and complex items
    of a list, are written inline, without a call of their own.  A dict
    local to the call maps each float already written to its text (not
    ±0.0, equal but printed apart, nor NaN).  Trivial-S roots are roots of
    unity, so it serves 71% of the nonzero floats of verify-trivial reports
    (L = 12), whose text takes 3.3-3.5 ms with it and 4.9-5.4 ms without;
    verify-newton reports reuse 5%, about 2.1 ms either way.  The sorted
    keys of each dict and the text before its values come from
    _key_layout, cached per key tuple and indent."""
    chunks, out = [], []
    emit = out.append
    memo = {math.inf: "Infinity", -math.inf: "-Infinity"}
    cached = memo.get
    complex128 = np.complex128

    def ftext(x):
        if x != 0 and x == x:
            memo[x] = text = _float_repr(x)
            return text
        return "NaN" if x != x else _float_repr(x)

    def render(obj, nl):
        t = type(obj)
        if t is dict:
            if not obj:
                emit("{}")
                return
            keys = tuple(obj)
            for k in keys:
                if type(k) is not str:
                    obj = {str(k): v for k, v in obj.items()}
                    keys = tuple(obj)
                    break
            heads, inner = _key_layout(keys, nl)
            part = inner + "  "
            for k, head in heads:
                v = obj[k]
                t = type(v)
                if t is float:
                    emit(head + (cached(v) or ftext(v)))
                elif t is complex or t is complex128:
                    re, im = v.real, v.imag
                    emit(f"{head}[{part}{cached(re) or ftext(re)},"
                         f"{part}{cached(im) or ftext(im)}{inner}]")
                elif t is bool:
                    emit(head + ("true" if v else "false"))
                elif t is int:
                    emit(head + int.__repr__(v))
                else:
                    emit(head)
                    render(v, inner)
            emit(nl + "}")
            if len(out) > 512:
                # each piece costs some 57 bytes beyond its text: join them
                # as they come, so a large report is not held twice over
                chunks.append("".join(out))
                out.clear()
        elif t is list or t is tuple:
            if not obj:
                emit("[]")
                return
            inner = nl + "  "
            part = inner + "  "
            head, sep = "[" + inner, "," + inner
            for v in obj:
                t = type(v)
                if t is float:
                    emit(head + (cached(v) or ftext(v)))
                elif t is complex or t is complex128:
                    re, im = v.real, v.imag
                    emit(f"{head}[{part}{cached(re) or ftext(re)},"
                         f"{part}{cached(im) or ftext(im)}{inner}]")
                else:
                    emit(head)
                    render(v, inner)
                head = sep
            emit(nl + "]")
        elif t is float:
            emit(cached(obj) or ftext(obj))
        elif t is complex or t is complex128:
            inner = nl + "  "
            re, im = obj.real, obj.imag
            emit(f"[{inner}{cached(re) or ftext(re)},"
                 f"{inner}{cached(im) or ftext(im)}{nl}]")
        elif t is str:
            emit(_escape(obj))
        elif obj is True:
            emit("true")
        elif obj is False:
            emit("false")
        elif t is int:
            emit(int.__repr__(obj))
        elif obj is None:
            emit("null")
        elif isinstance(obj, np.generic):
            render(obj.item(), nl)
        elif isinstance(obj, np.ndarray):
            render(obj.tolist(), nl)
        else:
            # a subclass of a type above (an IntEnum, a namedtuple) is
            # written as that type
            base = next((b for b in _JSON_TYPES if isinstance(obj, b)), None)
            if base is None:
                raise TypeError(
                    f"Object of type {t.__name__} is not JSON serializable")
            render(base(obj), nl)

    render(obj, "\n")
    # render refers to itself: empty its cell so that the pieces, the chunks
    # and the memo go when the call returns, not at the next collection
    del render
    memo.clear()        # not held while the whole text is joined
    chunks.append("".join(out))
    return "".join(chunks)


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


PRESET_KEYS = ("family", "free", "branch", "half_constrained", "note")
RAW_KEYS = OFFDIAG_KEYS + ("v", "note")


def _known_keys(obj, allowed, what):
    """Raise InputError naming the keys of obj outside allowed: a misspelt
    key would otherwise read as 0 or as the default."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise InputError(f"unknown {what} {', '.join(map(repr, unknown))} "
                         f"(known: {', '.join(allowed) or 'none'})")


def load_input(path):
    """Parse a Hamiltonian or preset file into parameters.  A file that
    cannot be read, decoded or parsed, or holds malformed fields or keys
    unknown to its form (a preset's family, or the raw Hamiltonian), raises
    InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:    # ValueError: bad UTF-8 or JSON
        raise InputError(str(exc)) from exc
    if not isinstance(data, dict):
        raise InputError("input must be a JSON object")
    try:
        if "family" in data:
            tag = data["family"]
            if not isinstance(tag, str) or tag not in families.FAMILIES:
                raise InputError(f"unknown family tag {tag!r}")
            free = data.get("free", {})
            branch = data.get("branch")
            half = data.get("half_constrained", False)
            if not isinstance(free, dict):
                raise InputError("free must be a JSON object")
            if not isinstance(half, bool):
                raise InputError("half_constrained must be true or false")
            fam = families.FAMILIES[tag]
            _known_keys(data, PRESET_KEYS, "preset key")
            names = fam.half_free_names if half else fam.free_names
            if names is not None:       # else construct refuses the form
                _known_keys(free, names, f"free parameter of {tag}")
            free = {k: _pair_to_c(v) for k, v in free.items()}
            if isinstance(branch, dict):
                _known_keys(branch, tuple(fam.branches[0]),
                            f"branch key of {tag}")
                branch = {k: _pair_to_c(v) for k, v in branch.items()}
            return families.construct(tag, free, branch, half_constrained=half)
        _known_keys(data, RAW_KEYS, "Hamiltonian key")
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
    verdict = constraints.is_cba_solvable(params, tol=cfg.tol_constraint)
    match = (families.classify(params, tol=cfg.tol_constraint)
             if verdict.solvable else None)
    return params, verdict, match


def _vacuous_field(verdict):
    """The report field that flags a vacuous verdict (every summand of the
    constraint sums exactly 0), present only then."""
    return {"constraints_vacuous": True} if verdict.vacuous else {}


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def run_classify(cfg):
    params, verdict, match = _analyse(cfg)
    report = {
        "mode": "classify",
        "solvable": verdict.solvable,
        "max_constraint_residual": verdict.max_residual,
        **_vacuous_field(verdict),
        "constraint_samples": verdict.samples,
        "failing_constraint": verdict.failing_constraint,
        "input": params_to_dict(params),
    }
    if not verdict.solvable:
        report["family"] = None
        return report
    if match is None:
        z1, z2 = constraints.SAMPLE_TABLES["E21"][0, :2]
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
                     f"over {report['constraint_samples']} samples)"
                     + ("; constraints vacuous: N ≡ 0"
                        if report.get("constraints_vacuous") else ""))
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
    if hi > M_MAX:
        raise ModeRefusal(f"M <= {M_MAX} supported")
    reps = [oracle.verify_sector(params, cfg.L, M, cfg.tol_bae, cfg.tol_eig)
            for M in range(lo, hi + 1)]
    all_ok = all(rep.passed for rep in reps)
    return {
        "mode": cfg.mode,
        "L": cfg.L,
        "family": match.tag if match else None,
        "solvable": True,
        "max_constraint_residual": verdict.max_residual,
        **_vacuous_field(verdict),
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
        # a root set with no block is unverified before assembly, unmeasured
        if check.eig_residual is not None:
            entry["eig_residual"] = check.eig_residual
        entry["verified"] = check.outcome != "unverified"
        if check.message:
            entry["rejected"] = check.message
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
            if ent.get("verified") is False:
                extra += "  [unverified]"
            if "rejected" in ent:
                extra += f"  [rejected: {ent['rejected']}]"
            flag = (" (same state as an earlier root set)"
                    if ent.get("equivalent_state") else "")
            lines.append(f"    z = ({zs})  E = {_fmt_c(ent['energy'], 5)}  "
                         f"bae res {ent['bae_residual']:.1e}{extra}{flag}")
        if sec["unmatched_energies"]:
            lines.append("    unmatched: "
                         + ", ".join(_fmt_c(e) for e in sec["unmatched_energies"]))
        if any(sec["uncovered_by_momentum"]):
            lines.append("    ED states uncovered, per momentum block: "
                         + ", ".join(f"{m}: {n}" for m, n in enumerate(
                             sec["uncovered_by_momentum"]) if n))
    lines.append("all eigenpairs verified" if report["all_verified"]
                 else "SOME EIGENPAIRS FAILED VERIFICATION")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _pct_table(tag, params):
    """(actions, invariances) of params, a member of family tag on its
    first branch: the family, frame and branch each of P, C and T maps it
    to, and generators of the frame words that leave it in tag, on the same
    branch, in the identity frame."""
    branch0 = dict(families.FAMILIES[tag].branches[0])
    images = {word: families.classify(apply_frame(params, word), tol=1e-8)
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
    # the frame words the generators span, as letter sets: the frame group
    # is (Z/2)^3, whose product is the symmetric difference
    generators, span = [], {frozenset()}
    for word, m in images.items():
        if (m is not None and m.tag == tag and m.frame == ""
                and all(abs(complex(m.branch[k]) - complex(v)) < 1e-9
                        for k, v in branch0.items())
                and frozenset(word) not in span):
            generators.append(word)
            span |= {w ^ frozenset(word) for w in span}
    return actions, generators


def run_catalog(cfg):
    rows = []
    for tag in families.FAMILY_ORDER:
        fam = families.FAMILIES[tag]
        params = fam.build(fam.generic_free(), fam.branches[0])
        actions, generators = _pct_table(tag, params)
        rows.append({
            "family": tag,
            # the 9 diagonal vertices and the off-diagonal slots the family
            # leaves nonzero (the same on every branch)
            "vertices": 9 + sum(not families._ZERO_MASKS[tag][0] >> k & 1
                                for k in range(len(OFFDIAG_KEYS))),
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


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls.  Each subcommand declares only the options its run
    function reads; every RunConfig field takes its default from the one
    set_defaults below, whether or not the subcommand declares it."""
    ap = argparse.ArgumentParser(
        prog="bethe-forge",
        description="Classify and solve three-state spin-chain Hamiltonians "
                    "by coordinate Bethe ansatz.")
    ap.set_defaults(input_path=None, L=None, M_range=None,
                    tol_constraint=constraints.CONSTRAINT_TOL,
                    tol_bae=BAE_TOL, tol_eig=oracle.EIG_TOL,
                    json_output=False, conjugate_vacuum=False)
    sub = ap.add_subparsers(dest="mode", required=True)

    def command(name, analysed=True, **kw):
        # SUPPRESS: an option not given sets nothing, and the default above
        # holds
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS, **kw)
        if analysed:        # the input and the options _analyse reads
            p.add_argument("input_path", metavar="input",
                           help="Hamiltonian or preset JSON file")
            p.add_argument("--tol-constraint", type=float)
            p.add_argument("--conjugate-vacuum", action="store_true",
                           help="apply charge conjugation first (build on "
                                "the second pseudo-vacuum)")
        p.add_argument("--json", action="store_true", dest="json_output")
        return p

    command("classify", help="solvability + family classification")
    for mode in ("spectrum", "verify"):
        ps = command(mode)
        ps.add_argument("--tol-bae", type=float)
        ps.add_argument("--tol-eig", type=float)
        ps.add_argument("--seed", type=int,
                        help="ignored: the Bethe roots depend on the input "
                             "alone")
        ps.add_argument("--L", type=int, required=True)
        ps.add_argument("--M", type=_parse_m_range, default=(1, 2),
                        dest="M_range",
                        help="excitation range, e.g. 2 or 1..2")
    command("catalog", analysed=False, help="list the ten families")
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    options = vars(ns)
    options.pop("seed", None)           # accepted and read by no run
    try:
        cfg = RunConfig(**options)
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
    except InputError as exc:
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

    code = (EXIT_INTERNAL
            if cfg.mode == "verify" and not report.get("all_verified", False)
            else EXIT_OK)
    try:
        print(to_json(report) if cfg.json_output else text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (`| head`): what is left cannot be
        # written, and the interpreter's flush at exit must not try again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
