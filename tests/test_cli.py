"""Command-line interface: reports, exit codes, determinism."""

import argparse
import collections
import dataclasses
import enum
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import bethe_forge as bf
from bethe_forge import bethe, cli, constraints
from bethe_forge.cli import main
from bethe_forge.hamiltonian import OFFDIAG_KEYS

SRC = Path(__file__).resolve().parents[1] / "src"
PRESETS = SRC / "bethe_forge" / "presets"


GB_FREE = {"p": [1, 0], "q": [0.6, 0.2], "t1": [0.9, -0.4],
           "t2": [1.1, 0.3], "tp": [0.7, 0.5]}


def write_params(tmp_path, params, name="h.json"):
    path = tmp_path / name
    path.write_text(json.dumps(bf.params_to_dict(params)))
    return str(path)


@pytest.fixture
def gzf_file(tmp_path, rng):
    from conftest import draw_free
    return write_params(tmp_path, bf.construct("gZF", draw_free("gZF", rng)))


class TestClassifyCommand:
    def test_preset_file(self, capsys):
        code = main(["classify", str(PRESETS / "gZF.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "family: gZF" in out
        assert "CBA-solvable: yes" in out

    def test_degenerate_point_in_text(self, capsys, tmp_path, rng):
        """At a point two families share (gZF at sigma = 1, an SpR member)
        the text names every family that fits, as the JSON lists them."""
        from conftest import cdraw
        p, tp, t2 = cdraw(rng), cdraw(rng), cdraw(rng)
        path = write_params(tmp_path, bf.construct(
            "gZF", dict(p=p, tp=tp, t2=t2, s1=p**2 / t2)))
        main(["classify", path, "--json"])
        report = json.loads(capsys.readouterr().out)
        tags = sorted({m["family"] for m in report["all_matches"]})
        assert report["degenerate_match"] and len(tags) > 1
        main(["classify", path])
        assert (f"degenerate point: also consistent with {tags}"
                in capsys.readouterr().out.splitlines())

    def test_fit_residual_in_json(self, capsys, gzf_file):
        code = main(["classify", gzf_file, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["family"] == "gZF"
        assert report["fit_residual"] <= 1e-9
        assert report["solvable"] is True

    def test_unsolvable_reported(self, capsys, tmp_path, rng):
        from conftest import random_params
        path = write_params(tmp_path, random_params(rng))
        code = main(["classify", path, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["solvable"] is False
        assert report["family"] is None
        assert report["max_constraint_residual"] > 1e-9

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["classify", str(bad)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["classify", str(tmp_path / "nope.json")]) == 2

    def test_gate_violation_exit_3(self, tmp_path):
        path = write_params(tmp_path, bf.HamiltonianParams(p=1, q=1))
        assert main(["classify", path]) == 3

    @pytest.mark.parametrize("mode", ["classify", "verify"])
    @pytest.mark.parametrize("couplings", [dict(s1=1, t3=1),
                                           dict(s2=0.5, s3=2)],
                             ids=["s1-t3", "s2-s3"])
    def test_vanishing_lambda_exit_3(self, tmp_path, capsys, mode,
                                     couplings):
        """Both gates pass, but Lambda is exactly 0 wherever it is
        sampled, so S and N are undefined: classify and verify stop at the
        hypothesis gate with exit 3 and no report."""
        path = write_params(tmp_path, bf.HamiltonianParams(**couplings))
        extra = ["--L", "4", "--M", "1..2"] if mode == "verify" else []
        assert main([mode, path, "--json"] + extra) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("hypothesis gate: Lambda ≡ 0")
        assert captured.out == ""

    @pytest.mark.parametrize("mode", ["classify", "verify"])
    def test_underflowing_lambda_exit_3(self, tmp_path, capsys, mode):
        """The gB preset scaled by 1e-160: Lambda is subnormal, so S is
        singular at every sample and every spare row and none can stand
        in.  classify and verify stop at the hypothesis gate with exit 3,
        not as an internal error."""
        h0 = cli.load_input(PRESETS / "gB.json")
        path = write_params(tmp_path, h0.replace(v=h0.v * 1e-160, **{
            k: getattr(h0, k) * 1e-160 for k in OFFDIAG_KEYS}))
        extra = ["--L", "5"] if mode == "verify" else []
        assert main([mode, path, "--json"] + extra) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "hypothesis gate: S is singular at every momentum sample")
        assert captured.out == ""

    def test_solvable_unclassified_reports_raw_sn(self, capsys, tmp_path, rng):
        from conftest import cdraw
        free = dict(p=cdraw(rng), q=cdraw(rng), tp=cdraw(rng), t2=cdraw(rng),
                    t3=cdraw(rng), s3=cdraw(rng), X22=cdraw(rng))
        h = bf.construct("17V1a", free, half_constrained=True)
        path = write_params(tmp_path, h)
        code = main(["classify", path, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["solvable"] is True
        assert report["family"] is None
        assert report["unclassified"] is True
        assert "raw_s_matrix" in report and "raw_n_factor" in report

    def test_deterministic_json(self, capsys, gzf_file):
        main(["classify", gzf_file, "--json"])
        first = capsys.readouterr().out
        main(["classify", gzf_file, "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_family_tag_exit_2(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"family": "nope", "free": {}}))
        assert main(["classify", str(path)]) == 2

    def test_nonpositive_tolerance_exit_2(self, gzf_file):
        assert main(["classify", gzf_file, "--tol-constraint", "0"]) == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_raw_hamiltonian_exit_2(self, tmp_path, capsys, rng, bad):
        from conftest import draw_free
        d = bf.params_to_dict(bf.construct("gZF", draw_free("gZF", rng)))
        d["p"] = [bad, 0.0]
        d["v"][1][2] = [0.0, bad]
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(d))
        assert main(["classify", str(path)]) == 2
        captured = capsys.readouterr()
        assert "CBA-solvable" not in captured.out
        assert "non-finite" in captured.err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_preset_free_value_exit_2(self, tmp_path, capsys, bad):
        data = json.loads((PRESETS / "gZF.json").read_text())
        data["free"]["p"] = [1.0, bad]
        path = tmp_path / "nonfinite_preset.json"
        path.write_text(json.dumps(data))
        assert main(["classify", str(path)]) == 2
        assert "CBA-solvable" not in capsys.readouterr().out

    @pytest.mark.parametrize("content", [
        {"family": "gB", "free": 5},
        {"family": "gB", "free": GB_FREE, "branch": 7},
        {"family": ["gB"]},
        {"p": [1, 0], "v": 5},
        {"p": [1, 0], "v": [1, 2, 3]},
        {"p": [1, 0], "v": [[0, 0, 0], [0, 0, 0], 5]},
        {"p": [1, None]},
        {"family": "gB", "free": GB_FREE, "half_constrained": "no"},
        {"family": "gB", "free": GB_FREE, "half_constrained": True},
        {"family": "gB", "free": GB_FREE, "branch": True},
        {"family": "gB", "free": GB_FREE, "branch": -1},
        {"family": "gB", "free": GB_FREE, "branch": 1.0},
        {"family": "gB", "free": GB_FREE, "bogus": 3},
        {"family": "gB", "free": {**GB_FREE, "bogus": [3, 0]}},
        {"family": "gB", "free": GB_FREE, "branch": {"foo": [1, 0]}},
        {"family": "gZF", "free": {k: [1, 0] for k in ("p", "tp", "t2", "s1")},
         "branch": {"J": [1, 0]}},
        {"family": "17V2", "half_constrained": True, "free": {
            k: [1, 0] for k in ("p", "q", "tp", "t2", "t3", "s3", "X22")}},
        {"p": [1, 0], "t1": [1, 0], "bogus": 3},
        b'{"family": "gB\xff"}',
        "directory",
        {"p": True, "t1": [1, 0]},
        {"p": [True, False], "t1": [1, 0]},
        {"p": [1, 0], "t1": [1, 0],
         "v": [[0, 0, 0], [0, True, 0], [0, 0, 0]]},
        {"family": "gB", "free": {**GB_FREE, "p": True}},
        {"family": "17V1a", "free": {k: GB_FREE[k] for k in
                                     ("p", "q", "tp", "t2")},
         "branch": {"eps": True}},
    ], ids=["free-not-object", "branch-out-of-range", "family-not-string",
            "v-not-array", "v-flat", "v-row-not-array", "pair-with-null",
            "half-constrained-string", "no-half-constrained-form",
            "branch-bool", "branch-negative", "branch-float",
            "unknown-preset-key", "unknown-free-name", "unknown-branch-key",
            "branch-key-of-no-branch", "unknown-half-free-name",
            "unknown-raw-key", "not-utf8", "directory", "raw-bool",
            "raw-pair-bool", "v-entry-bool", "free-value-bool",
            "branch-value-bool"])
    def test_malformed_file_exit_2(self, tmp_path, capsys, content):
        """Malformed fields, keys the file's form does not know, undecodable
        bytes and an unreadable path are parse errors: exit 2, a "parse
        error:" line and no verdict."""
        path = tmp_path / "bad.json"
        if content == "directory":
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(json.dumps(content))
        assert main(["classify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error:")
        assert captured.out == ""


class TestOverflowingInput:
    """p = q = 1e308: the constraint sums overflow to NaN, which must read
    as not solvable rather than pass and fail later."""

    @pytest.fixture
    def huge_file(self, tmp_path, rng):
        from conftest import random_params
        return write_params(tmp_path, random_params(rng).replace(p=1e308, q=1e308))

    def test_classify_says_not_solvable(self, capsys, huge_file):
        assert main(["classify", huge_file]) == 0
        assert "CBA-solvable: NO" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["spectrum", "verify"])
    def test_spectrum_refused_exit_4(self, mode, huge_file):
        assert main([mode, huge_file, "--L", "4", "--M", "1"]) == 4

    def test_scaled_preset_keeps_its_family(self, capsys, tmp_path):
        """The gB preset times 1e80 is still gB: the classifier matches at
        unit scale, where the couplings' fifth-degree products (1e400
        here) stay in range."""
        h = cli.load_input(str(PRESETS / "gB.json"))
        path = write_params(tmp_path, bf.HamiltonianParams(
            v=h.v * 1e80, **{k: getattr(h, k) * 1e80 for k in OFFDIAG_KEYS}))
        assert main(["classify", path, "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["family"] == "gB"
        assert captured.err == ""

    @pytest.mark.parametrize("scale", [1e9, 1e80, 1e-9])
    def test_scaled_preset_verifies_as_at_scale_1(self, capsys, tmp_path,
                                                  scale):
        """verify reads --tol-eig relative to the sector's largest entry, in
        the eigenpair check as in matching: the gB preset scaled by 1e9,
        1e80 or 1e-9 exits 0 with the counts of scale 1."""
        h = cli.load_input(str(PRESETS / "gB.json"))
        args = ["--L", "5", "--M", "1..2", "--json"]
        counts = []
        for k, c in enumerate((1.0, scale)):
            path = write_params(tmp_path, bf.HamiltonianParams(
                v=h.v * c, **{key: getattr(h, key) * c
                              for key in OFFDIAG_KEYS}), f"h{k}.json")
            assert main(["verify", path] + args) == 0
            counts.append([(s["M"], s["verified"], s["matched"])
                           for s in json.loads(capsys.readouterr().out)
                           ["sectors"]])
        assert counts[1] == counts[0] == [(1, 5, 5), (2, 15, 15)]


class TestSpectrumCommand:
    def test_gzf_m1_full_coverage(self, capsys, gzf_file):
        code = main(["spectrum", gzf_file, "--L", "4", "--M", "1..2", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        m1 = report["sectors"][0]
        assert m1["M"] == 1
        assert m1["matched"] == m1["dimension"] == 4
        assert m1["completeness"] == 1.0
        m2 = report["sectors"][1]
        assert m2["verified"] >= 5
        assert not m2["unmatched_energies"]
        assert report["all_verified"]

    def test_json_report_renders_no_text(self, capsys, gzf_file, monkeypatch):
        def render(report):
            raise AssertionError("text rendered for a --json run")
        monkeypatch.setattr(cli, "_text_spectrum", render)
        assert main(["spectrum", gzf_file, "--L", "4", "--M", "1",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["all_verified"]

    def test_momentum_in_report(self, capsys):
        """Every solution entry names its translation block, and each sector
        counts per block the ED eigenvalues no Bethe state covers."""
        L = 5
        code = main(["verify", str(PRESETS / "gB.json"), "--L", str(L),
                     "--M", "0..3", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        for sec in report["sectors"]:
            uncovered = sec["uncovered_by_momentum"]
            assert len(uncovered) == L
            assert sum(uncovered) == sec["dimension"] - sec["matched"]
            for ent in sec["solutions"]:
                assert ent["momentum"] == bf.momentum(
                    [complex(*z) for z in ent["z"]], L)
        m1 = report["sectors"][1]
        assert sorted(e["momentum"] for e in m1["solutions"]) == list(range(L))
        assert report["sectors"][0]["solutions"][0]["momentum"] == 0

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_root_set_with_no_block_fails_verify(
            self, capsys, monkeypatch, json_flag):
        """A root set whose prod z is no L-th root of unity is reported
        unverified with the message naming prod z, in JSON and in text, and
        verify exits 1."""
        solve = bf.oracle.solve_bae
        z = (1.1 + 0.2j, 0.7 - 0.4j)

        def with_stray(params, L, M, cfg):
            stray = bethe.BetheSolution(z, bf.energy(params, z), 0.0)
            return solve(params, L, M, cfg) + [stray]

        monkeypatch.setattr(bf.oracle, "solve_bae", with_stray)
        code = main(["verify", str(PRESETS / "gB.json"), "--L", "5",
                     "--M", "2"] + json_flag)
        out = capsys.readouterr().out
        assert code == 1
        assert f"prod z = {complex(z[0] * z[1])}" in out
        if json_flag:
            report = json.loads(out)
            ent = report["sectors"][0]["solutions"][-1]
            assert ent["momentum"] is None and ent["verified"] is False
            assert ent["rejected"].startswith("no translation block")
            assert "eig_residual" not in ent
            assert not report["all_verified"]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_translation_defect_fails_verify(
            self, capsys, monkeypatch, json_flag):
        """SB5's bound state near (-1.482184 - 0.495386i, 0.606886 -
        0.202838i) at L = 16, M = 2 (|z|^L = 7.9e-4 at its smaller root)
        with its smaller root scaled by 1 + 1e-10 passes the block residual
        but not the translation defect gate: it is reported unverified with
        its residual and the defect, in JSON and in text, and verify exits
        1.  (A deeper bound state, |z|^L = 1e-5, pushed as far fails the
        block residual too.)"""
        solve = bf.oracle.solve_bae
        near = np.array([-1.482184 - 0.495386j, 0.606886 - 0.202838j])

        def with_pushed(params, L, M, bae_tol):
            sols = solve(params, L, M, bae_tol)
            z = np.array(min(sols, key=lambda s: np.abs(
                np.sort_complex(np.array(s.z)) - near).max()).z)
            z[np.argmin(np.abs(z))] *= 1 + 1e-10
            pushed = bethe.BetheSolution(tuple(z), bf.energy(params, z), 0.0)
            return sols + [pushed]

        monkeypatch.setattr(bf.oracle, "solve_bae", with_pushed)
        code = main(["verify", str(PRESETS / "SB5.json"), "--L", "16",
                     "--M", "2"] + json_flag)
        out = capsys.readouterr().out
        assert code == 1
        if not json_flag:
            assert "rejected: translation defect" in out
            return
        report = json.loads(out)
        ent = report["sectors"][0]["solutions"][-1]
        assert ent["verified"] is False and ent["eig_residual"] <= 1e-8
        assert ent["rejected"].startswith("translation defect")
        assert not report["all_verified"]

    def test_unmatched_energies_in_text(self, capsys, monkeypatch):
        """A sector whose verified energies all miss the ED spectrum (each
        moved by 1 before matching) lists them on its unmatched line, as
        the JSON report does."""
        compare = bf.oracle.compare

        def shifted(verified, spec, **kw):
            return compare([dataclasses.replace(s, energy=s.energy + 1)
                            for s in verified], spec, **kw)
        monkeypatch.setattr(bf.oracle, "compare", shifted)
        argv = ["spectrum", str(PRESETS / "gB.json"), "--L", "4", "--M", "1"]
        main(argv + ["--json"])
        (sec,) = json.loads(capsys.readouterr().out)["sectors"]
        unmatched = [complex(*e) for e in sec["unmatched_energies"]]
        assert sec["matched"] == 0 and len(unmatched) == sec["dimension"]
        main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert ("    unmatched: " + ", ".join(map(cli._fmt_c, unmatched))
                in lines)

    def test_unsolvable_refused_exit_4(self, tmp_path, rng):
        from conftest import random_params
        path = write_params(tmp_path, random_params(rng))
        assert main(["spectrum", path, "--L", "4", "--M", "1"]) == 4

    def test_m_cap_exit_4(self, gzf_file, monkeypatch):
        assert main(["spectrum", gzf_file, "--L", "4", "--M", "4"]) == 4
        solved = []
        monkeypatch.setattr(bf.oracle, "solve_bae",
                            lambda *args, **kw: solved.append(args[2]))
        assert main(["spectrum", gzf_file, "--L", "4", "--M", "1..4"]) == 4
        assert solved == []

    def test_conjugate_vacuum_run(self, capsys):
        # build on the second pseudo-vacuum of a 17-vertex model
        code = main(["spectrum", str(PRESETS / "17V1a.json"), "--L", "4",
                     "--M", "1..2", "--json", "--conjugate-vacuum"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_verified"]
        assert report["sectors"][0]["completeness"] == 1.0
        # the conjugated run produces its own verified eigenvector family
        assert report["sectors"][1]["verified"] > 0

    def test_chain_too_large_exit_2(self, capsys, gzf_file, monkeypatch):
        """A sector past the size guard anywhere in the M range exits 2
        with an error line before any sector is solved."""
        def no_solve(*args):
            raise AssertionError("sector solved past the guard")

        monkeypatch.setattr(bf.oracle, "solve_bae", no_solve)
        for L, M in (("31", "3..3"), ("31", "1..3"), ("171", "0..1")):
            assert main(["spectrum", gzf_file, "--L", L, "--M", M]) == 2
            captured = capsys.readouterr()
            assert not captured.out
            assert captured.err.startswith("error: chain too large")
        # the stub is live: a chain that fits reaches it
        assert main(["spectrum", gzf_file, "--L", "4", "--M", "1"]) == 1
        assert "sector solved past the guard" in capsys.readouterr().err

    def test_long_chain_needs_no_override(self, capsys):
        """17V1a at L = 12, M = 1..3 verifies with nothing set in the
        environment."""
        code = main(["verify", str(PRESETS / "17V1a.json"), "--L", "12",
                     "--M", "1..3"])
        assert code == 0
        assert capsys.readouterr().out.endswith("all eigenpairs verified\n")

    def test_deterministic_spectrum_json(self, capsys, gzf_file):
        args = ["spectrum", gzf_file, "--L", "4", "--M", "2", "--json",
                "--seed", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


class TestVerifyCommand:
    def test_verify_passes(self, gzf_file):
        assert main(["verify", gzf_file, "--L", "4", "--M", "1..2"]) == 0

    @pytest.mark.parametrize("L, M", [("1", "1"), ("0", "1..2"),
                                      ("4", "3..1"), ("4", "-1")])
    def test_bad_chain_length_or_m_range_exit_2(self, capsys, gzf_file, L, M):
        assert main(["verify", gzf_file, "--L", L, "--M", M]) == 2
        captured = capsys.readouterr()
        assert "verified" not in captured.out
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("path", sorted(PRESETS.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_every_preset_verifies_at_l9(self, capsys, path):
        """verify --L 9 --M 1..3 --json, the benchmark's job, exits 0 with
        every root set verified on every preset."""
        code = main(["verify", str(path), "--L", "9", "--M", "1..3",
                     "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["all_verified"]

    def test_coincident_roots_rejected_before_assembly(self, capsys):
        # Newton finds an M = 2 root set of this run whose two roots agree
        # to about 5e-13; it passes the BAE check, and as a Bethe vector it
        # failed the eigen-residual check (0.91) and the whole verify
        code = main(["verify", str(PRESETS / "17V2.json"), "--L", "7",
                     "--M", "2..3", "--seed", "0", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["all_verified"]
        for sec in report["sectors"]:
            rejected = [e for e in sec["solutions"]
                        if e.get("rejected") == "coincident roots"]
            assert sec["coincident_roots"] == len(rejected) > 0
            for e in rejected:
                assert e["degenerate"]
                assert "eig_residual" not in e and "verified" not in e


class TestNumericOptions:
    @pytest.mark.parametrize("args", [
        ["verify", "gIK", "--L", "5", "--M", "1..2", "--tol-bae", "nan"],
        ["verify", "gIK", "--L", "5", "--M", "1..2", "--tol-eig", "inf"],
        ["classify", "generic", "--tol-constraint", "inf"],
        ["classify", "generic", "--tol-constraint", "0"],
        ["verify", "gIK", "--L", "5", "--M", "1..2", "--tol-eig=-1e-8"],
        ["classify", "gIK", "--tol-constraint", "1"],
        ["classify", "generic", "--tol-constraint", "10"],
        ["spectrum", "gIK", "--L", "5", "--M", "1..2", "--tol-constraint", "1"],
        ["spectrum", "gIK", "--L", "5", "--M", "1..2", "--tol-bae", "10"],
        ["spectrum", "gIK", "--L", "5", "--M", "1..2", "--tol-eig", "1.0"],
        ["verify", "gIK", "--L", "5", "--M", "1..2", "--tol-constraint", "10"],
        ["verify", "gIK", "--L", "5", "--M", "1..2", "--tol-bae", "1"],
        ["verify", "gIK", "--L", "5", "--M", "1..2", "--tol-eig", "1e300"],
    ])
    def test_bad_value_exit_2(self, capsys, tmp_path, rng, args):
        """NaN, infinite, zero or negative tolerances and tolerances of 1
        or more are refused before any work, with no verdict printed."""
        from conftest import random_params
        files = {"gIK": str(PRESETS / "gIK.json"),
                 "generic": write_params(tmp_path, random_params(rng))}
        assert main([files.get(a, a) for a in args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "verified" not in captured.out
        assert "CBA-solvable" not in captured.out

    def test_constraint_samples_is_no_option(self, capsys, gzf_file):
        """The sample points are fixed, so --constraint-samples is an
        unknown option: exit 2, no verdict printed."""
        assert main(["classify", gzf_file, "--constraint-samples", "5"]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --constraint-samples" in captured.err
        assert captured.out == ""


class TestOptionsPerSubcommand:
    """Each subcommand accepts only the options its run reads, and only
    tolerances strictly between 0 and 1: a relative tolerance of 1 or more
    accepts a residual as large as what it is measured against."""

    def test_declared_options(self):
        """20 options over the four subcommands: 3, 8, 8 and 1."""
        spectrum = {"--tol-constraint", "--conjugate-vacuum", "--json",
                    "--tol-bae", "--tol-eig", "--seed", "--L", "--M"}
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        declared = {mode: {o for a in p._actions for o in a.option_strings}
                    - {"-h", "--help"} for mode, p in sub.choices.items()}
        assert declared == {
            "classify": {"--tol-constraint", "--conjugate-vacuum", "--json"},
            "spectrum": spectrum, "verify": spectrum,
            "catalog": {"--json"}}

    @pytest.mark.parametrize("mode, option", [
        ("classify", ["--tol-bae", "1e-3"]),
        ("classify", ["--tol-eig", "1e-3"]),
        ("classify", ["--seed", "5"]),
        ("catalog", ["--tol-constraint", "1e-3"]),
        ("catalog", ["--tol-bae", "1e-3"]),
        ("catalog", ["--tol-eig", "1e-3"]),
        ("catalog", ["--conjugate-vacuum"]),
        ("catalog", ["--seed", "0"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_unread_option_refused(self, capsys, mode, option):
        """An option the subcommand does not read is unknown to it: exit 2,
        nothing printed to stdout."""
        path = [str(PRESETS / "gB.json")] if mode == "classify" else []
        assert main([mode, *path, *option, "--json"]) == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {option[0]}" in captured.err
        assert captured.out == ""

    def test_abbreviated_tolerance(self, capsys):
        """argparse takes a unique prefix for the option.  classify has one
        tolerance, so --tol is --tol-constraint there and is held to the
        same range.  spectrum and verify have three, so --tol is ambiguous
        there: exit 2."""
        gb = str(PRESETS / "gB.json")
        outs = []
        for option in ("--tol", "--tol-constraint"):
            assert main(["classify", gb, option, "1e-3", "--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert main(["classify", gb, "--tol", "10", "--json"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        for mode in ("spectrum", "verify"):
            assert main([mode, gb, "--L", "5", "--tol", "1e-3"]) == 2
            captured = capsys.readouterr()
            assert "ambiguous option: --tol" in captured.err
            assert captured.out == ""

    def test_generic_input_neither_solvable_nor_verified(self, capsys,
                                                         tmp_path, rng):
        """A generic 19-vertex input, whose constraint residual lies between
        1 and 10, read as solvable under --tol-constraint 10 and as all
        verified with every tolerance at 10.  Both runs now exit 2 with no
        report."""
        from conftest import random_params
        path = write_params(tmp_path, random_params(rng))
        assert main(["classify", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert not report["solvable"]
        assert 1 < report["max_constraint_residual"] < 10
        for args in (["classify", path, "--tol-constraint", "10"],
                     ["verify", path, "--L", "5", "--M", "1..2",
                      "--tol-constraint", "10", "--tol-bae", "10",
                      "--tol-eig", "10"]):
            assert main(args + ["--json"]) == 2, args
            captured = capsys.readouterr()
            assert captured.err.startswith("error:")
            assert captured.out == ""


class TestSeedFreeVerdict:
    """The solvability verdict and its residual depend on the input alone:
    verify ignores --seed, and classify takes none."""

    @pytest.mark.parametrize("path", sorted(PRESETS.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_reports_equal_across_seeds(self, capsys, path):
        """verify --json --L 5 --M 1..2 prints the same bytes at --seed 0
        and --seed 7."""
        outs = []
        for seed in ("0", "7"):
            main(["verify", str(path), "--L", "5", "--M", "1..2", "--json",
                  "--seed", seed])
            outs.append(capsys.readouterr().out)
        first, second = outs
        assert json.loads(first)["max_constraint_residual"] <= 1e-9
        assert first == second

    def test_unclassified_sample_momenta_fixed(self, capsys, tmp_path, rng):
        """An unclassified input's raw S and N are shown at the first two
        momenta of the first E21 sample row."""
        from conftest import cdraw
        free = dict(p=cdraw(rng), q=cdraw(rng), tp=cdraw(rng), t2=cdraw(rng),
                    t3=cdraw(rng), s3=cdraw(rng), X22=cdraw(rng))
        path = write_params(tmp_path, bf.construct("17V1a", free,
                                                   half_constrained=True))
        main(["classify", path, "--json"])
        first = capsys.readouterr().out
        z1, z2 = constraints.SAMPLE_TABLES["E21"][0, :2]
        report = json.loads(first)
        assert report["unclassified"] is True
        assert report["sample_momenta"] == [[z1.real, z1.imag],
                                            [z2.real, z2.imag]]


class TestVacuousVerdict:
    """Where every summand of the constraint sums is exactly 0 (N = 0
    identically), classify and verify reports say so beside "solvable";
    nowhere else do they carry the field."""

    @pytest.mark.parametrize("tag", ["14V1", "14V2", "17V1a", "17V1b", "17V2"])
    def test_off_family_member_flagged(self, capsys, tmp_path, tag):
        """The 14V/17V presets in frame PT with p scaled by 1 + 1e-3: on no
        family, every summand 0."""
        h = bf.apply_frame(cli.load_input(str(PRESETS / f"{tag}.json")), "PT")
        path = write_params(tmp_path, h.replace(p=h.p * (1 + 1e-3)))
        assert main(["classify", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["solvable"] is True and report["family"] is None
        assert report["constraints_vacuous"] is True
        assert main(["classify", path]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("CBA-solvable: yes")
        assert first.endswith("; constraints vacuous: N ≡ 0")
        main(["verify", path, "--L", "4", "--M", "1..2", "--json"])
        assert json.loads(capsys.readouterr().out)["constraints_vacuous"] is True

    def test_field_absent_elsewhere(self, capsys, tmp_path, rng):
        """Presets, their vacuous-free frames and generic inputs carry no
        constraints_vacuous field and no text note."""
        from conftest import random_params
        generic = write_params(tmp_path, random_params(rng))
        for argv in (["classify", str(PRESETS / "17V2.json")],
                     ["classify", str(PRESETS / "gB.json")],
                     ["classify", generic],
                     ["verify", str(PRESETS / "14V2.json"), "--L", "4",
                      "--M", "1..2"]):
            main(argv + ["--json"])
            assert "constraints_vacuous" not in json.loads(
                capsys.readouterr().out), argv
            main(argv)
            assert "vacuous" not in capsys.readouterr().out, argv


class TestCatalogCommand:
    def test_ten_rows(self, capsys):
        code = main(["catalog", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["families"]) == 10
        tags = [row["family"] for row in report["families"]]
        assert tags == list(bf.FAMILY_ORDER)

    def test_pct_actions_regenerated(self, capsys):
        main(["catalog", "--json"])
        report = json.loads(capsys.readouterr().out)
        rows = {row["family"]: row for row in report["families"]}
        gik = rows["gIK"]["pct_actions"]
        assert gik["P"].startswith("gIK via identity") and "swapped" in gik["P"]
        assert gik["T"] == "gIK via identity"
        assert rows["gZF"]["pct_actions"] == {
            "P": "gZF via identity", "C": "gZF via identity",
            "T": "gZF via identity"}
        assert rows["17V1a"]["pct_actions"]["T"] == "17V1a via T"

    def test_invariance_column_matches_table(self, capsys):
        main(["catalog", "--json"])
        report = json.loads(capsys.readouterr().out)
        rows = {row["family"]: set(row["invariances"])
                for row in report["families"]}
        assert rows["gZF"] == {"P", "C", "T"}
        assert rows["gIK"] == {"T", "PC"}
        assert rows["gB"] == {"T", "PC"}
        assert rows["SpR"] == {"P", "C", "T"}
        assert rows["SB5"] == {"PCT"}
        assert rows["17V1a"] == {"P", "C"}
        assert rows["17V1b"] == set()
        assert rows["17V2"] == {"P", "C"}
        assert rows["14V1"] == {"PC"}
        assert rows["14V2"] == {"PC"}

    def test_vertex_counts(self, capsys):
        """19 vertices for the 19-vertex families, 17 for SB5 and the 17V
        ones, 14 for the 14V ones: the 9 diagonal vertices and one per
        off-diagonal slot the sample leaves nonzero."""
        main(["catalog", "--json"])
        report = json.loads(capsys.readouterr().out)
        rows = {row["family"]: row for row in report["families"]}
        assert {tag: row["vertices"] for tag, row in rows.items()} == {
            "gZF": 19, "gIK": 19, "gB": 19, "SpR": 19, "SB5": 17,
            "17V1a": 17, "17V1b": 17, "17V2": 17, "14V1": 14, "14V2": 14}
        for row in rows.values():
            sample = row["sample"]
            assert row["vertices"] == 9 + sum(
                sample[k] != [0.0, 0.0] for k in OFFDIAG_KEYS)

    def test_sample_round_trips(self, capsys, tmp_path):
        main(["catalog", "--json"])
        report = json.loads(capsys.readouterr().out)
        sample = report["families"][0]["sample"]
        path = tmp_path / "sample.json"
        path.write_text(json.dumps(sample))
        code = main(["classify", str(path), "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["family"] == "gZF"

    def test_text_mode(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "10 solution families" in out
        assert "gIK" in out and "14V2" in out

    def test_sample_is_generic_member(self, capsys):
        """Each row's sample is its family's member at the fixed generic
        point on the first branch."""
        main(["catalog", "--json"])
        report = json.loads(capsys.readouterr().out)
        for row in report["families"]:
            fam = bf.FAMILIES[row["family"]]
            member = fam.build(fam.generic_free(), fam.branches[0])
            assert row["sample"] == json.loads(
                cli.to_json(bf.params_to_dict(member)))

    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_table_same_at_random_members(self, capsys, rng, tag):
        """The P/C/T actions, invariances and vertex count of the catalog
        row hold at 20 random members of the first branch, each free value
        drawn with modulus in [0.6, 1.4) and a uniform phase."""
        main(["catalog", "--json"])
        (row,) = [r for r in json.loads(capsys.readouterr().out)["families"]
                  if r["family"] == tag]
        fam = bf.FAMILIES[tag]
        for _ in range(20):
            free = {n: rng.uniform(0.6, 1.4) * np.exp(1j * rng.uniform(
                0, 2 * np.pi)) for n in fam.free_names}
            h = fam.build(free, fam.branches[0])
            actions, invariances = cli._pct_table(tag, h)
            assert (actions, invariances) == (row["pct_actions"],
                                              row["invariances"])
            assert row["vertices"] == 9 + sum(getattr(h, k) != 0
                                              for k in OFFDIAG_KEYS)


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


def _reference_dumps(obj):
    """The --json encoder that cli.to_json replaced: convert, then json's
    pure-Python indent encoder."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2)


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
                     1.7976931348623157e308, 1e16, float("nan"),
                     float("inf"), float("-inf")]))
_NUMPY_SCALARS = st.one_of(
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers().map(np.complex128))
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=3)),
    hnp.arrays(np.complex128, hnp.array_shapes(max_dims=2, max_side=3)))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, st.text(),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    _NUMPY_SCALARS, _ARRAYS)
_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.floats(),
                  st.booleans(), st.none())
_VALUES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(_KEYS, kids, max_size=4)), max_leaves=20)


_NAN, _INF = float("nan"), float("inf")


def _floats(obj):
    """The nonzero finite floats of a converted report, with repeats."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for v in obj for x in _floats(v)]
    return [obj] if type(obj) is float and obj and math.isfinite(obj) else []


class TestJsonReport:
    """cli.to_json prints the bytes of the encoder it replaced."""

    @staticmethod
    def _printed_and_reference(argv, capsys, monkeypatch):
        reports = []
        for name in ("run_classify", "run_spectrum", "run_catalog"):
            run = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda cfg, run=run: reports.append(run(cfg))
                or reports[-1])
        main(argv)
        (report,) = reports
        return capsys.readouterr().out, _reference_dumps(report) + "\n"

    @pytest.mark.parametrize("argv", [
        ["catalog"],
        ["classify", str(PRESETS / "gZF.json")],
        ["verify", str(PRESETS / "gB.json"), "--L", "5", "--M", "0..3"],
        ["verify", str(PRESETS / "14V2.json"), "--L", "6", "--M", "0..3"],
        ["spectrum", str(PRESETS / "izergin_korepin.json"), "--L", "5",
         "--M", "1..3"],
        ["verify", str(PRESETS / "17V2.json"), "--L", "7", "--M", "2..3"],
        ["verify", str(PRESETS / "17V1a.json"), "--L", "12", "--M", "1..3"],
    ])
    def test_every_mode(self, argv, capsys, monkeypatch):
        printed, reference = self._printed_and_reference(
            argv + ["--json"], capsys, monkeypatch)
        assert printed == reference

    def test_unclassified_and_unsolvable(self, capsys, monkeypatch, tmp_path,
                                         rng):
        """An unclassified input reports raw S and N at sample momenta; an
        overflowing one an infinite constraint residual."""
        from conftest import cdraw, random_params
        free = dict(p=cdraw(rng), q=cdraw(rng), tp=cdraw(rng), t2=cdraw(rng),
                    t3=cdraw(rng), s3=cdraw(rng), X22=cdraw(rng))
        inputs = [bf.construct("17V1a", free, half_constrained=True),
                  random_params(rng).replace(p=1e308, q=1e308)]
        printed = []
        for i, h in enumerate(inputs):
            path = write_params(tmp_path, h, f"h{i}.json")
            out, reference = self._printed_and_reference(
                ["classify", path, "--json"], capsys, monkeypatch)
            assert out == reference
            printed.append(out)
            monkeypatch.undo()
        assert '"unclassified": true' in printed[0]
        assert '"max_constraint_residual": Infinity' in printed[1]

    @staticmethod
    def _odd_root_sets(tmp_path, rng):
        """A 14V1 member's file and a solve_bae stand-in that hands over a
        singular, a null and a non-eigenvector root set, then the solver's
        root sets and each again reversed, as in TestCheckRoots."""
        from conftest import cdraw, draw_free
        free = draw_free("14V1", rng)
        path = write_params(tmp_path, bf.construct("14V1", free, {"eps": 1}))
        solve, u = bf.oracle.solve_bae, cdraw(rng)

        def batch(h, L, M, cfg):
            sols = [s for s in solve(h, L, M, cfg) if not s.degenerate_flag]
            K = np.exp(2j * np.pi * bf.momentum(sols[0].z, L) / L)
            taup, w = free["tp"] / free["p"], np.sqrt(K)

            def sol(z):
                return bethe.BetheSolution(tuple(z), bf.energy(h, z), 0.0)
            again = [sol(s.z[::-1]) for s in sols]
            return ([sol([taup, K / taup]), sol([w, w]), sol([u, K / u])]
                    + sols + again)
        return path, batch

    def test_singular_null_and_equivalent_root_sets(self, capsys, monkeypatch,
                                                    tmp_path, rng):
        """A sector whose solver hands over a singular, a null, a
        non-eigenvector and repeated root sets, as in TestCheckRoots."""
        path, batch = self._odd_root_sets(tmp_path, rng)
        monkeypatch.setattr(bf.oracle, "solve_bae", batch)
        printed, reference = self._printed_and_reference(
            ["spectrum", path, "--L", "4", "--M", "2", "--json"], capsys,
            monkeypatch)
        assert printed == reference
        entries = json.loads(printed)["sectors"][0]["solutions"]
        assert entries[0]["eigenvector"].startswith("failed:")
        assert entries[1]["eigenvector"] == "null"
        assert entries[2]["verified"] is False
        assert any(e.get("equivalent_state") for e in entries)

    def test_text_marks_what_json_calls_unverified(self, capsys, monkeypatch,
                                                   tmp_path, rng):
        """Each root set's text line says [unverified] exactly where its
        JSON entry has "verified": false."""
        path, batch = self._odd_root_sets(tmp_path, rng)
        monkeypatch.setattr(bf.oracle, "solve_bae", batch)
        argv = ["spectrum", path, "--L", "4", "--M", "2"]
        main(argv + ["--json"])
        (sec,) = json.loads(capsys.readouterr().out)["sectors"]
        entries = sec["solutions"]
        main(argv)
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("    z = (")]
        marked = [e.get("verified") is False for e in entries]
        assert [" [unverified]" in line for line in lines] == marked
        assert any(marked) and not all(marked)

    @pytest.mark.parametrize("reports", [
        ([0.1, {"a": 0.1, "b": [0.1, {"c": (0.1, complex(0.1, 0.1))}]},
          complex(2.5, 0.1), {"d": complex(0.1, 2.5)}, 2.5],),
        ([0.0, -0.0, {"a": 0.0, "b": -0.0}, complex(0.0, -0.0),
          complex(-0.0, 0.0)],
         [-0.0, 0.0, {"a": -0.0, "b": 0.0}, complex(-0.0, 0.0),
          complex(0.0, -0.0)]),
        ([_NAN, _NAN, {"a": _NAN, "b": [_INF, -_INF, _INF]}, -_INF,
          complex(_NAN, _INF), complex(-_INF, _NAN), complex(_NAN, _NAN)],),
        ([{"b": 1, "a": 2.5, "c": True}, {"c": None, "a": "x", "b": 3},
          {"a": {"c": 1, "b": 2}, "b": [{"b": 3, "c": 4}, {"c": 5, "b": 6}]},
          {"c": {"b": [{"a": 7, "b": 8}]}, "d": {"b": 9, "a": 10}}],),
        ([{1: "int", "1": "str"}, {"1": "str", 1: "int"},
          {None: 1, "None": 2, 2: 3, 10: 4, 1.5: 5, "1.5": 6, False: 7}],),
        ([0.5, -0.0, 1e300, complex(0.5, 1e300)],
         [{"x": 1e300, "y": 0.5}, -0.0, complex(1e300, 0.5)]),
    ], ids=["float_at_depths", "signed_zeros", "non_finite", "key_orders",
            "colliding_keys", "two_reports"])
    def test_edge_values(self, reports, monkeypatch):
        """Each report in turn prints the bytes of the replaced encoder,
        writes the text of each distinct nonzero finite float once and
        leaves no garbage for the cycle collector."""
        written = []
        monkeypatch.setattr(cli, "_float_repr",
                            lambda x: written.append(x) or float.__repr__(x))
        for value in reports:
            written.clear()
            gc.collect()
            gc.disable()
            try:
                text = cli.to_json(value)
            finally:
                gc.enable()
            assert gc.collect() == 0
            assert text == _reference_dumps(value)
            once = [x for x in written if x != 0 and math.isfinite(x)]
            assert sorted(once) == sorted(set(_floats(_jsonable(value))))

    @given(_VALUES)
    def test_nested_values(self, value):
        assert cli.to_json(value) == _reference_dumps(value)

    def test_subclasses_and_other_numpy_types(self):
        point = collections.namedtuple("point", "x y")
        value = [collections.OrderedDict(b=1, a=point(2.5, -0.0)),
                 enum.IntEnum("n", "one two").two, np.str_("\u00e9"),
                 np.complex64(1 + 2j), np.float16(0.1), np.uint8(7),
                 np.array([[1, 2]], dtype=np.int32), np.array([True])]
        assert cli.to_json(value) == _reference_dumps(value)

    @pytest.mark.parametrize("value", [object(), {"a": [1, {2}]}, b"bytes",
                                       np.datetime64("2020-01-01")])
    def test_other_objects_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _reference_dumps(value)
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli.to_json(value)


def test_python_dash_m_runs_the_cli():
    """python -m bethe_forge runs the command line from a checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "bethe_forge", "catalog",
                           "--json"], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["families"]) == 10


def test_classify_and_verify_import_no_numpy_ma():
    """A fresh interpreter that runs classify and verify --L 5 --M 1..3, on
    a preset with whole translation blocks and on one split by grade,
    never imports numpy.ma: np.unique imports it on first use (numpy 2.4),
    so the oracle lists a block's grades without it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    script = "\n".join([
        "import contextlib, io, sys",
        "from bethe_forge.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        *[f"    assert main({argv!r}) == 0"
          for name in ("gB", "17V1a")
          for argv in (["classify", str(PRESETS / f"{name}.json")],
                       ["verify", str(PRESETS / f"{name}.json"), "--L", "5",
                        "--M", "1..3"])],
        "print('numpy.ma' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("args, code", [
    (["catalog", "--json"], 0),
    (["catalog"], 0),
    (["verify", str(PRESETS / "gB.json"), "--L", "4", "--M", "1..2",
      "--json"], 0),
    (["verify", str(PRESETS / "gB.json"), "--L", "4", "--M", "1",
      "--tol-eig", "1e-300"], 1),
], ids=["catalog-json", "catalog-text", "verify-json", "verify-failing"])
def test_reader_closing_early(args, code):
    """A reader that closes the pipe before the report is written (as
    `| head -c 100` can): no traceback, and the exit code the run computed
    (1 for a verification that failed)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "bethe_forge", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code, err
    assert err == ""


def test_one_parser_per_process_keeps_no_state(capsys):
    """main parses with one cached parser.  Classify, verify --seed 5, an
    argument error and catalog, run twice in turn in one process, print
    and return what each prints and returns with a freshly built parser."""
    runs = [
        ["classify", str(PRESETS / "gZF.json"), "--json"],
        ["verify", str(PRESETS / "gB.json"), "--L", "4", "--M", "1..2",
         "--seed", "5", "--json"],
        ["verify", str(PRESETS / "gB.json"), "--L", "four"],
        ["catalog"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
    parser = cli.build_parser()
    assert [run(argv) for argv in runs + runs] == fresh + fresh
    assert cli.build_parser() is parser
