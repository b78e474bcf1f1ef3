"""Command-line interface: reports, exit codes, determinism."""

import collections
import enum
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import bethe_forge as bf
from bethe_forge import bethe, cli
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
        main(["classify", gzf_file, "--json", "--seed", "5"])
        first = capsys.readouterr().out
        main(["classify", gzf_file, "--json", "--seed", "5"])
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
    ], ids=["free-not-object", "branch-out-of-range", "family-not-string",
            "v-not-array", "v-flat", "v-row-not-array", "pair-with-null",
            "half-constrained-string", "no-half-constrained-form",
            "branch-bool", "branch-negative", "branch-float",
            "unknown-preset-key", "unknown-free-name", "unknown-branch-key",
            "branch-key-of-no-branch", "unknown-half-free-name",
            "unknown-raw-key", "not-utf8", "directory"])
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
        """SB5's deepest bound state at L = 16, M = 2 with its smallest
        root scaled by 1 + 1e-10 passes the block residual but not the
        translation defect gate: it is reported unverified with its
        residual and the defect, in JSON and in text, and verify exits 1."""
        solve = bf.oracle.solve_bae

        def with_pushed(params, L, M, bae_tol):
            sols = solve(params, L, M, bae_tol)
            z = np.array(min(sols, key=lambda s: min(map(abs, s.z))).z)
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
        ["classify", "generic", "--constraint-samples", "0"],
        ["classify", "generic", "--constraint-samples", "-1"],
        ["classify", "generic", "--seed", "-1"],
    ])
    def test_bad_value_exit_2(self, capsys, tmp_path, rng, args):
        """NaN or infinite tolerances, no constraint samples and a negative
        seed are refused before any work, with no verdict printed."""
        from conftest import random_params
        files = {"gIK": str(PRESETS / "gIK.json"),
                 "generic": write_params(tmp_path, random_params(rng))}
        assert main([files.get(a, a) for a in args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "verified" not in captured.out
        assert "CBA-solvable" not in captured.out


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

    def test_singular_null_and_equivalent_root_sets(self, capsys, monkeypatch,
                                                    tmp_path, rng):
        """A sector whose solver hands over a singular, a null, a
        non-eigenvector and repeated root sets, as in TestCheckRoots."""
        from conftest import cdraw, draw_free
        free = draw_free("14V1", rng)
        path = write_params(tmp_path, bf.construct("14V1", free, {"eps": 1}))
        solve = bf.oracle.solve_bae

        def batch(h, L, M, cfg):
            sols = [s for s in solve(h, L, M, cfg) if not s.degenerate_flag]
            K = np.exp(2j * np.pi * bf.momentum(sols[0].z, L) / L)
            taup, w, u = free["tp"] / free["p"], np.sqrt(K), cdraw(rng)

            def sol(z):
                return bethe.BetheSolution(tuple(z), bf.energy(h, z), 0.0)
            again = [sol(s.z[::-1]) for s in sols]
            return ([sol([taup, K / taup]), sol([w, w]), sol([u, K / u])]
                    + sols + again)

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
