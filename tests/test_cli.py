"""Command-line interface: reports, exit codes, determinism."""

import json
from pathlib import Path

import pytest

import bethe_forge as bf
from bethe_forge import cli
from bethe_forge.cli import main

PRESETS = Path(__file__).resolve().parents[1] / "src" / "bethe_forge" / "presets"


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

    def test_chain_too_large_exit_2(self, gzf_file):
        assert main(["spectrum", gzf_file, "--L", "12", "--M", "1"]) == 2

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
