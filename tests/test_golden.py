"""Golden checks on the shipped presets (named models from the literature)."""

import json
from pathlib import Path

import numpy as np
import pytest

import bethe_forge as bf
from bethe_forge.cli import load_input

PRESETS = Path(__file__).resolve().parents[1] / "src" / "bethe_forge" / "presets"

EXPECTED_FAMILY = {
    "gZF": "gZF", "gIK": "gIK", "gB": "gB", "SpR": "SpR", "SB5": "SB5",
    "17V1a": "17V1a", "17V1b": "17V1b", "17V2": "17V2",
    "14V1": "14V1", "14V2": "14V2",
    "zamolodchikov_fateev": "gZF", "martins_1A": "gZF",
    "izergin_korepin": "gIK", "martins_2A": "gIK",
    "bariev": "gB", "martins_2B": "gB", "main_branch_genus5": "gB",
    "martins_1B": "SpR", "special_branch_genus5": "SB5",
}


@pytest.mark.parametrize("name", sorted(EXPECTED_FAMILY))
def test_preset_solvable_and_classified(name):
    params = load_input(str(PRESETS / f"{name}.json"))
    verdict = bf.is_cba_solvable(params)
    assert verdict.solvable and verdict.max_residual <= 1e-9
    m = bf.classify(params)
    assert m is not None
    assert m.tag == EXPECTED_FAMILY[name]
    assert m.frame == ""
    assert m.fit_residual <= 1e-9


def test_all_presets_covered():
    found = {p.stem for p in PRESETS.glob("*.json")}
    assert found == set(EXPECTED_FAMILY)


def test_zf_preset_hits_spin1_xxz_point():
    params = load_input(str(PRESETS / "zamolodchikov_fateev.json"))
    red = bf.reduced_parameters(params)
    k = 2.0
    assert abs(red.tau_p + 1) < 1e-12
    assert abs(red.sigma - ((k**2 + 1) / k)**2) < 1e-12


def test_izergin_korepin_preset_parameters():
    params = load_input(str(PRESETS / "izergin_korepin.json"))
    m = bf.classify(params)
    assert abs(m.free_params["v"] - 4.0 / 13.0) < 1e-12
    _, red = bf.reduce_hamiltonian(params, m)
    d = 0.25
    assert abs(red.extra["u_t1"] + (d**2 - d + 1)**2 / d**4) < 1e-9


def test_martins_2a_other_branch():
    a = load_input(str(PRESETS / "izergin_korepin.json"))
    b = load_input(str(PRESETS / "martins_2A.json"))
    ma = bf.classify(a)
    mb = bf.classify(b)
    assert ma.branch != mb.branch
    assert abs(ma.free_params["v"] - mb.free_params["v"]) < 1e-12


def test_bariev_preset_remark_values():
    params = load_input(str(PRESETS / "bariev.json"))
    inv = bf.invariants(params)
    tp = 2.0
    assert abs(params.t3 - 1) < 1e-12 and abs(params.s3 - 1) < 1e-12
    assert abs(params.sp - tp) < 1e-12
    assert abs(inv.X11 + tp) < 1e-12
    assert abs(inv.Y - (tp + 1 / tp)) < 1e-12
    assert abs(inv.X22 - 1 / tp) < 1e-12


def test_bariev_preset_scattering_form():
    """At the Bariev point the printed one-parameter S-matrix applies."""
    params = load_input(str(PRESETS / "bariev.json"))
    taup = 2.0
    rng = np.random.default_rng(5)
    for _ in range(10):
        z1, z2 = (complex(*c) for c in
                  (rng.uniform(0.5, 1.5, 2) * np.exp(2j * np.pi * rng.uniform(0, 1, 2))
                   .view(float).reshape(2, 2)))
        num = (taup**2 * z1**2 * z2**2 - taup * z1**2 * z2 + z1 * z2
               - taup**2 * z2**2 - taup * z1 + taup**2)
        den = (taup**2 * z1**2 * z2**2 - taup * z1 * z2**2 + z1 * z2
               - taup**2 * z1**2 - taup * z2 + taup**2)
        expect = -num / den
        assert abs(bf.s_matrix(params, z1, z2) - expect) < 1e-10 * abs(expect)


def test_martins_1b_reduced_point():
    params = load_input(str(PRESETS / "martins_1B.json"))
    red = bf.reduced_parameters(params)
    assert abs(red.tau_3 - (-1)) < 1e-12          # t3/p = 2i/(-2i)
    assert abs(red.tau_p - np.sqrt(3)) < 1e-12    # tp/p = -2i sqrt(3)/(-2i)
    assert abs(red.theta - 1) < 1e-12


def test_special_branch_preset_lambda_value():
    raw = json.loads((PRESETS / "special_branch_genus5.json").read_text())
    assert raw["family"] == "SB5"
    Y = complex(*raw["free"]["Y"])
    assert abs(Y - 4 * 0.3) < 1e-12


@pytest.mark.parametrize("name", sorted(EXPECTED_FAMILY))
def test_preset_spectrum_pipeline(name, capsys):
    """Every preset fully verifies through the spectrum pipeline, including
    the symmetric specialization points where distinct Bethe root sets can
    describe one state."""
    from bethe_forge.cli import main
    code = main(["spectrum", str(PRESETS / f"{name}.json"),
                 "--L", "4", "--M", "1..2", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["all_verified"], name
    assert report["sectors"][0]["completeness"] == 1.0
    m2 = report["sectors"][1]
    assert m2["matched"] == m2["verified"]


@pytest.mark.parametrize("tol", ["0.5", "0.7", "0.999"])
@pytest.mark.parametrize("name", sorted(EXPECTED_FAMILY))
def test_preset_family_at_loose_tolerance(name, tol, capsys):
    """Under a loose --tol-constraint several families fit a preset; the
    best-fitting one is reported, which is the preset's own (the first fit
    by precedence was often another, e.g. gIK for gB at 0.7, or gZF, whose
    reduction then failed)."""
    from bethe_forge.cli import main
    code = main(["classify", str(PRESETS / f"{name}.json"),
                 "--tol-constraint", tol, "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["family"] == EXPECTED_FAMILY[name]
