"""tools/same_output.py: the byte check of two source trees."""

import argparse
import importlib.util
from pathlib import Path

import bethe_forge as bf
from bethe_forge import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(bf.__file__).resolve().parent.parent)

_spec = importlib.util.spec_from_file_location(
    "same_output", ROOT / "tools" / "same_output.py")
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)


def _gB_at_4():
    cases = [c for c in same_output.verify_cases(SRC, Ls=[4])
             if Path(c[1]).name == "gB.json"]
    assert cases == [["verify", str(Path(SRC, "bethe_forge", "presets",
                                         "gB.json")),
                      "--L", "4", "--M", "0..3", "--json"]]
    return cases


def test_same_tree_is_the_same():
    """One preset at L = 4 against the same tree: no difference."""
    assert same_output.first_difference(SRC, SRC, _gB_at_4()) is None


def test_names_the_first_difference(tmp_path):
    """A tree whose cli prints something else is reported at the first
    case, with both exit codes and the first line that differs."""
    pkg = tmp_path / "bethe_forge"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text("def main(argv):\n    print('{}')\n"
                                "    return 1\n")
    cases = _gB_at_4()
    diff = same_output.first_difference(SRC, str(tmp_path), cases)
    assert diff is not None
    argv, (rc_a, out_a), (rc_b, out_b) = diff
    assert argv == cases[0] and (rc_a, rc_b) == (0, 1)
    assert out_b == "{}\n" and out_a.startswith("{")
    lines = same_output.describe(diff)
    assert lines[0] == "differs: " + " ".join(cases[0])
    assert "0 (parent) vs 1 (change)" in lines[1]
    assert lines[2] == "  stdout line 1:"


def test_grid_runs_every_subcommand_in_both_renderings():
    """Every subcommand of the parser runs as text and as --json, catalog
    included, and every preset is read by each mode of its rows."""
    cases = same_output.verify_cases(SRC) + same_output.preset_cases(SRC)
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    ran = {(c[0], "--json" in c) for c in cases}
    assert ran == {(mode, j) for mode in sub.choices for j in (False, True)}
    presets = {c[1] for c in cases if c[0] != "catalog"}
    assert len(presets) == 19
    for path in presets:
        assert {(c[0], "--json" in c, "--conjugate-vacuum" in c)
                for c in cases if c[1:2] == [path]} == {
            ("classify", False, False), ("classify", True, True),
            ("verify", False, False), ("verify", True, False),
            ("spectrum", False, False), ("spectrum", True, False)}
