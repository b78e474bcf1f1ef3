"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section):
    """The first ```python block under the README heading section."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_library_example_runs():
    """The Library example runs, and the eigenpair it checks by hand is
    one to rounding."""
    ns = {}
    exec(_python_block("Library"), ns)
    bf, sol = ns["bf"], ns["sol"]
    assert sol.z in [s.z for s in ns["sols"]]
    residual = bf.verify_eigenpair(ns["H2"], ns["psi"].to_vector(5),
                                   sol.energy)
    assert residual <= 1e-12
