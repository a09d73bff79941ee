"""The README's library example runs as written, so a change to the
public API cannot leave it stale."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_prints_the_ring_window(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    lo, hi = ast.literal_eval(capsys.readouterr().out.strip())
    assert lo == pytest.approx(0.41476, abs=1e-5)
    assert hi == pytest.approx(0.53788, abs=1e-5)
