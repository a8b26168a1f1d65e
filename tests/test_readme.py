"""The README's Python example runs as printed and says what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("H3(4) {")
    assert lines[1] == "HM_T(t=1)"
    assert lines[2].startswith("TH4_MAIN: PASS (174 cases, 0 counterexamples, ")
