"""The README's python examples run as written, in order, in one namespace."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _python_blocks()
    assert len(blocks) >= 3
    namespace = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert 0.0 <= namespace["result"].p_hat <= 1.0
    assert printed.getvalue().count("\n") >= 3
