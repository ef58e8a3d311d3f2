"""The README's python examples run as written, in order, in one namespace."""

from __future__ import annotations

import argparse
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


def _readme_section(title):
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n### {title}\n")
    end = text.find("\n#", start + 1)
    return text[start:end]


def test_readme_flags_are_options_of_their_subcommand():
    from logconmix.cli import _build_parser

    parser = _build_parser()
    (subcommands,) = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
    for name, title in (("fit", "`fit` — mixture estimation"),
                        ("logcx", "`logcx` — standalone log-concave fit"),
                        ("simulate", "`simulate` — Monte-Carlo benchmark"),
                        ("tstats", "`tstats` — two-sample t-statistics for a gene matrix")):
        options = {opt for action in subcommands.choices[name]._actions
                   for opt in action.option_strings}
        section = _readme_section(title)
        if name == "tstats":
            # the section's pipeline example and prose also name fit's --f0
            section = "\n".join(line for line in section.splitlines()
                                if line.startswith("logconmix tstats"))
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
        assert named, title
        assert named <= options, (name, sorted(named - options))
