"""README.md against the code: its dotted references, its CLI flags and
its library quick start."""

import argparse
import math
import re
from pathlib import Path

import opuc
import opuc.cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title: str) -> str:
    """The README text from the heading ``## title`` to the next ``## ``."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_dotted_references_resolve():
    refs = re.findall(r"\b(?:opuc\.)?(poly|schur|analysis|opuc_core|cli)\.([A-Za-z_]\w*)", README)
    assert refs
    missing = [f"{module}.{name}" for module, name in refs
               if not hasattr(getattr(opuc, module), name)]
    assert missing == []


def test_cli_flags_are_the_parser_options():
    sub = next(a for a in opuc.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {flag for parser in sub.choices.values() for action in parser._actions
               for flag in action.option_strings if flag.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z-]*", _section("CLI"))) == options


def test_library_quick_start_runs():
    code = re.search(r"```python\n(.*?)```", _section("Library quick start"), re.S).group(1)
    names: dict = {}
    exec(code, names)
    assert names["report"].lhs == -2.25
    assert names["report"].rel_error < 1e-8
    assert len(names["poles"]) == 1
    assert abs(names["poles"][0] - (math.sqrt(3) - 1)) < 1e-12
    assert names["growth"].predicted_rate > 1
    assert names["back"].alphas == (2, 0.5)
