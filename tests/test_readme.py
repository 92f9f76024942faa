"""The README stays true: its command lines parse, its examples run as shown, its budgets hold."""

import importlib
import re
import shlex
from pathlib import Path

from cavnet.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(language):
    """The bodies of the README's fenced blocks in ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


def test_every_readme_command_line_parses():
    block = next(body for body in fenced("sh") if "cavnet run-scheme" in body)
    lines = [line for line in block.splitlines() if line.startswith("cavnet ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])  # argparse exits 2 on a bad line
        assert args.func is not None, line


def test_the_readme_walk_example_prints_the_output_shown(tmp_path):
    block = next(body for body in fenced("sh") if "cavnet run-scheme" in body)
    line = next(line for line in block.splitlines() if line.startswith("cavnet retry-walk"))
    (shown,) = [body for body in fenced("json") if '"mc_success_prob"' in body]
    out = tmp_path / "walk.json"
    assert main(shlex.split(line)[1:] + ["--out", str(out)]) == 0
    assert out.read_bytes() == shown.encode()


def test_the_readme_library_snippet_runs(capsys):
    snippet = next(body for body in fenced("python") if "from cavnet import" in body)
    exec(compile(snippet, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["D1", "D2"]


def test_every_readme_budget_value_is_the_constant():
    # each `module.NAME` (value) pair, the value written with thousands commas
    pairs = re.findall(r"`(\w+)\.([A-Z_]+)`\s+\(([\d,]+)\)", README)
    assert len(pairs) >= 8
    for module, name, value in pairs:
        constant = getattr(importlib.import_module(f"cavnet.{module}"), name)
        assert constant == int(value.replace(",", "")), (module, name, value)
