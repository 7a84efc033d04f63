"""README examples run as written, against the package's exports."""

import argparse
import re
from pathlib import Path

import quadmode
from quadmode.cli import build_parser
from quadmode.coefficients import _SPEC_FIELDS

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs_verbatim(capsys):
    exec(compile(library_use_block(), "README.md", "exec"), {})
    floor, worst = capsys.readouterr().out.splitlines()
    assert float(floor) >= 0.25 - 1e-12
    assert "state" in worst


def test_exports_cover_the_names_the_readme_uses():
    block = library_use_block()
    imported = re.search(r"from quadmode import \((.*?)\)", block, re.S).group(1)
    names = {n.strip() for n in imported.split(",") if n.strip()}
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    prose = section.split("```", 2)[2]
    names |= {n for n in re.findall(r"`(\w+)`", prose) if n[0].isalpha()}
    assert names <= set(quadmode.__all__)
    assert all(hasattr(quadmode, name) for name in quadmode.__all__)


def test_function_spec_table_lists_what_function_from_spec_accepts():
    section = README.read_text().split("is a function spec:", 1)[1].split("\n\n", 2)[1]
    documented = {}
    for row in section.splitlines()[2:]:
        kind, fields = row.split("|")[1:3]
        documented[kind.strip().strip("`")] = {
            name: float(default) if default else None
            for name, default in re.findall(r"`(\w+)`(?: \(([\d.]+)\))?", fields)}
    assert documented == {kind: fields for kind, (_, fields) in _SPEC_FIELDS.items()}


def test_cli_synopsis_matches_the_parser():
    block = re.search(r"```\n(.*?)```", README.read_text().split("## Command line", 1)[1],
                      re.S).group(1)
    documented = {}
    for line in block.splitlines():
        prog, command = line.split()[:2]
        assert prog == "quadmode"
        documented[command] = set(re.findall(r"--[\w-]+", line))

    def flags(parser):
        return {flag for action in parser._actions for flag in action.option_strings
                if flag not in ("-h", "--help")}

    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # an option of the top-level parser would belong on every line
    assert documented == {name: flags(parser) | flags(sub)
                          for name, sub in commands.choices.items()}
