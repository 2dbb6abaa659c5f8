"""The CLI examples in README.md run as written, and its CLI section names only
the parser's flags."""

import re
import shlex
from pathlib import Path

from pacbayes.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_section() -> tuple[str, list[str]]:
    """The sh block under `## CLI`, and the lines of the reads table below it."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return block, [line for line in section.splitlines() if line.startswith("|")]


def cli_examples() -> list[list[str]]:
    """The `pacbayes ...` lines of the sh block under `## CLI`, as argv lists."""
    return [shlex.split(line)[1:] for line in cli_section()[0].splitlines()
            if line.startswith("pacbayes ")]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = cli_examples()
    assert len(examples) >= 12
    for argv in examples:  # in order: the first writes the instance the others read
        assert main(argv) == 0, argv


def test_readme_cli_flags_are_parser_flags():
    # A flag deleted from the parser cannot stay in the examples or the reads table.
    parser, subparsers = build_parser()
    known = {flag for p in (parser, *subparsers.values()) for flag in p._option_string_actions}
    block, table = cli_section()
    named = set(re.findall(r"--[A-Za-z][\w-]*", block + "\n".join(table)))
    assert len(named) >= 20
    assert named <= known, named - known
