"""The CLI examples in README.md run as written."""

import shlex
from pathlib import Path

from pacbayes.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list[list[str]]:
    """The `pacbayes ...` lines of the sh block under `## CLI`, as argv lists."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("pacbayes ")]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = cli_examples()
    assert len(examples) >= 8
    for argv in examples:  # in order: the first writes the instance the others read
        assert main(argv) == 0, argv
