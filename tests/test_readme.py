"""The CLI examples in README.md run as written, its CLI section names only
the parser's flags, and its reads table is the CLI's declaration of them."""

import re
import shlex
from pathlib import Path

from pacbayes.cli import (BOUNDS_MODE_FLAGS, FAMILY_FLAGS, LEMMA_FLAGS, REQUIRED, RULE_FLAGS,
                          build_parser, main)

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


# The CLI's declarations of what only some runs read, by the kind of choice that decides it.
READS = {"lemmas": LEMMA_FLAGS, "family": FAMILY_FLAGS, "rule": RULE_FLAGS,
         "bounds": BOUNDS_MODE_FLAGS}


def run_choices(run: str) -> list[tuple[str, object]]:
    """The (kind, choice) pairs of READS that a reads-table row describes."""
    names = re.findall(r"`([^`]*)`", run)
    if names[0].startswith("lemmas --which "):
        return [("lemmas", names[0].split()[-1])]
    if names[0].startswith("--family "):
        return [("family", name.split()[-1]) for name in names]
    if names[0].startswith("--rule "):
        return [("rule", names[0].split()[-1])]
    assert names == ["bounds"], run
    return [("bounds", run.endswith("in instance mode"))]


def test_readme_reads_table_matches_the_code():
    # Each row lists the run's flags, * on the required ones, and each numeric default.
    rows = [line.strip("|").split("|") for line in cli_section()[1][2:]]
    described = set()
    for run, reads in rows:
        entries = [re.fullmatch(r"`(--[\w-]+)`(\*?)\s*(.*)", item)
                   for item in re.split(r",\s*(?=`--)", reads.strip())]
        assert all(entries), reads
        for kind, choice in run_choices(run.strip()):
            described.add((kind, choice))
            flags = {"--" + key.replace("_", "-"): value
                     for key, value in READS[kind][choice].items()}
            named = [e[1] for e in entries]
            assert len(named) == len(set(named)) and set(named) == set(flags), run
            for flag, star, text in (e.groups() for e in entries):
                default = flags[flag]
                assert (star == "*") == (default is REQUIRED), (run, flag)
                if default is REQUIRED or default is None:
                    assert not re.match(r"[-\d.]", text), (run, flag, text)
                else:
                    assert float(text.split()[0]) == default, (run, flag, text)
    # Every choice that reads a flag has its row.
    assert described == {(kind, choice) for kind, table in READS.items()
                         for choice, flags in table.items() if flags}
