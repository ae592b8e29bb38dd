"""README's command lines name exactly the options the parser accepts."""

import argparse
import re
from pathlib import Path

import pytest

from spectral_tetris.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_command_lines() -> dict[str, set[str]]:
    """Command -> the ``--flag``s of its line in the "Command line" block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = {}
    for line in block.splitlines():
        command = line.partition("#")[0]  # drop the trailing comment
        words = command.split()
        if words[:1] == ["spectral-tetris"]:
            lines[words[1]] = set(re.findall(r"--[a-z][a-z-]*", command))
    return lines


def _parser_options() -> dict[str, set[str]]:
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {flag for action in sub._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }


PARSER_OPTIONS = _parser_options()


def test_readme_lists_every_command():
    assert sorted(_readme_command_lines()) == sorted(PARSER_OPTIONS)


@pytest.mark.parametrize("command", sorted(PARSER_OPTIONS))
def test_readme_command_line_names_the_parser_options(command):
    assert _readme_command_lines().get(command) == PARSER_OPTIONS[command]
