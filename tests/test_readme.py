"""README's command-line examples, and ``cli``'s own command list, match the code.

The example config parses as a run config, and README's command block and
the list in ``cli``'s module docstring name exactly the CLI's commands, in
order, so none of them can drift from ``cli``.
"""

import json
import re
from pathlib import Path

from teleport_sr import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def command_line_blocks(lang: str) -> list[str]:
    """The ``lang`` code blocks of README's ``## Command line`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```$", section, re.M | re.S)


def test_config_example_parses():
    (block,) = command_line_blocks("json")
    cli.parse_run_config(json.loads(block))


def test_command_block_lists_exactly_the_commands():
    (block,) = command_line_blocks("sh")
    lines = [line.split() for line in block.splitlines()]
    assert all(words[0] == "teleport-sr" for words in lines)
    assert [words[1] for words in lines] == list(cli._COMMANDS)


def test_module_docstring_lists_exactly_the_commands():
    listing = cli.__doc__.split("Commands:\n\n", 1)[1].split("\n\n", 1)[0]
    assert [line.split()[0] for line in listing.splitlines()] == list(cli._COMMANDS)
