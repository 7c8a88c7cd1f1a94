"""The README's "Command line" block runs as written."""

import re
import shlex
from pathlib import Path

import pytest

from overmoments import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _commands() -> list[list[str]]:
    """The argv of each `overmoments ...` line of the "Command line" block,
    continuation lines joined and comments dropped."""
    block = re.search(r"^## Command line\n\n```\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = block.group(1).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("overmoments ")]


COMMANDS = _commands()


def test_the_block_shows_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {"series", "ospt", "converge", "verify"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv[:3]) for argv in COMMANDS])
def test_readme_command_exits_0(argv, tmp_path, verify_run):
    if argv[0] == "verify":
        # the suite's one run per pytest run, with the default flags
        assert argv[1:-1] == ["--suite"]
        assert verify_run(argv[-1])[0] == 0
        return
    argv, out = list(argv), argv.index("--out") + 1
    argv[out] = str(tmp_path / argv[out])
    assert cli.main(argv) == 0
    assert Path(argv[out]).stat().st_size > 0
