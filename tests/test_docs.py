"""The documented surface must match the package.

The README's "Library use" example is run as written, every exported name
must resolve, and every documented command line must parse, so a renamed or
removed function or flag fails here before a reader meets a stale example.
"""

import re
import shlex
from pathlib import Path

import pytest

import twistrank as tr
from twistrank import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_example_runs(capsys):
    exec(compile(_library_use_block(), str(README), "exec"), {})
    assert capsys.readouterr().out


def test_every_export_resolves():
    missing = [name for name in tr.__all__ if not hasattr(tr, name)]
    assert missing == []
    assert len(set(tr.__all__)) == len(tr.__all__)


def _readme_command_lines() -> list[list[str]]:
    """The argv of every ``twistrank …`` line in the README's ``sh`` blocks,
    continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    argvs = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["twistrank"]:
                argvs.append(words[1:])
    return argvs


def test_readme_documents_every_command():
    assert {argv[0] for argv in _readme_command_lines()} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=lambda argv: " ".join(argv[:4]))
def test_readme_command_line_parses(argv):
    assert cli.build_parser().parse_args(argv).command == argv[0]
