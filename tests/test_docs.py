"""The documented library surface must match the package.

The README's "Library use" example is run as written, and every exported
name must resolve, so a renamed or removed function fails here before a
reader meets a stale example.
"""

import re
from pathlib import Path

import twistrank as tr

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
