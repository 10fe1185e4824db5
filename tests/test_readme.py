"""The README's library example runs against the installed API."""

import re
import shlex
from pathlib import Path

import interactive
from interactive.cli import main
from interactive.evalharness import toy_image

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_command_line_example_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("interactive ")]
    assert len(commands) == 4
    monkeypatch.chdir(tmp_path)
    interactive.write_image(toy_image(0, (16, 16, 3), 0, 0), "photo.ppm")
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command


def test_every_exported_name_resolves():
    for name in interactive.__all__:
        assert hasattr(interactive, name), name
