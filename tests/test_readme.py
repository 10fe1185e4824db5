"""The README's library example runs against the installed API."""

import re
from pathlib import Path

import interactive

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves():
    for name in interactive.__all__:
        assert hasattr(interactive, name), name
