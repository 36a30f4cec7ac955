"""Every ```python block of README.md runs as written, so a change to the
library's API cannot leave README's examples broken. A failure's
traceback names the README line."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks():
    """(first line, source) of each ```python block; the source is padded
    with blank lines so that its line numbers are README's."""
    text = README.read_text(encoding="utf-8")
    for match in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        line = text.count("\n", 0, match.start(1)) + 1
        yield line, "\n" * (line - 1) + match.group(1)


BLOCKS = list(_blocks())


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("source", [s for _, s in BLOCKS], ids=[f"line {n}" for n, _ in BLOCKS])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
