"""The README's Library examples run as written, so an export they name
cannot be deleted unnoticed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks():
    """The ```python blocks of the README's "Library" section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)


def test_each_library_example_runs():
    blocks = library_blocks()
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
