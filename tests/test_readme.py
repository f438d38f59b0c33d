"""README's ```python blocks run as written, so the documented API cannot
drift from the code."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index, capsys):
    exec(compile(BLOCKS[index], f"{README.name} python block {index}", "exec"), {})
    assert capsys.readouterr().out
