"""The fenced ``python`` blocks of README.md run as written, each on its own."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_the_quick_tour_has_its_python_blocks():
    assert len(BLOCKS) >= 2
    assert any("ThresholdRule" in block for block in BLOCKS)


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {"__name__": "readme"})
