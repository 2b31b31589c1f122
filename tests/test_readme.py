"""The python examples in README.md run as written."""
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    flags=re.S | re.M)


def test_readme_has_python_examples():
    # the quick start, the driver and the penalty model: a README edit that
    # breaks the fence pattern must not leave nothing to run
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
