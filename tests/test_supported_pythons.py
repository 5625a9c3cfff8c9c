"""The package and its scripts parse as the oldest Python that
``pyproject.toml`` accepts (``requires-python``), so no newer syntax, such as
``except*``, slips in while the tests run on a newer interpreter."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
OLDEST = tuple(
    int(x) for x in re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups()
)
FILES = sorted([*(ROOT / "src" / "toricweights").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def test_the_oldest_python_is_3_10():
    assert OLDEST == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_source_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
