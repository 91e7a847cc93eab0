import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import duckwords

MODULES = ["duckwords"] + [
    f"duckwords.{info.name}" for info in pkgutil.iter_modules(duckwords.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0


def test_readme_doctests():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
