"""Run the examples in the docstrings of every gammalab module."""
import doctest
import importlib
import pkgutil

import pytest

import gammalab

# __main__ runs the CLI on import, so it is the one module left out.
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(gammalab.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(f"gammalab.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
