"""Run the usage doctests embedded in the library docstrings."""

import doctest
import importlib

import pytest

MODULES = ("algebra", "characters", "cli", "padic", "qmeasure", "qnumbers",
           "series", "verify")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"qvolkenborn.{name}")
    failures, tried = doctest.testmod(module, verbose=False)
    assert tried > 0 and failures == 0
