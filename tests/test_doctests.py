"""Every docstring example in the package runs with the test suite."""

import doctest
import importlib
import pkgutil

import pytest

import preab

MODULES = sorted(m.name for m in pkgutil.walk_packages(preab.__path__, "preab."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_hold(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
