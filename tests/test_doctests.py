"""The docstring examples of every coxsol module run and hold."""

import doctest
import importlib
import pkgutil

import coxsol


def test_docstring_examples():
    modules = [coxsol] + [importlib.import_module(f"coxsol.{info.name}")
                          for info in pkgutil.iter_modules(coxsol.__path__)]
    attempted = {}
    for module in modules:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted[module.__name__] = result.attempted
    assert attempted["coxsol.cyclo"] >= 1
