"""Exported names: every name in an `__all__` resolves in its module."""

import importlib
import pkgutil

import pytest

import cauchyreals

MODULES = ["cauchyreals"] + [f"cauchyreals.{info.name}"
                             for info in pkgutil.iter_modules(cauchyreals.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = vars(module).get("__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
