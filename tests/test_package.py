"""Every module of the package imports on its own."""

import importlib
import pkgutil

import pytest

import orthobend

MODULES = [m.name for m in pkgutil.iter_modules(orthobend.__path__,
                                                "orthobend.")]


def test_package_has_modules():
    assert "orthobend.nobend" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)
