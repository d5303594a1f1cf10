"""Every module of the package imports on its own."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import orthobend

MODULES = [m.name for m in pkgutil.iter_modules(orthobend.__path__,
                                                "orthobend.")]


def test_package_has_modules():
    assert "orthobend.nobend" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


def test_solve_path_imports_no_networkx():
    """A text with rotation lines is solved without networkx, so importing
    the solve path does not load it."""
    probe = ("import sys, orthobend.graph, orthobend.cycles\n"
             "print('networkx' in sys.modules)")
    src = os.path.dirname(os.path.dirname(orthobend.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
