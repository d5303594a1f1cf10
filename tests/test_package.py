"""Every module of the package imports on its own."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import orthobend
from orthobend import errors

MODULES = [m.name for m in pkgutil.iter_modules(orthobend.__path__,
                                                "orthobend.")]


def test_package_has_modules():
    assert "orthobend.nobend" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


def test_solve_path_imports_no_networkx():
    """Solving an edge-list text, which has no rotation lines and so is
    embedded first, loads no networkx. Importing the solve path alone does
    not load the embedder either, so the import stays as small as it was.
    Importing every other module but decompose loads no networkx either:
    the flows load it when they first run, and the first one returns
    K4's known cost."""
    others = [m for m in MODULES if m != "orthobend.decompose"]
    probe = ("import sys, orthobend.graph, orthobend.cycles\n"
             "print('orthobend.planarity' in sys.modules)\n"
             "from corpus import k4, nested\n"
             "from orthobend.graph import dump_graph, embed, "
             "load_plane_graph\n"
             "text = dump_graph(nested(1, 50))\n"
             "orthobend.cycles.demanding_sets(load_plane_graph(text))\n"
             "print('networkx' in sys.modules)\n"
             f"import {', '.join(others)}\n"
             "print('networkx' in sys.modules)\n"
             "print(orthobend.oracle.flow_min_bends(embed(k4()))[0])\n"
             "print('networkx' in sys.modules)")
    src = os.path.dirname(os.path.dirname(orthobend.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ,
                                  PYTHONPATH=os.pathsep.join([src, tests])))
    assert out.stdout.split() == ["False", "False", "False", "4", "True"]


# Declared for a caller that is still to come; each entry says which.
UNRAISED = {
    "IsK4": "the fixed-embedding solve of ROADMAP direction 4 rejects K4",
}


def test_every_leaf_error_is_raised_somewhere():
    """Every exception class with no subclass is raised by name in the
    package, or listed in UNRAISED with its reason."""
    src = "".join(p.read_text()
                  for p in Path(orthobend.__file__).parent.glob("*.py"))
    leaves = [c for c in vars(errors).values()
              if isinstance(c, type) and issubclass(c, Exception)
              and c.__module__ == errors.__name__ and not c.__subclasses__()]
    assert leaves
    unraised = {c.__name__ for c in leaves
                if f"raise {c.__name__}(" not in src}
    assert unraised == set(UNRAISED)


# Public functions waiting for a caller; each entry says which.
UNCALLED = {
    "cycles.facial_records": "ROADMAP direction 4, per the watch list",
    "cycles.intersecting_cover": "ROADMAP direction 4, per the watch list",
    "nobend.no_bend_rep": "the drawing of ROADMAP direction 4",
    "orthorep.smooth": "the drawing of ROADMAP direction 4",
    "orthorep.rectilinear_image": "the inverse of smooth that the "
                                  "round-trip tests pin",
    "decompose.build_bc_tree": "the block sums of ROADMAP direction 8",
    "decompose.build_spqr_tree": "the SPQR referee of ROADMAP direction 9",
    "graph.dump_graph": "the CLI of ROADMAP direction 5",
    "orthorep.to_json": "the CLI of ROADMAP direction 5",
    "orthorep.from_json": "the CLI of ROADMAP direction 5",
    "graph.load_graph": "variable_min_cost(g) of ROADMAP direction 8",
}


def test_every_public_function_is_called_somewhere():
    """Every module-level public function of the package is called by name
    in the package or the benchmark, or is listed in UNCALLED with its
    reason; a call from the tests alone does not count. The oracle is
    exempt: it is the referee, and the tests are its callers."""
    root = Path(orthobend.__file__).parents[2]
    called = set()
    for d in ("src", "perfbench"):
        for path in (root / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    called.add(f.id if isinstance(f, ast.Name)
                               else getattr(f, "attr", None))
    public = [f"{name.split('.', 1)[1]}.{fn}" for name in MODULES
              if name != "orthobend.oracle"
              for fn, obj in vars(importlib.import_module(name)).items()
              if inspect.isfunction(obj) and obj.__module__ == name
              and not fn.startswith("_")]
    assert public
    uncalled = {q for q in public if q.split(".")[1] not in called}
    assert uncalled == set(UNCALLED)
