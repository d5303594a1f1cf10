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
    embedded first, loads no networkx. Importing the solve path alone
    loads the package's errors, graph and cycles modules and no other, so
    the import stays as small as it was. Importing every module loads no
    networkx either: the flows load it when they first run, and the first
    one returns K4's known cost."""
    probe = ("import sys, orthobend.graph, orthobend.cycles\n"
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'orthobend'))\n"
             "from corpus import k4, nested\n"
             "from orthobend.graph import dump_graph, embed, "
             "load_plane_graph\n"
             "text = dump_graph(nested(1, 50))\n"
             "orthobend.cycles.demanding_sets(load_plane_graph(text))\n"
             "print('networkx' in sys.modules)\n"
             f"import {', '.join(MODULES)}\n"
             "print('networkx' in sys.modules)\n"
             "print(orthobend.oracle.flow_min_bends(embed(k4()))[0])\n"
             "print('networkx' in sys.modules)")
    src = os.path.dirname(os.path.dirname(orthobend.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ,
                                  PYTHONPATH=os.pathsep.join([src, tests])))
    lines = out.stdout.splitlines()
    assert lines[0] == str(["orthobend", "orthobend.cycles",
                            "orthobend.errors", "orthobend.graph"])
    assert lines[1:] == ["False", "False", "4", "True"]


# Declared for a caller that is still to come; each entry says which.
UNRAISED = {}


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
    "nobend.no_bend_rep": "the drawing of ROADMAP direction 4",
    "orthorep.smooth": "the drawing of ROADMAP direction 4",
    "orthorep.rectilinear_image": "the inverse of smooth that the "
                                  "round-trip tests pin",
    "graph.dump_graph": "the CLI of ROADMAP direction 5",
    "orthorep.to_json": "the CLI of ROADMAP direction 5",
    "orthorep.from_json": "the CLI of ROADMAP direction 5",
    "graph.load_graph": "variable_min_cost(g) of ROADMAP direction 8",
}

# Public methods waiting for a caller, or kept for another reason; each
# entry says which.
UNCALLED_METHODS = {
    "orthorep.OrthoRep.cost": "the acceptance of ROADMAP direction 4",
    "graph.PlaneGraph.dart_tail": "the pair of dart_head: it reads a dart's "
                                  "tail without knowing the dart format",
}


def test_every_public_function_is_called_somewhere():
    """Every module-level public function of the package is called by name
    in the package or the benchmark, or is listed in UNCALLED with its
    reason; a call from the tests alone does not count. So is every
    public method of a package class that is not a property, called as an
    attribute of anything, or listed in UNCALLED_METHODS. The oracle is
    exempt: it is the referee, and the tests are its callers."""
    root = Path(orthobend.__file__).parents[2]
    names, attrs = set(), set()
    for d in ("src", "perfbench"):
        for path in (root / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    if isinstance(f, ast.Attribute):
                        attrs.add(f.attr)
                    elif isinstance(f, ast.Name):
                        names.add(f.id)
    own = {}  # per module, the (name, object) pairs it defines
    for name in MODULES:
        if name != "orthobend.oracle":
            defs = vars(importlib.import_module(name)).items()
            own[name.split(".", 1)[1]] = [
                (key, obj) for key, obj in defs
                if getattr(obj, "__module__", None) == name]
    public = [f"{mod}.{fn}" for mod, defs in own.items() for fn, obj in defs
              if inspect.isfunction(obj) and not fn.startswith("_")]
    assert public
    uncalled = {q for q in public if q.split(".")[1] not in names | attrs}
    assert uncalled == set(UNCALLED)
    methods = [f"{mod}.{cn}.{fn}" for mod, defs in own.items()
               for cn, cls in defs if inspect.isclass(cls)
               for fn, obj in vars(cls).items()
               if inspect.isfunction(obj) and not fn.startswith("_")]
    assert methods
    uncalled = {q for q in methods if q.split(".")[2] not in attrs}
    assert uncalled == set(UNCALLED_METHODS)


def test_every_private_function_is_named_in_the_package():
    """Every private module-level function and private method of the
    package is named in the package beyond its own definition: one that
    only the tests name is dead code kept alive for them."""
    named, private = set(), set()
    for path in Path(orthobend.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            private |= {(path.stem, d.name) for d in body
                        if isinstance(d, ast.FunctionDef)
                        and d.name.startswith("_")
                        and not d.name.endswith("__")}
    assert len(private) > 20
    assert {f"{mod}.{fn}" for mod, fn in private if fn not in named} == set()
