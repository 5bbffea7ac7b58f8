"""The per-layer tracer of the benchmark (perfbench/layers.py) finds what it wraps.

``Tracer.install`` patches each "Class.method" name of its GROUPS table in the
class's own ``__dict__`` and each plain name on its module, so a method that a
class only inherits, or a renamed function, breaks every traced run.  The file
is loaded from its path and only read: no tracer is installed here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = load_layers()
NAMES = [(group, modname, attr) for group, (modname, attrs) in layers.GROUPS.items()
         for attr in attrs]


@pytest.mark.parametrize("group,modname,attr", NAMES, ids=[attr for _, _, attr in NAMES])
def test_traced_name_resolves(group, modname, attr):
    mod = importlib.import_module("qspt." + modname)
    cls_name, _, meth = attr.rpartition(".")
    if cls_name:
        cls = getattr(mod, cls_name)
        assert meth in cls.__dict__, f"{attr} is not bound in the body of {cls_name}"
        assert callable(cls.__dict__[meth])
    else:
        fn = getattr(mod, attr)
        assert callable(fn)
        assert inspect.isgeneratorfunction(fn) == (attr in layers.GENERATORS)
