"""What each entry point loads: ``import qspt`` and ``import qspt.cli`` pay at
start-up only for the modules that every request needs.

Each import runs in a fresh interpreter and is measured against that
interpreter's own ``sys.modules`` before it.  The benchmark's tracer
(perfbench/layers.py) looks up every module of its GROUPS table in
``sys.modules`` right after ``import qspt.cli``, so those must be loaded.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def added_by(statement: str) -> set[str]:
    """The modules that ``statement`` adds to a fresh interpreter's sys.modules."""
    code = ("import sys; before = set(sys.modules); " + statement
            + "; print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


def traced_modules() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return {"qspt." + modname for modname, _ in layers.GROUPS.values()}


@pytest.fixture(scope="module")
def by_package():
    return added_by("import qspt")


@pytest.fixture(scope="module")
def by_cli():
    return added_by("import qspt.cli")


@pytest.mark.parametrize("name", ["inspect", "dataclasses", "json", "qspt.cli",
                                  "qspt.identities"])
def test_import_qspt_skips(by_package, name):
    assert "qspt" in by_package
    assert name not in by_package


@pytest.mark.parametrize("name", ["json", "qspt.identities"])
def test_import_cli_skips(by_cli, name):
    assert "qspt.cli" in by_cli
    assert name not in by_cli


def test_import_cli_loads_nothing_outside_the_stdlib(by_cli):
    # qspt has no runtime dependency: the CLI reads its command line with argparse
    outside = {name for name in by_cli
               if name.partition(".")[0] not in sys.stdlib_module_names | {"qspt"}}
    assert "argparse" in by_cli and outside == set()


def test_import_cli_loads_every_traced_module(by_cli):
    assert traced_modules() <= by_cli


def test_lazy_imports_serve_a_fresh_process(tmp_path):
    # verify loads identities, and the cache and the JSON format load json,
    # in a process where nothing else has loaded them
    cache = str(tmp_path / "c.json")
    for argv, expected in [
        (["verify", "genn1", "--n-max", "5", "--format", "json"], '"ok": true'),
        (["compute", "--family", "p", "--n-max", "5", "--cache", cache], "5 7"),
        (["compute", "--family", "p", "--n-max", "5", "--cache", cache, "--format", "json"],
         '{"n": 5, "value": 7}'),
    ]:
        done = subprocess.run([sys.executable, "-m", "qspt.cli", *argv], env=ENV,
                              capture_output=True, text=True)
        assert done.returncode == 0 and expected in done.stdout, (argv, done.stderr)
    assert (tmp_path / "c.json").exists()
