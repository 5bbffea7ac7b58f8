"""What each entry point loads: ``import qspt`` and ``import qspt.cli`` pay at
start-up only for the modules that every request needs.

Each import runs in a fresh interpreter and is measured against that
interpreter's own ``sys.modules`` before it.  The benchmark's tracer
(perfbench/layers.py) looks up every module of its GROUPS table in
``sys.modules`` right after ``import qspt.cli``, so those must be loaded.
``qspt.laurent`` is loaded lazily: it is in ``sys.modules`` from ``import qspt``
on, but its body runs only when one of its names is first read, which only
the bivariate identities (and the tracer's ``install``) do.
"""

import importlib.util
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import qspt
from qspt import laurent

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


# prints whether qspt.laurent has run; type() reads no attribute, so it loads nothing
LAURENT_RAN = "print(type(sys.modules['qspt.laurent']) is type(sys))"
LAURENT_IDENTITIES = ("kn1", "genjmu2k", "relos", "Rk-forms")


def run_python(code: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          check=True, **kwargs)


def added_by(statement: str) -> set[str]:
    """The modules that ``statement`` adds to a fresh interpreter's sys.modules."""
    code = ("import sys; before = set(sys.modules); " + statement
            + "; print(' '.join(sorted(set(sys.modules) - before)))")
    return set(run_python(code, text=True).stdout.split())


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
    # qspt has no runtime dependency, and the CLI reads its command line
    # itself: only a help page imports argparse
    outside = {name for name in by_cli
               if name.partition(".")[0] not in sys.stdlib_module_names | {"qspt"}}
    assert "argparse" not in by_cli and outside == set()


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], []], ids=repr)
def test_a_help_page_imports_argparse_in_a_fresh_process(argv):
    code = ("import sys, qspt.cli\n"
            "try:\n"
            f"    qspt.cli.main({argv!r}, prog_name='qspt')\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, 'argparse' in sys.modules, file=sys.stderr)")
    done = run_python(code, text=True)
    # with no command, the program's page goes to stderr and exits 2
    page = done.stdout if argv else done.stderr
    assert page.startswith("usage: qspt ")
    assert done.stderr.splitlines()[-1] == f"{0 if argv else 2} True"


@pytest.mark.parametrize("statement", ["import qspt", "import qspt.cli",
                                       "from qspt import TruncSeries, laurent"])
def test_laurent_is_registered_but_not_run(statement):
    code = f"import sys; {statement}; print('qspt.laurent' in sys.modules); {LAURENT_RAN}"
    assert run_python(code, text=True).stdout.split() == ["True", "False"]


@pytest.mark.parametrize("argv", [
    ["compute", "--family", "Spt_j", "--j", "2", "--n-max", "10", "--route", "gf"],
    ["compute", "--family", "spt", "--n-max", "10"],
    ["table", "--kind", "count", "--j", "2", "--index", "1", "--n-max", "10"],
    ["congruence", "--n-max", "10"],
    *(["verify", identity, "--n-max", "6"] for identity in
      ("sptpn", "genn1", "sptpng", "jgn", "sptdiff", "appbp", "gtjsptk", "fdyson",
       "lemma31", "lemma32", "genineq")),
    *(["verify", identity, "--n-max", "6"] for identity in LAURENT_IDENTITIES),
], ids=" ".join)
def test_only_the_bivariate_identities_run_laurent(argv):
    code = ("import sys, qspt.cli\n"
            "try:\n"
            f"    qspt.cli.main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n" + LAURENT_RAN)
    ran = run_python(code, text=True).stdout.split()[-1]
    assert ran == str(argv[:2] in (["verify", i] for i in LAURENT_IDENTITIES))


LAURENT_NAMES = ["BiSeries", "LaurentPoly", "build_crank_gf", "build_jrank_gf",
                 "build_kn1_sides", "build_rank_gf", "dz_at_1", "integer_binomial",
                 "symmetrized_extract"]


def test_every_exported_name_resolves():
    missing = [name for name in qspt.__all__ if not hasattr(qspt, name)]
    assert missing == [] and set(LAURENT_NAMES) <= set(qspt.__all__)


@pytest.mark.parametrize("name", LAURENT_NAMES)
def test_laurent_names_are_reexported(name):
    assert getattr(qspt, name) is getattr(laurent, name)
    assert name in dir(qspt)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from qspt import *", namespace)
    assert set(qspt.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(laurent, name) for name in LAURENT_NAMES)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'qspt' has no attribute 'nonsense'$"):
        qspt.nonsense
    assert not hasattr(qspt, "build_kn1_side")


def test_a_pickled_laurent_poly_unpickles_in_a_fresh_process():
    poly = laurent.LaurentPoly({-2: 1, 0: -7, 3: 12})
    code = ("import pickle, sys\n"
            "poly = pickle.loads(sys.stdin.buffer.read())\n"
            "print(type(poly).__module__, sorted(poly.terms.items()))")
    out = run_python(code, input=pickle.dumps(poly)).stdout.decode()
    assert out == f"qspt.laurent {sorted(poly.terms.items())}\n"


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
