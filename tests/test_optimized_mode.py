"""Exactness checks raise under ``python -O`` too, and the CLI reports them as exit 1.

Each case breaks one provably exact division by patching a helper, then runs
the division in a child interpreter started with -O, which strips asserts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qspt

SRC = str(Path(qspt.__file__).resolve().parents[1])

BROKEN = {
    "integer_binomial": "import qspt.laurent as m\n"
                        "m.falling_factorial = lambda x, t: 1\n"
                        "m.integer_binomial(5, 2)",
    "second_moment": "import qspt.spt as m\n"
                     "m.moment = lambda *args: 1\n"
                     "import qspt.identities\n"
                     "qspt.identities.verify('fdyson', order=3)",
}


def _run_optimized(code: str) -> subprocess.CompletedProcess:
    # exit 4 if the child does not strip asserts after all
    code = "if __debug__:\n    raise SystemExit(4)\n" + code
    return subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120)


@pytest.mark.parametrize("code", BROKEN.values(), ids=BROKEN.keys())
def test_inexact_division_raises(code):
    body = "\n".join("    " + line for line in code.splitlines())
    script = ("from qspt import DiscrepancyError\ntry:\n" + body +
              "\nexcept DiscrepancyError:\n    raise SystemExit(3)\n")
    assert _run_optimized(script).returncode == 3


def test_cli_exits_1():
    proc = _run_optimized(
        BROKEN["second_moment"].rsplit("\n", 1)[0] + "\n"
        "from qspt.cli import main\n"
        "main(['verify', 'fdyson', '--n-max', '3'])"
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("FAIL second moment")
