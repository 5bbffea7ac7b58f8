"""Usage errors of ``python -m qspt.cli``, pinned byte for byte.

Each case runs in a fresh process and pins its exit code, stdout and stderr:
every parser error (a missing option or argument, an invalid choice, a value
that is not an integer, an unknown option or command, an extra argument, an
option given no value or a value it does not take) and every usage check of
the commands. A usage error prints the usage line, a help hint and a blank
line, then the ``Error:`` line; an option given no value prints the
``Error:`` line alone. The help pages may change their layout, so for them only
the exit code and what they list are pinned.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
PROG = "python -m qspt.cli"


def run(argv):
    return subprocess.run([sys.executable, "-m", "qspt.cli", *argv], env=ENV,
                          capture_output=True, text=True, timeout=60)


def usage(command, error):
    """The stderr of a usage error of ``command`` ("" for the program itself)."""
    path = f"{PROG} {command}".rstrip()
    line = {"": "[OPTIONS] COMMAND [ARGS]...", "verify": "[OPTIONS] IDENTITY"}.get(command,
                                                                                "[OPTIONS]")
    return f"Usage: {path} {line}\nTry '{path} --help' for help.\n\nError: {error}\n"


CASES = [
    (["compute", "--family", "p", "--n-max", "5"], 0, "1 1\n2 2\n3 3\n4 5\n5 7\n", ""),
    (["compute", "--n-max", "3"], 2, "",
     usage("compute", "Missing option '--family'. Choose from:\n\tp,\n\tspt,\n\tspt_k,\n\t"
                      "Spt_j,\n\tjspt_k")),
    (["table", "--kind", "count", "--index", "0", "--n-max", "3"], 2, "",
     usage("table", "Missing option '--j'.")),
    (["verify"], 2, "", usage("verify", "Missing argument 'IDENTITY'.")),
    (["compute", "--family", "x", "--n-max", "3"], 2, "",
     usage("compute", "Invalid value for '--family': 'x' is not one of 'p', 'spt', 'spt_k', "
                      "'Spt_j', 'jspt_k'.")),
    (["compute", "--family", "p", "--n-max", "x"], 2, "",
     usage("compute", "Invalid value for '--n-max': 'x' is not a valid integer.")),
    (["verify", "kn1", "--N", "x"], 2, "",
     usage("verify", "Invalid value for '--n-max' / '--N': 'x' is not a valid integer.")),
    # the values given are checked in the order given
    (["table", "--index", "x", "--j", "y"], 2, "",
     usage("table", "Invalid value for '--index': 'x' is not a valid integer.")),
    # no option is matched by a prefix of its name
    (["compute", "--fam", "p", "--n-max", "3"], 2, "",
     usage("compute", "No such option '--fam'. (Did you mean one of: '--family', '--format'?)")),
    (["verify", "kn1", "--formt", "csv"], 2, "",
     usage("verify", "No such option '--formt'. (Did you mean one of: '--format', '--r'?)")),
    (["compute", "-5"], 2, "", usage("compute", "No such option '-5'.")),
    (["--j", "2"], 2, "", usage("", "No such option '--j'.")),
    (["foo"], 2, "", usage("", "No such command 'foo'.")),
    (["--"], 2, "", usage("", "Missing command.")),
    (["verify", "kn1", "extra"], 2, "", usage("verify", "Got unexpected extra argument (extra)")),
    (["verify", "kn1", "a", "b"], 2, "",
     usage("verify", "Got unexpected extra arguments (a b)")),
    (["compute", "--family", "p", "--n-max"], 2, "",
     "Error: Option '--n-max' requires an argument.\n"),
    (["compute", "--help=1"], 2, "", "Error: Option '--help' does not take a value.\n"),
    (["compute", "--family", "Spt_j", "--j", "0", "--n-max", "3"], 2, "",
     usage("compute", "j must be >= 1")),
    (["verify", "nonsense"], 2, "",
     usage("verify", "unknown identity 'nonsense'; known: Rk-forms, appbp, fdyson, genineq, "
                     "genjmu2k, genn1, gtjsptk, jgn, kn1, lemma31, lemma32, relos, sptdiff, "
                     "sptpn, sptpng")),
    (["table", "--kind", "symmetrized", "--j", "2", "--index", "0", "--n-max", "3"], 2, "",
     usage("table", "index must be >= 1 for symmetrized moments")),
    (["table", "--kind", "moment", "--j", "2", "--index", "300001", "--n-max", "3"], 2, "",
     usage("table", "index must be <= 300000 for moments")),
    (["verify", "relos", "--k", "150001"], 2, "",
     usage("verify", "relos reads the 2k-th moments; 2k must be <= 300000")),
    (["verify", "genineq", "--k", "150001"], 2, "",
     usage("verify", "genineq reads the 2k-th moments; 2k must be <= 300000")),
    (["congruence", "--n-max", "0"], 2, "", usage("congruence", "n-max must be >= 1")),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", CASES,
                         ids=[" ".join(argv) for argv, *_ in CASES])
def test_bytes_and_exit_code(argv, code, stdout, stderr):
    done = run(argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, stdout, stderr)


# what each help page must list: every command, option, choice, default and help string
HELP_PAGES = {
    (): ["compute", "verify", "table", "congruence", "--help",
         "Exact smallest-part partition statistics: compute, verify, tabulate.",
         "Print the values of a family for n = 1..n_max.",
         "Check the classical p(n) congruences and their Spt analogues."],
    ("compute",): ["--family", "p", "spt", "spt_k", "Spt_j", "jspt_k", "--j", "--k", "--n-max",
                   "--route", "recurrence", "weight", "gf", "moments", "all", "--format", "plain",
                   "csv", "json", "--cache", "--help", "required", "default",
                   "Default: the family's first route.",
                   "JSON cache file (default from $QSPT_CACHE)."],
    ("verify",): ["IDENTITY", "--j", "--k", "--r", "--n-max", "--N", "--format", "plain", "csv",
                  "json", "default", "--help"],
    ("table",): ["--kind", "count", "moment", "symmetrized", "--j", "--index", "--n-max",
                 "--format", "plain", "csv", "json", "required", "default", "--help",
                 "m for counts, t for moments, k for symmetrized moments."],
    ("congruence",): ["--n-max", "30", "--format", "plain", "csv", "json", "default", "--help"],
}


@pytest.mark.parametrize("command", list(HELP_PAGES), ids=lambda c: " ".join(c) or "qspt")
def test_help_page_exits_0_and_lists_everything(command):
    done = run([*command, "--help"])
    assert done.returncode == 0 and done.stderr == ""
    text = " ".join(done.stdout.split())  # as one line, however the page wraps
    words = set(re.findall(r"[\w$-]+", text))
    for item in HELP_PAGES[command]:
        assert (item in words) if re.fullmatch(r"[\w$-]+", item) else (item in text), item


def test_no_command_prints_help_and_exits_2():
    done = run([])
    assert done.returncode == 2 and done.stdout == ""
    text = " ".join(done.stderr.split())
    assert all(item in text for item in HELP_PAGES[()])
