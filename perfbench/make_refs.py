"""Regenerate perfbench/refs.json, the committed expected outputs.

    python3 perfbench/make_refs.py

Runs every distinct CLI request of the workloads once (about a minute) and
stores its expected exit code and the sha256 of its stdout.  Every request
must exit 0 here.  One reference is not the request's own output:
``compute --family spt --n-max 600`` dies with a RecursionError at the
commit the references were made at.  Its reference is the output of
``compute --family Spt_j --j 1 --n-max 600`` with exit 0, because spt(n)
equals Spt_1(n); the two outputs are checked byte-identical at n_max 450.

Before writing, the script cross-checks routes: each gf-route and
weight-route output must equal a prefix of a moments-route output.  The
lib-session reference values are parsed from the cli-moments outputs.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import workloads as wl
from run import BENCH, ROOT, child_env

SPT_ALIAS = {"compute --family spt --n-max 600": "compute --family Spt_j --j 1 --n-max 600"}


def run(line: str) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "qspt.cli", *line.split()],
                          capture_output=True, cwd=ROOT, timeout=600, env=child_env())
    return proc.returncode, proc.stdout


def values(stdout: bytes) -> dict[int, int]:
    """n -> value from plain ``n value`` output lines."""
    return {int(a): int(b) for a, b in (line.split() for line in stdout.decode().splitlines())}


def prefix_equal(short: bytes, long: bytes) -> bool:
    return long.startswith(short) and short.endswith(b"\n")


def main() -> int:
    lines = sorted({r.key for w in wl.CLI_WORKLOADS for r in wl.cli_requests(w, 0)})
    outputs: dict[str, bytes] = {}
    refs = {}
    for line in lines:
        code, out = run(SPT_ALIAS.get(line, line))
        if code != 0:
            raise SystemExit(f"reference request failed with exit {code}: {line}")
        outputs[line] = out
        refs[line] = {"exit": 0, "sha256": hashlib.sha256(out).hexdigest()}
        print(f"{code} {refs[line]['sha256'][:12]} {line}", flush=True)

    checks = [
        ("compute --family Spt_j --j 2 --n-max 60 --route gf", "compute --family Spt_j --j 2 --n-max 600"),
        ("compute --family Spt_j --j 3 --n-max 60 --route gf", "compute --family Spt_j --j 3 --n-max 300"),
        ("compute --family spt_k --k 2 --n-max 60 --route gf", "compute --family spt_k --k 2 --n-max 300"),
        ("compute --family jspt_k --j 2 --k 2 --n-max 50 --route gf",
         "compute --family jspt_k --j 2 --k 2 --n-max 300"),
        ("compute --route weight --family Spt_j --j 2 --n-max 30", "compute --family Spt_j --j 2 --n-max 600"),
    ]
    for short, long in checks:
        if not prefix_equal(outputs[short], outputs[long]):
            raise SystemExit(f"route cross-check failed: {short} vs {long}")
    spt = run("compute --family spt --n-max 450")
    spt1 = run("compute --family Spt_j --j 1 --n-max 450")
    if spt != spt1 or not prefix_equal(spt1[1], outputs["compute --family spt --n-max 600"]):
        raise SystemExit("spt and Spt_1 disagree at n_max 450")

    def table(line: str, n_max: int = wl.LIB_N_MAX) -> list:
        vals = values(outputs[line])
        return [vals.get(n) for n in range(n_max + 1)]

    lib = {
        "Spt_j2": table("compute --family Spt_j --j 2 --n-max 600"),
        "Spt_j3": table("compute --family Spt_j --j 3 --n-max 300"),
        "jspt_k22": table("compute --family jspt_k --j 2 --k 2 --n-max 300"),
        "moment24": table("table --kind moment --j 2 --index 4 --n-max 300"),
        "p": table("compute --family p --n-max 600"),
    }
    doc = {"cli": refs, "lib": lib}
    (BENCH / "refs.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} CLI references and {len(lib)} value tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
