"""Quick self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py

Runs every workload at toy size (orders capped at workloads.TOY_N_MAX),
untraced and traced, against references made from the toy outputs.  It
checks that every metric of BENCHMARK.json is printed with its unit, that
the traced runs separate the layers, that a wrong reference digest or value
raises fail_frac, and that run.py exits non-zero without printing a result
in a directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl

def toy_refs() -> dict:
    refs = {"cli": {}, "lib": json.loads((run.BENCH / "refs.json").read_text())["lib"]}
    for workload in wl.CLI_WORKLOADS:
        for req in wl.cli_requests(workload, 0, toy=True):
            proc = subprocess.run([sys.executable, "-m", "qspt.cli", *req.args],
                                  capture_output=True, cwd=run.ROOT, env=run.child_env(),
                                  timeout=60)
            refs["cli"][req.key] = {"exit": proc.returncode,
                                    "sha256": hashlib.sha256(proc.stdout).hexdigest()}
    return refs


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"SELFTEST FAIL: {what}")
    print(f"ok  {what}", flush=True)


def check_spec() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json per_layer matches run.PER_LAYER")
    check([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS),
          "BENCHMARK.json workloads match workloads.WORKLOADS")


def check_printed(record: dict, names: dict) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_metrics(record)
    printed = {tuple(line.split()[1:2] + line.split()[-1:]) for line in buf.getvalue().splitlines()}
    missing = [n for n, unit in names.items() if (n, unit) not in printed]
    check(not missing, f"{record['workload']} trace={record['trace']}: every metric printed "
                       f"with its unit {missing or ''}")
    line = run.result_line(record, names)
    check(set(line["metrics"]) == set(names) and line["attempted"] >= 1,
          f"{record['workload']} trace={record['trace']}: result line has exactly the metrics")


def main() -> int:
    check_spec()
    refs = toy_refs()
    layers = {}
    for workload in wl.WORKLOADS:
        for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            record = run.run_workload(workload, 1, 0, trace, refs, toy=True)
            check(record["correct"] and record["failed"] == 0,
                  f"{workload} trace={int(trace)}: toy outputs match the references")
            check_printed(record, names)
            if trace:
                layers[workload] = {k: m["value"] for k, m in record["metrics"].items()}
    check(layers["cli-moments"]["laurent.bimul.calls"] == 0
          and layers["cli-gf"]["laurent.bimul.calls"] == 0,
          "laurent.bimul.calls is 0 on cli-moments and cli-gf")
    check(layers["cli-gf"]["stats.table.builds"] == 0, "stats.table.builds is 0 on cli-gf")
    check(layers["cli-verify"]["laurent.bimul.calls"] > 0
          and layers["cli-verify"]["partitions.enum.count"] > 0,
          "cli-verify exercises laurent and partition enumeration")
    check(layers["cli-moments"]["stats.table.builds"] > 0
          and layers["cli-moments"]["cli.cache.bytes"] > 0,
          "cli-moments builds count tables and writes its cache")
    check(layers["cli-gf"]["spt.gf.calls"] > 0, "cli-gf calls the spt GF builders")
    check(layers["lib-session"]["partitions.count.calls"] > 0,
          "lib-session calls through the patched qspt re-exports")

    bad = copy.deepcopy(refs)
    bad["cli"][wl.cli_requests("cli-gf", 0, toy=True)[0].key]["sha256"] = "0" * 64
    record = run.run_workload("cli-gf", 1, 0, False, bad, toy=True)
    check(record["metrics"]["fail_frac"]["value"] > 0 and not record["correct"],
          "a wrong CLI digest raises fail_frac and clears correct")
    bad = copy.deepcopy(refs)
    bad["lib"]["p"] = [None if v is None else v + 1 for v in bad["lib"]["p"]]
    record = run.run_workload("lib-session", 1, 0, False, bad, toy=True)
    check(record["metrics"]["fail_frac"]["value"] > 0 and not record["correct"],
          "a wrong library value raises fail_frac and clears correct")

    run.RESULTS.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.RESULTS))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-gf",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "without the qspt sources run.py exits non-zero and prints no result")
    print("SELFTEST PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
