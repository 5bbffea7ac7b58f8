"""The qspt benchmark: drive qspt from outside and check every output.

    python3 perfbench/run.py --workload cli-gf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up (median of several
cold starts), then whole passes over the workload's seeded request sequence
until the next pass would end after ``--seconds``.  ``--trace 1`` runs one
untraced pass and one traced pass and reports the per-layer metrics.  Each
request is one process, run one at a time (closed loop, one client); its
stdout digest and exit code are checked against refs.json and its peak RSS
is read from its own rusage.  Times are scaled by a machine-speed probe
(see PROBE_REF_S).  The last stdout line is one JSON object; a full run
record goes to perfbench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

SETUP_REPS = 9
REQUEST_TIMEOUT_S = 30.0
SESSION_TIMEOUT_S = 90.0
# Requests started after this many seconds get at most half a second, so a
# run ends well inside its 180-second limit even if qspt hangs.
RUN_DEADLINE_S = 150.0
# The speed of the shared machine this benchmark was built on drifts by up
# to 30% over minutes.  A fixed pure-Python probe therefore runs before and
# after every child process, and the times of a pass (or of the set-up) are
# scaled by PROBE_REF_S / (mean probe time of that pass): they read as
# seconds on a machine where the probe takes PROBE_REF_S.  Raw times and
# probe times stay in the run record.
PROBE_REF_S = 0.007
PROBES_PER_GAP = 2
LIB_PROBES_PER_GAP = 5

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "req_p50_s": "s",
    "req_p99_s": "s",
    "peak_rss_mb": "MiB",
}
# A "<group>.calls" or "<group>.self_s" metric reads the spans of that group
# of wrapped functions (layers.GROUPS); the others are named in per_layer().
PER_LAYER = {
    "series.mul.calls": "count",
    "series.mul.self_s": "s",
    "series.mul.ops": "count",
    "series.addsub.self_s": "s",
    "series.inverse.calls": "count",
    "series.inverse.self_s": "s",
    "series.factor.self_s": "s",
    "series.memo.hit_ratio": "ratio",
    "laurent.bimul.calls": "count",
    "laurent.bimul.self_s": "s",
    "laurent.mul_series.self_s": "s",
    "laurent.biinv.self_s": "s",
    "laurent.build.self_s": "s",
    "laurent.extract.self_s": "s",
    "partitions.enum.count": "count",
    "partitions.enum.self_s": "s",
    "partitions.durfee.self_s": "s",
    "partitions.count.calls": "count",
    "partitions.count.self_s": "s",
    "stats.table.builds": "count",
    "stats.gf_njm.calls": "count",
    "stats.gf_njm.self_s": "s",
    "stats.moment.self_s": "s",
    "stats.sym_mu.self_s": "s",
    "stats.gf_sym_mu.self_s": "s",
    "spt.gf.calls": "count",
    "spt.gf.self_s": "s",
    "spt.gf.orders": "count",
    "spt.weight.self_s": "s",
    "cli.self_s": "s",
    "cli.cache.bytes": "bytes",
    "cli.import_s": "s",
    "memo.entries": "count",
    "hit_p50_s": "s",
    "fail_frac": "ratio",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """qspt could not be started; the run prints no result."""


@dataclass
class Outcome:
    """One request (or one lib-session call) as measured and checked."""

    key: str
    kind: str
    latency_s: float | None
    exit: int | None = None
    rss_kb: int = 0
    timed_out: bool = False
    ok: bool = False
    wrong: bool = False  # wrote output that differs from the reference
    detail: str = ""


@dataclass
class Pass:
    """One pass: its raw wall time, machine-speed scale and probe gaps."""

    wall_s: float
    scale: float
    outcomes: list[Outcome]
    gaps: list[list[float]]
    layers: list[dict] = field(default_factory=list)
    cache_bytes: int = 0

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.scale


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QSPT_CACHE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(argv: list[str], env: dict, out_path: Path, err_path: Path,
                timeout: float) -> tuple[float, int, int, bool]:
    """Run one process to completion: (latency_s, exit code, peak RSS KiB, timed out).

    The peak RSS is this process's own ``ru_maxrss`` from ``wait4``; the
    cumulative RUSAGE_CHILDREN maximum would let one large request hide
    every later one.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}

    def kill() -> None:
        with lock:
            if not state["exited"]:
                state["timed_out"] = True
                proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        # Wait for exit without reaping, so the timer can never signal a
        # reaped (and possibly reused) pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        latency = time.perf_counter() - t0
        with lock:
            state["exited"] = True
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return latency, proc.returncode, usage.ru_maxrss, state["timed_out"]


def speed_scale(gaps: list[list[float]]) -> float:
    """The machine-speed scale of the processes run between these probe gaps."""
    return PROBE_REF_S / statistics.fmean(t for gap in gaps for t in gap)


def probe() -> float:
    """Time one fixed big-integer convolution, the kind of work qspt does."""
    a = [(7919 * i + 13) ** 3 for i in range(200)]
    t0 = time.perf_counter()
    out = [0] * 400
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] += x * y
    return time.perf_counter() - t0


def probe_gap(count: int = PROBES_PER_GAP) -> list[float]:
    return [probe() for _ in range(count)]


def _tail(path: Path) -> str:
    return path.read_bytes()[-400:].decode(errors="replace")


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, refs: dict, toy: bool = False):
        self.workload = workload
        self.seed = seed
        self.refs = refs
        self.toy = toy
        self.env = child_env()
        self.start = time.monotonic()
        self.pass_count = 0
        # The speed of each vCPU toggles independently, so the probes and
        # the children they bracket all run on one CPU (children inherit it).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.setup_raw: list[float] = []
        self.setup_gaps: list[list[float]] = []
        RESULTS.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _timeout(self, limit: float) -> float:
        left = RUN_DEADLINE_S - (time.monotonic() - self.start)
        return min(limit, max(0.5, left))

    def setup(self) -> list[float]:
        """Scaled cold-start times: one warm-up (writes bytecode caches), then SETUP_REPS."""
        if not (ROOT / "src" / "qspt" / "__init__.py").is_file():
            raise SetupError(f"no qspt sources under {ROOT / 'src'}")
        if self.workload == "lib-session":
            argv = [sys.executable, "-c", "import qspt"]
        else:
            argv = [sys.executable, "-m", "qspt.cli", "--help"]
        out, err = self.work / "setup.out", self.work / "setup.err"
        self.setup_gaps.append(probe_gap())
        for i in range(SETUP_REPS + 1):
            latency, code, _, timed_out = run_process(argv, self.env, out, err,
                                                      self._timeout(REQUEST_TIMEOUT_S))
            self.setup_gaps.append(probe_gap())
            if code != 0 or timed_out:
                raise SetupError(f"{' '.join(argv[1:])} exited {code}: {_tail(err)}")
            if i:
                self.setup_raw.append(latency)
        scale = speed_scale(self.setup_gaps)
        return [t * scale for t in self.setup_raw]

    def run_pass(self, traced: bool) -> Pass:
        index = self.pass_count
        self.pass_count += 1
        if self.workload == "lib-session":
            return self._lib_pass(index, wl.lib_calls(self.seed, index, self.toy), traced)
        return self._cli_pass(wl.cli_requests(self.workload, self.seed, index, self.toy), traced)

    def _cli_pass(self, requests: list[wl.Request], traced: bool) -> Pass:
        cache = self.work / "cache.json"
        cache.unlink(missing_ok=True)
        out, err, report = self.work / "req.out", self.work / "req.err", self.work / "layers.json"
        outcomes, layers, gaps = [], [], [probe_gap()]
        for req in requests:
            args = list(req.args)
            if req.kind != "compute":
                args += ["--cache", str(cache)]
            if traced:
                report.unlink(missing_ok=True)
                argv = [sys.executable, str(BENCH / "layers.py"), str(report), *args]
            else:
                argv = [sys.executable, "-m", "qspt.cli", *args]
            latency, code, rss, timed_out = run_process(
                argv, self.env, out, err, self._timeout(REQUEST_TIMEOUT_S))
            gaps.append(probe_gap())
            ref = self.refs["cli"][req.key]
            stdout = out.read_bytes()
            digest_ok = hashlib.sha256(stdout).hexdigest() == ref["sha256"]
            o = Outcome(req.key, req.kind, latency, code, rss, timed_out)
            o.ok = not timed_out and code == ref["exit"] and digest_ok
            o.wrong = bool(stdout) and not digest_ok
            if not o.ok:
                o.detail = "timed out" if timed_out else _tail(err)
            outcomes.append(o)
            if traced and report.exists():
                layers.append(json.loads(report.read_text()))
        # The pass's wall time is the time its requests ran, back to back;
        # probes and checks between requests are left out.
        wall = sum(o.latency_s for o in outcomes)
        cache_bytes = cache.stat().st_size if cache.exists() else 0
        return Pass(wall, speed_scale(gaps), outcomes, gaps, layers, cache_bytes)

    def _lib_pass(self, index: int, calls: list[list], traced: bool) -> Pass:
        calls_path, result_path = self.work / "calls.json", self.work / "session.json"
        calls_path.write_text(json.dumps(calls))
        result_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "session.py"), str(calls_path),
                str(result_path), *(["--trace"] if traced else [])]
        err = self.work / "session.err"
        gaps = [probe_gap(LIB_PROBES_PER_GAP)]
        wall, code, rss, timed_out = run_process(
            argv, self.env, self.work / "session.out", err, self._timeout(SESSION_TIMEOUT_S))
        gaps.append(probe_gap(LIB_PROBES_PER_GAP))
        scale = speed_scale(gaps)
        # Every call is its own request: a call's cost depends on which
        # tables earlier calls built, so repeats are not the same request.
        keys = [f"{index}.{i} {fn}{tuple(args)}" for i, (fn, args) in enumerate(calls)]
        if code != 0 or timed_out or not result_path.exists():
            detail = "timed out" if timed_out else _tail(err)
            outcomes = [Outcome(k, "compute", None, code, rss, timed_out, detail=detail)
                        for k in keys]
            return Pass(wall, scale, outcomes, gaps)
        result = json.loads(result_path.read_text())
        errors = dict(result["errors"])
        outcomes = []
        for i, ((fn, args), key) in enumerate(zip(calls, keys)):
            value = result["values"][i]
            expected = wl.lib_reference(self.refs, fn, args)
            o = Outcome(key, "compute", result["latencies"][i], code, rss)
            o.ok = i not in errors and value == expected
            o.wrong = value is not None and value != expected
            if not o.ok:
                o.detail = errors.get(i, f"returned {value}, expected {expected}")
            outcomes.append(o)
        layers = [result["layers"]] if traced else []
        return Pass(wall, scale, outcomes, gaps, layers)


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule (an observed value)."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def typical(passes: list[Pass], kinds: tuple[str, ...]) -> list[float]:
    """Each distinct request's median scaled latency over the passes.

    A cache hit and the miss before it are different requests.

    Percentiles over these are steadier than over all samples pooled: a
    pooled median of an even count averages the slowest sample of one
    request and the fastest of another, and a pooled maximum grows with the
    number of passes that fit in a run.
    """
    by_key = defaultdict(list)
    for p in passes:
        for o in p.outcomes:
            if o.kind in kinds and o.latency_s is not None:
                by_key[o.kind, o.key].append(o.latency_s * p.scale)
    return [statistics.median(v) for v in by_key.values()]


def end_to_end(setup: list[float], passes: list[Pass]) -> dict:
    # A lib-session process that dies leaves no per-call latencies; its
    # whole wall time then stands for every call.
    walls = [p.scaled_wall_s for p in passes]
    computing = typical(passes, ("compute", "miss")) or walls
    every = typical(passes, ("compute", "miss", "hit")) or walls
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(walls),
        "req_p50_s": statistics.median(computing),
        "req_p99_s": nearest_rank(every, 0.99),
        "peak_rss_mb": max(o.rss_kb for p in passes for o in p.outcomes) / 1024,
    }


def side_metrics(passes: list[Pass]) -> dict:
    """Metrics of the untraced passes that only some workloads give."""
    hits = typical(passes, ("hit",))
    outcomes = [o for p in passes for o in p.outcomes]
    return {
        "hit_p50_s": statistics.median(hits) if hits else 0.0,
        "fail_frac": sum(not o.ok for o in outcomes) / len(outcomes),
    }


def per_layer(untraced: Pass, traced: Pass) -> dict:
    calls, self_s, counts = Counter(), Counter(), Counter()
    hits = misses = orders = 0
    imports, entries = [], []
    for rep in traced.layers:
        calls.update(rep["calls"])
        self_s.update(rep["self_s"])
        counts.update(rep["counts"])
        hits += rep["series_memo_hits"]
        misses += rep["series_memo_misses"]
        orders += rep["gf_orders"]
        imports.append(rep["import_s"])
        entries.append(rep["memo_entries"])
    m = {}
    for name in PER_LAYER:
        group, _, stat = name.rpartition(".")
        if stat == "calls":
            m[name] = calls[group]
        elif stat == "self_s":
            m[name] = self_s[group] * traced.scale
    m.update({
        "series.mul.ops": counts["series.mul.ops"],
        "series.memo.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "partitions.enum.count": counts["partitions.enum.count"],
        "stats.table.builds": counts["stats.table.builds"],
        "spt.gf.orders": orders,
        "cli.cache.bytes": traced.cache_bytes,
        "cli.import_s": statistics.median(imports) * traced.scale if imports else 0.0,
        "memo.entries": max(entries, default=0),
        "trace.overhead_s": traced.scaled_wall_s - untraced.scaled_wall_s,
        **side_metrics([untraced]),
    })
    return {name: m[name] for name in PER_LAYER}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu}


def git_state() -> dict:
    """Commit and dirty flag of the checkout, or nulls outside a git work tree."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha or None, "dirty": bool(status.strip()) if sha else None}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 refs: dict, toy: bool = False) -> dict:
    """Run one workload; returns the full run record."""
    runner = Runner(workload, seed, refs, toy)
    try:
        setup = runner.setup()
        t0 = time.perf_counter()
        if trace:
            passes = [runner.run_pass(False), runner.run_pass(True)]
            metrics = per_layer(*passes)
            units = PER_LAYER
        else:
            passes = []
            while True:
                passes.append(runner.run_pass(False))
                elapsed = time.perf_counter() - t0
                if (elapsed + passes[-1].wall_s > seconds
                        or time.monotonic() - runner.start > RUN_DEADLINE_S):
                    break
            metrics = {**end_to_end(setup, passes), **side_metrics(passes)}
            units = {**END_TO_END, "hit_p50_s": "s", "fail_frac": "ratio"}
    finally:
        runner.close()
    outcomes = [o for p in passes for o in p.outcomes]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "toy": toy,
        "git": git_state(),
        **machine(),
        "setup_samples_s": runner.setup_raw,
        "setup_probe_gaps_s": runner.setup_gaps,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "correct": not any(o.wrong for o in outcomes),
        "passes": [{"wall_s": p.wall_s, "scaled_wall_s": p.scaled_wall_s,
                    "traced": trace and i == 1, "cache_bytes": p.cache_bytes,
                    "scale": p.scale, "probe_gaps_s": p.gaps,
                    "requests": [vars(o) for o in p.outcomes]}
                   for i, p in enumerate(passes)],
    }


def result_line(record: dict, names) -> dict:
    """The last stdout line: the run's verdict and exactly the named metrics."""
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: record["metrics"][k] for k in names},
    }


def save(record: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS / (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
                      f"-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record) + "\n")
    return path


def print_metrics(record: dict) -> None:
    for name, m in record["metrics"].items():
        print(f"{record['workload']:12} {name:26} {m['value']:>14.6g} {m['unit']}")
    print(f"{record['workload']:12} {'failed/attempted':26} "
          f"{record['failed']:>7}/{record['attempted']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    refs = json.loads((BENCH / "refs.json").read_text())
    names = PER_LAYER if a.trace else END_TO_END
    workloads = wl.WORKLOADS if a.workload == "all" else (a.workload,)
    records = []
    try:
        for workload in workloads:
            record = run_workload(workload, a.seed, a.seconds, bool(a.trace), refs)
            print_metrics(record)
            print(f"# run record: {save(record).relative_to(ROOT)}", flush=True)
            records.append(record)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    if a.workload != "all":
        print(json.dumps(result_line(records[0], names)))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {r["workload"]: result_line(r, names)["metrics"] for r in records},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
