"""Per-layer tracing of qspt from outside the package.

``Tracer.install`` wraps the public functions of each qspt module in timing
wrappers.  Every module namespace that bound a wrapped function (by
``from .x import y``, including the re-exports in ``qspt/__init__``) gets
the wrapper, and wrappers sit outside ``lru_cache`` so that memo hits are
counted as calls.  Spans are folded into per-group totals as they close: a
stack of child-time accumulators gives each span's self time (its duration
minus the time its child spans cover), so memory stays flat over millions of
calls.

Run as a script, this file is the traced form of one CLI request:

    python perfbench/layers.py REPORT.json compute --family p --n-max 10

It runs ``qspt.cli.main`` with the given arguments, writes the layer report to
REPORT.json and exits with the code the untraced ``python -m qspt.cli`` would.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import traceback
from collections import Counter, defaultdict

# group -> (module, attributes).  "Class.method" names patch the class.
GROUPS = {
    "series.mul": ("series", ("TruncSeries.__mul__",)),
    "series.addsub": ("series", ("TruncSeries.__add__", "TruncSeries.__sub__",
                                 "TruncSeries.shift", "TruncSeries.scale")),
    "series.inverse": ("series", ("TruncSeries.inverse",)),
    "series.factor": ("series", ("pochhammer_finite", "pochhammer_inf", "inv_pochhammer_inf",
                                 "inv_pochhammer_finite", "inv_one_minus", "gauss_binomial")),
    "laurent.bimul": ("laurent", ("BiSeries.__mul__",)),
    "laurent.mul_series": ("laurent", ("BiSeries.mul_series",)),
    "laurent.biinv": ("laurent", ("BiSeries.inverse",)),
    "laurent.build": ("laurent", ("build_crank_gf", "build_rank_gf", "build_jrank_gf",
                                  "build_kn1_sides")),
    "laurent.extract": ("laurent", ("dz_at_1", "symmetrized_extract")),
    "partitions.enum": ("partitions", ("enumerate_partitions",)),
    "partitions.durfee": ("partitions", ("successive_durfee", "successive_lower_durfee",
                                         "is_rogers_ramanujan")),
    "partitions.count": ("partitions", ("partition_count",)),
    "stats.gf_njm": ("stats", ("gf_njm",)),
    "stats.moment": ("stats", ("moment", "count_njm", "moment_via_sym")),
    "stats.sym_mu": ("stats", ("sym_mu",)),
    "stats.gf_sym_mu": ("stats", ("gf_sym_mu",)),
    "spt.gf": ("spt", ("gf_spt", "gf_np", "gf_spt_j", "gf_genn1_lhs", "gf_genn1_rhs",
                       "gf_spt_k", "gf_jspt_k", "appbp_sides")),
    "spt.weight": ("spt", ("spt_weight", "mark_weight", "chain_weight", "split_chain_weight")),
}
GENERATORS = {"enumerate_partitions"}


class Tracer:
    """Timing wrappers and the totals they fill."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.orders: set = set()
        self.memos: list = []
        self._stack: list[float] = []

    def span(self, name, fn, hook=None):
        """Wrap ``fn`` so each call is a span of group ``name``."""
        stack, calls, self_s = self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt

        return wrapper

    def generator_span(self, name, fn):
        """Wrap a generator function: each ``next`` is a span, each item is counted."""
        stack, calls, self_s, counts = self._stack, self.calls, self.self_s, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = time.perf_counter() - t0
                    self_s[name] += dt - stack.pop()
                    if stack:
                        stack[-1] += dt
                counts[name + ".count"] += 1
                yield item

        return wrapper

    def _hook(self, name, fn):
        """Counters that need a call's arguments."""
        counts = self.counts
        if name == "series.mul":
            def hook(args, kwargs):
                n = min(args[0].order, args[1].order)
                counts["series.mul.ops"] += (n + 1) * (n + 2) // 2
            return hook
        if name == "stats.gf_njm":
            def hook(args, kwargs):
                if args[1] == 0:
                    counts["stats.table.builds"] += 1
            return hook
        if name == "spt.gf":
            sig = inspect.signature(fn)

            def hook(args, kwargs):
                self.orders.add(sig.bind(*args, **kwargs).arguments["order"])
            return hook
        return None

    def install(self) -> None:
        """Patch every loaded qspt module; call after importing qspt."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qspt" or name.startswith("qspt.")]
        memos = {id(v): v for m in modules for v in vars(m).values() if hasattr(v, "cache_info")}
        self.memos = list(memos.values())
        for group, (modname, attrs) in GROUPS.items():
            mod = sys.modules["qspt." + modname]
            for attr in attrs:
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    cls = getattr(mod, cls_name)
                    fn = cls.__dict__[meth]
                    setattr(cls, meth, self.span(group, fn, self._hook(group, fn)))
                    continue
                fn = getattr(mod, attr)
                if attr in GENERATORS:
                    wrapper = self.generator_span(group, fn)
                else:
                    wrapper = self.span(group, fn, self._hook(group, fn))
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, bound, wrapper)

    def report(self) -> dict:
        """Totals for this process, to be summed over requests by the runner."""
        series = [fn.cache_info() for fn in self.memos if fn.__module__ == "qspt.series"]
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "gf_orders": len(self.orders),
            "series_memo_hits": sum(i.hits for i in series),
            "series_memo_misses": sum(i.misses for i in series),
            "memo_entries": sum(fn.cache_info().currsize for fn in self.memos),
        }


def main(argv: list[str]) -> int:
    report_path, args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import qspt.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    run = tracer.span("cli", qspt.cli.main.main)
    code = 0
    try:
        run(args=args, prog_name="python -m qspt.cli")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        # The untraced process dies with a traceback and exit code 1.
        traceback.print_exc()
        code = 1
    finally:
        rep = tracer.report()
        rep["import_s"] = import_s
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(rep, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
