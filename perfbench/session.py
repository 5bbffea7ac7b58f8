"""One long-lived library session, the way a Python user drives qspt.

    python perfbench/session.py CALLS.json RESULT.json [--trace]

Imports qspt, makes every call in CALLS.json in order (memo caches carry
over between calls), times each call and writes the latencies and returned
values to RESULT.json.  With --trace the layer report is added.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    calls_path, result_path = argv[0], argv[1]
    trace = "--trace" in argv[2:]
    with open(calls_path, encoding="utf-8") as fh:
        calls = json.load(fh)
    t0 = time.perf_counter()
    import qspt

    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    latencies, values, errors = [], [], []
    for i, (fn_name, args) in enumerate(calls):
        fn = getattr(qspt, fn_name)
        t = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:  # a failed call is recorded, the session goes on
            value = None
            errors.append([i, repr(exc)[:300]])
        latencies.append(time.perf_counter() - t)
        values.append(value)
    result = {"latencies": latencies, "values": values, "errors": errors}
    if tracer is not None:
        result["layers"] = tracer.report()
        result["layers"]["import_s"] = import_s
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
