"""One round of an in-process workload, in a fresh interpreter.

Reads a JSON request on stdin:
``{"items": [[kind, params, input], ...], "setup_only": bool,
"trace": bool, "spans": path or null, "force_false": index or null}``.
Prints one JSON line: the monotonic time at which balacyc was imported and
the inputs parsed (``ready``), then per item ``[passed, seconds, error]``,
the round's wall time from the first item's start to the last verdict,
peak RSS, and with ``trace`` the tracer's summary.
``force_false`` marks one item failed; only the self-checks use it.
"""

import json
import resource
import sys
import time
import traceback


def run_items(balacyc, request: dict, out: dict) -> None:
    from tracer import ITEM_SPAN, Tracer
    from workloads import run_item

    tracer = Tracer() if request.get("trace") else None
    if tracer:
        tracer.install()
    results = []
    first = time.perf_counter()
    for index, (kind, params, value) in enumerate(request["items"]):
        start = time.perf_counter()
        error = None
        try:
            if tracer:
                with tracer.span(ITEM_SPAN):
                    passed = run_item(balacyc, kind, params, value)
            else:
                passed = run_item(balacyc, kind, params, value)
        except Exception as exc:  # a raising item is a failed item, not a crash
            traceback.print_exc()
            passed, error = False, f"{type(exc).__name__}: {exc}"
        if index == request.get("force_false"):
            passed = False
        results.append([passed, time.perf_counter() - start, error])
    out["verdict_s"] = time.perf_counter() - first
    if tracer:
        tracer.restore()
        out["trace"] = tracer.summary()
        if request.get("spans"):
            tracer.dump(request["spans"])
    out["items"] = results
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    import balacyc
    import balacyc.cli  # noqa: F401  (loads every layer, as the CLI does)

    request = json.load(sys.stdin)
    out = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC), "module": balacyc.__file__}
    if not request.get("setup_only"):
        run_items(balacyc, request, out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
