"""One repetition of a workload, run by run.py in a fresh interpreter.

Imports the package from the checkout's ``src``, generates the inputs of
the seed (set-up), then calls ``satgraph.cli.main`` in process once per
CLI call of the workload, with stdin, stdout and stderr redirected to
memory (the timed phase).  Prints one JSON record on its own stdout: the
set-up time, every call's exit code, output and duration, the peak RSS,
and, when traced, the per-layer metrics.

Usage: python3 perfbench/worker.py '<json config>'   (see run.py)
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback


def peak_rss_mb() -> float:
    """High-water RSS of this process image.  VmHWM starts afresh at exec;
    ru_maxrss would also count the parent's RSS at the fork before it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(cfg["root"], "src"))
    cli = importlib.import_module("satgraph.cli")
    import workloads

    calls, sizes = workloads.generate(cfg["workload"], cfg["seed"], cfg["size"], cfg["threads"])
    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - cfg["launch"]

    results = []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(call["stdin"])
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(call["argv"])
        except Exception:  # a crash fails the call's operations; the run goes on
            error = traceback.format_exc()
        secs = time.perf_counter() - t0
        sys.stdin = sys.__stdin__
        result = {k: v for k, v in call.items() if k != "stdin"}
        result.update(rc=rc, error=error, secs=secs, stdout=out.getvalue(), stderr=err.getvalue())
        results.append(result)

    record = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "sizes": sizes,
        "calls": results,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["unwrapped"] = tracer.missing
        if cfg.get("spans_path"):
            tracer.write(cfg["spans_path"], json.dumps(
                {"workload": cfg["workload"], "seed": cfg["seed"], "size": cfg["size"]}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
