"""One benchmark iteration in a fresh process; prints one JSON line.

Modes:
  run    set up, send the workload's request through walshlab.cli.main
         in-process, check the output, report timings, peak RSS and outcomes
  setup  set up only (import walshlab, build the first FieldCtx)
  machine  measure main-memory copy bandwidth on arrays of --copy-bytes bytes

run.py starts this with PYTHONPATH pointing at the checkout's src/ and refuses
a walshlab imported from anywhere else.  Every iteration is its own process
because default_ctx, default_field and subfield_k_map cache per process and
ru_maxrss is a per-process peak.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import checker
import workloads


def _machine_probe(nbytes: int) -> dict:
    import numpy as np

    src = np.ones(nbytes // 8, dtype=np.int64)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # warm-up: faults every page in
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    # a copy reads and writes every byte once
    return {"copy_gbps": 2 * src.nbytes / statistics.median(times) / 1e9,
            "copy_array_bytes": src.nbytes}


def _run(args) -> dict:
    wl = workloads.make(args.workload, args.seed, args.size)
    t0 = time.perf_counter()
    import walshlab.cli as cli  # loads every walshlab module
    t_import = time.perf_counter() - t0

    import walshlab
    src = os.path.realpath(args.src)
    if not os.path.realpath(walshlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"walshlab was imported from {walshlab.__file__}, not from {src}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t1 = time.perf_counter()
    walshlab.gf2n.default_ctx(wl.first_m)
    setup_s = t_import + time.perf_counter() - t1
    result = {"setup_s": setup_s, "env": {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "backend": walshlab.kernels.backend(),
    }}
    if args.mode == "setup":
        return result

    if wl.kind == "spectrum":
        reference = checker.spectrum_reference(wl.m, wl.mu_index)
    else:
        reference = checker.load_verify_reference()
    out, err = io.StringIO(), io.StringIO()
    t_work = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(wl.argv))
    except Exception as exc:  # a crash is a failed operation, not a dead benchmark
        code = f"uncaught {exc!r}"
    with tracer.span("bench.check") if tracer else contextlib.nullcontext():
        if wl.kind == "spectrum":
            attempted, failed, problems = checker.spectrum_outcome(
                code, out.getvalue(), wl.m, wl.reports, reference)
        else:
            attempted, failed, problems = checker.verify_outcome(
                code, out.getvalue(), wl.m_range, reference)
    wall_s = time.perf_counter() - t_work

    result.update({
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "reference_compared": reference is not None,
    })
    if tracer:
        result["trace"] = tracer.summary(since=t_work)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("run", "setup", "machine"), default="run")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", help="the src/ directory walshlab must come from")
    ap.add_argument("--copy-bytes", type=int, default=0)
    ap.add_argument("--cpu", type=int, default=-1, help="pin this process to one CPU")
    args = ap.parse_args()
    if args.cpu >= 0:
        # the workloads are single-threaded; left free, the scheduler moves the
        # process between cores and each move costs the L2 contents
        os.sched_setaffinity(0, {args.cpu})
    if args.mode == "machine":
        result = _machine_probe(args.copy_bytes)
    else:
        result = _run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
