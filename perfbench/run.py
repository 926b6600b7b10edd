"""walshlab benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload spectrum_m12 --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout.  Every iteration of the workload runs in a
fresh child process (perfbench/worker.py) that imports walshlab from the
checkout's src/, builds the first field context, then sends the workload's one
CLI request and checks its output.  Iterations run one at a time; there are at
least two, and more until the next would overrun --seconds.  The run reports
medians.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced iterations and prints the per-layer metrics, where every timed
walshlab function is wrapped from outside by perfbench/tracer.py.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.  The
line before it records the workload, the seed, the environment and any
output problems.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracer import LAYERS, SUITES  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 150
SETUP_PROBES = {"full": 6, "tiny": 1}  # extra set-up-only processes per untraced run
COPY_CAP_BYTES = {"full": 512 << 20, "tiny": 16 << 20}  # per array; two are live

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for layer in LAYERS:
        out += [(f"{layer}_s", "s"), (f"{layer}.calls", "count")]
    for suite in SUITES:
        name = f"cli.verify.{suite}"
        out += [(f"{name}_s", "s"), (f"{name}.total_s", "s"), (f"{name}.calls", "count"),
                (f"{name}.gated_checks", "count")]
    out += [
        ("gf2n.tables.bytes", "bytes"),
        ("kernels.wht_inplace.bytes_computed", "bytes"),
        ("kernels.wht_inplace.gbps_computed", "GB/s"),
        ("kloosterman.scan.useful_ratio", "ratio"),
        ("spectrum_p50_ms", "ms"),
        ("spectrum_p95_ms", "ms"),
        ("trace.toplevel_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
        ("machine.copy_gbps", "GB/s"),
    ]
    return out


class BenchError(Exception):
    pass


def _child(args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cpu = max(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else -1
    try:
        proc = subprocess.run([sys.executable, WORKER, "--src", SRC, "--cpu", str(cpu), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker {args} exceeded {CHILD_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _llc() -> tuple[str, int]:
    """Last-level cache as lscpu reports it, and its size in bytes (0 if unknown)."""
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", 0
    units = {"KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30, "K": 1 << 10, "M": 1 << 20}
    for level in ("L3", "L2"):
        hit = re.search(rf"^{level} cache:\s*(\d+(?:\.\d+)?)\s*(KiB|MiB|GiB|K|M)(.*)$", text, re.M)
        if hit:
            desc = f"{level} {hit.group(1)} {hit.group(2)}{hit.group(3)}".strip()
            return desc, int(float(hit.group(1)) * units[hit.group(2)])
    return "unknown", 0


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _layer_values(trace: dict, wall_s: float) -> dict:
    self_s, total_s, calls = trace["self_s"], trace["total_s"], trace["calls"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = calls.get(layer, 0)
    for suite in SUITES:
        name = f"cli.verify.{suite}"
        out[f"{name}_s"] = self_s.get(name, 0.0)
        out[f"{name}.total_s"] = total_s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.gated_checks"] = trace["gated_checks"].get(suite, 0)
    wht_s = self_s.get("kernels.wht_inplace", 0.0)
    scans = calls.get("kloosterman.scan", 0)
    out["gf2n.tables.bytes"] = trace["table_bytes"]
    out["kernels.wht_inplace.bytes_computed"] = trace["wht_bytes"]
    out["kernels.wht_inplace.gbps_computed"] = trace["wht_bytes"] / wht_s / 1e9 if wht_s else 0.0
    out["kloosterman.scan.useful_ratio"] = trace["scan_distinct_m"] / scans if scans else 0.0
    report_ms = trace["report_ms"]
    out["spectrum_p50_ms"] = statistics.median(report_ms) if report_ms else 0.0
    out["spectrum_p95_ms"] = _quantile(report_ms, 0.95) if report_ms else 0.0
    out["trace.toplevel_s"] = trace["toplevel_s"]
    out["trace.unattributed_s"] = wall_s - trace["toplevel_s"]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple:
    """Measure one workload; returns (record, summary) for the last two lines."""
    if not os.path.isfile(os.path.join(SRC, "walshlab", "__init__.py")):
        raise BenchError(f"no walshlab package under {SRC}")
    common = ["--workload", workload, "--seed", str(seed), "--size", size]

    llc_desc, llc_bytes = _llc()
    copy_bytes = min(4 * llc_bytes, COPY_CAP_BYTES[size]) if llc_bytes else COPY_CAP_BYTES[size]
    machine = _child(["--mode", "machine", "--copy-bytes", str(copy_bytes)])

    setup = [] if trace else [_child(["--mode", "setup", *common])["setup_s"]
                              for _ in range(SETUP_PROBES[size])]
    t_start = time.perf_counter()  # --seconds covers the iterations, not the probes
    iterations = []
    while True:
        traced = trace and len(iterations) % 2 == 0
        t = time.perf_counter()
        it = _child(["--mode", "run", "--trace", str(int(traced)), *common])
        it["traced"] = traced
        iterations.append(it)
        took = time.perf_counter() - t
        done = time.perf_counter() - t_start
        # at least two iterations, so that no run rests on a single sample
        if len(iterations) >= 2 and done + took > seconds:
            break

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    problems = [p for it in iterations for p in it["problems"]][:20]
    plain = [it for it in iterations if not it["traced"]]
    if trace:
        traced = [it for it in iterations if it["traced"]]
        per_it = [_layer_values(it["trace"], it["wall_s"]) for it in traced]
        values = {}
        for name, unit in per_layer_metrics():
            if name in per_it[0]:
                middle = statistics.median_low if unit == "count" else statistics.median
                values[name] = middle(v[name] for v in per_it)
        values["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced)
                                      - statistics.median(it["wall_s"] for it in plain))
        values["machine.copy_gbps"] = machine["copy_gbps"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_metrics()}
    else:
        setup += [it["setup_s"] for it in iterations]
        values = {
            "wall_s": statistics.median(it["wall_s"] for it in iterations),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "iterations": len(iterations),
        "traced_iterations": sum(it["traced"] for it in iterations),
        "setup_samples": len(setup),
        "wall_s_untraced": [it["wall_s"] for it in plain],
        "reference_compared": all(it["reference_compared"] for it in iterations),
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": problems,
        "env": {
            **iterations[0]["env"],
            "nproc": os.cpu_count(),
            "llc": llc_desc,
            "llc_bytes": llc_bytes,
            "copy_array_bytes": machine["copy_array_bytes"],
            "copy_gbps": machine["copy_gbps"],
        },
    }
    summary = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    return record, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="tiny runs each workload at m = 3 or 4, for the benchmark's tests")
    args = ap.parse_args(argv)
    try:
        record, summary = run(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.size)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for name, m in summary["metrics"].items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':<40} {record['error_rate']:>16.6g} "
          f"({summary['failed']} of {summary['attempted']} operations failed)")
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
