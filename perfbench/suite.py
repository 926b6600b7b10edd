"""Run every workload of BENCHMARK.json over ten seeds and summarise.

    python3 perfbench/suite.py [--out perfbench/baseline.json]

Each run is `perfbench/run.py` in its own process with the benchmark's
run_seconds, seeds 1 to 10.  For every (workload, end-to-end metric) it prints
the median, the quartiles (statistics.quantiles, n=4), the sample count and the
spread (q3 - q1) / median next to the metric's bound, flagging spreads above a
third of the bound.  One traced run per workload (seed 1) adds the per-layer
numbers and the tracing overhead.  With --out it writes all of that as JSON:
the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEEDS = range(1, 11)
NOTES = [
    "python -m walshlab.bench and the README benchmark block are left untouched; "
    "performance claims are judged by this benchmark (perfbench/run.py).",
    "The bounds hold for runs of the two commits interleaved on one host, not against "
    "these absolute medians: on a shared host the level moves with the neighbours' load; "
    "see perfbench/README.md, Steadiness.",
]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    out = {"notes": NOTES, "run_seconds": bench["run_seconds"], "runs": len(SEEDS),
           "seeds": [SEEDS[0], SEEDS[-1]], "workloads": {}}
    for workload in bench["workloads"]:
        name = workload["name"]
        samples: dict[str, list[float]] = {}
        failed = attempted = 0
        record = None
        for seed in SEEDS:
            record, summary = _run(name, seed, bench["run_seconds"], 0)
            failed += summary["failed"]
            attempted += summary["attempted"]
            for metric, v in summary["metrics"].items():
                samples.setdefault(metric, []).append(v["value"])
        entry = {"why": workload["why"], "attempted": attempted, "failed": failed,
                 "error_rate": failed / attempted, "env": record["env"], "end_to_end": {}}
        print(f"\n{name}: {len(SEEDS)} runs, {failed} of {attempted} operations failed")
        for metric, values in samples.items():
            st = _stats(values)
            entry["end_to_end"][metric] = st
            flag = "" if st["spread"] < bounds[metric] / 3 else "  WIDE"
            print(f"  {metric:<12} [{units[metric]}] median {st['median']:<10.6g} "
                  f"q1 {st['q1']:<10.6g} q3 {st['q3']:<10.6g} n {st['n']} "
                  f"spread {st['spread']:.4f} (bound {bounds[metric]}){flag}")
        record, summary = _run(name, SEEDS[0], bench["run_seconds"], 1)
        layers = {k: v["value"] for k, v in summary["metrics"].items()}
        entry["per_layer"] = layers
        entry["tracing_overhead_s"] = layers["trace.overhead_s"]
        print(f"  traced: overhead {layers['trace.overhead_s']:.4f} s, "
              f"unattributed {layers['trace.unattributed_s']:.4f} s")
        out["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
