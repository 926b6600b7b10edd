"""Capture the reference outputs the checker compares against.

    PYTHONPATH=src python3 perfbench/capture_reference.py

Writes perfbench/reference/spectrum.json (the structured fields of the
`--mu idx:K` report for every K at m = 8, and for the K of workload seeds
0 to 31 at m = 12) and perfbench/reference/verify_gated.json (every gated
check of `verify --suite all --m-range 3..8`).  Run it only at a commit whose outputs
are trusted: the references are what later commits are held to.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import checker
import workloads
from walshlab import cli

M12_SEEDS = range(32)


def _cli_json(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def main() -> int:
    spectra: dict[str, dict] = {}
    jobs = [(8, k) for k in range(255)]
    jobs += [(12, workloads.spectrum_m12(seed, "full").mu_index) for seed in M12_SEEDS]
    for m, k in jobs:
        by_k = spectra.setdefault(str(m), {})
        if str(k) in by_k:
            continue
        report = _cli_json(workloads.spectrum_argv(m, f"idx:{k}"))
        problems = checker.spectrum_problems(report, m)
        if problems:
            raise SystemExit(f"m={m} idx:{k} fails the paper gates: {problems}")
        by_k[str(k)] = {f: report[f] for f in checker.REPORT_FIELDS}
        print(f"m={m} idx:{k} captured", file=sys.stderr)
    for m in spectra:
        spectra[m] = dict(sorted(spectra[m].items(), key=lambda kv: int(kv[0])))

    wl = workloads.verify_sweep(0, "full")
    payload = _cli_json(wl.argv)
    if payload["passed"] is not True:
        raise SystemExit("verify did not pass")
    gated = [[c["suite"], c["m"], c["mu"], c["name"]] for c in payload["checks"]
             if not c["info"] and c["pass"] is True]

    os.makedirs(checker.REFERENCE_DIR, exist_ok=True)
    with open(checker.SPECTRUM_REFERENCE, "w") as fh:
        json.dump(spectra, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    with open(checker.VERIFY_REFERENCE, "w") as fh:
        fh.write('{"m_range": [%d, %d], "gated": [\n' % wl.m_range)
        fh.write(",\n".join(json.dumps(g) for g in gated))
        fh.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
