"""The benchmark's own fast tests.

    python3 -m pytest perfbench

Each workload runs at tiny size (m = 3 or 4) in both modes; the tests assert
that every metric BENCHMARK.json names is emitted with its unit, and that the
checker counts corrupted outputs as failed operations.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record, summary = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == want
    for name, metric in summary["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)
        if not trace:
            assert metric["value"] > 0, name
    assert record["seed"] == 3 and record["workload"] == workload
    assert record["error_rate"] == 0
    for key in ("python", "numpy", "backend", "nproc", "llc", "copy_gbps", "copy_array_bytes"):
        assert key in record["env"]


def test_traced_run_attributes_its_wall_time():
    proc = _bench("mu_sweep_m8", 1)
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.strip().splitlines()[-1])
               ["metrics"].items()}
    assert metrics["cli.main.calls"] == 1  # one --mu all request
    assert metrics["cli.spectrum_report.calls"] == 7  # one report per mu of GF(2^3)*
    assert metrics["constructions.build.calls"] == 7
    assert metrics["gf2n.tables.calls"] >= 1
    assert metrics["kernels.wht_inplace.bytes_computed"] == 7 * 2 * 8 * 64 * 6
    assert 0 < metrics["spectrum_p50_ms"] <= metrics["spectrum_p95_ms"]
    assert metrics["trace.toplevel_s"] > 0


def test_verify_suites_are_traced():
    proc = _bench("verify_sweep", 1)
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.strip().splitlines()[-1])
               ["metrics"].items()}
    for suite in ("thm32", "thm34", "thm35", "lemma23", "lemma31", "fkl", "recursion",
                  "counts", "qsets"):
        assert metrics[f"cli.verify.{suite}.calls"] == 1
        assert metrics[f"cli.verify.{suite}.gated_checks"] > 0
        assert metrics[f"cli.verify.{suite}.total_s"] >= metrics[f"cli.verify.{suite}_s"]
    assert 0 < metrics["kloosterman.scan.useful_ratio"] <= 1


def _reference_report(m: int = 8, k: int = 0) -> dict:
    ref = checker.load_spectrum_reference()[m][k]
    return {"construction": "f", "m": m, "n": 2 * m, "lambda": "0x0", **copy.deepcopy(ref)}


def _sweep_payload() -> dict:
    return {"reports": [_reference_report(8, k) for k in range(255)]}


def test_reference_report_passes():
    report = _reference_report()
    ref = checker.load_spectrum_reference()[8][0]
    assert checker.spectrum_problems(report, 8, ref) == []
    outcome = checker.spectrum_outcome(0, json.dumps(report), 8, 1,
                                       checker.spectrum_reference(8, 0))
    assert outcome == (1, 0, [])


@pytest.mark.parametrize("with_reference", [True, False])
def test_tampered_report_counts_as_failed(with_reference):
    ref = checker.spectrum_reference(8, 0) if with_reference else None
    report = _reference_report()
    report["distribution"][0]["count"] += 1
    attempted, failed, problems = checker.spectrum_outcome(0, json.dumps(report), 8, 1, ref)
    assert (attempted, failed) == (1, 1) and problems


def test_reference_mismatch_counts_as_failed():
    # a report that passes every gate but is another mu's report
    report = _reference_report(8, 1)
    assert checker.spectrum_problems(report, 8) == []
    outcome = checker.spectrum_outcome(0, json.dumps(report), 8, 1,
                                       checker.spectrum_reference(8, 0))
    assert outcome[1] >= 1


def test_sweep_checks_every_report():
    ref = checker.spectrum_reference(8, None)
    assert len(ref) == 255
    payload = _sweep_payload()
    assert checker.spectrum_outcome(0, json.dumps(payload), 8, 255, ref) == (255, 0, [])

    tampered = _sweep_payload()
    tampered["reports"][100]["distribution"][0]["count"] += 1
    attempted, failed, problems = checker.spectrum_outcome(0, json.dumps(tampered), 8, 255, ref)
    assert (attempted, failed) == (255, 1) and problems

    short = _sweep_payload()
    short["reports"][7] = short["reports"][8]  # one mu twice, another missing
    attempted, failed, problems = checker.spectrum_outcome(0, json.dumps(short), 8, 255, ref)
    assert failed == 2 and problems

    assert checker.spectrum_outcome(2, "", 8, 255, ref)[:2] == (255, 255)


def test_verify_checker_counts_missing_and_failing_checks():
    gated = checker.load_verify_reference()
    checks = [{"suite": s, "m": m, "mu": mu, "name": n, "pass": True, "info": False,
               "detail": ""} for s, m, mu, n in gated]
    good = json.dumps({"checks": checks, "passed": True})
    attempted, failed, problems = checker.verify_outcome(0, good, (3, 8), gated)
    assert (attempted, failed, problems) == (len(gated), 0, [])

    bad = copy.deepcopy(checks)
    bad[0]["pass"] = False
    del bad[-1]
    text = json.dumps({"checks": bad, "passed": False})
    attempted, failed, problems = checker.verify_outcome(1, text, (3, 8), gated)
    assert attempted == len(gated) and failed == 2 and problems

    # info checks and details are never compared
    relaxed = copy.deepcopy(checks) + [{"suite": "thm32", "m": 3, "mu": "0x1",
                                         "name": "case_formula", "pass": False,
                                         "info": True, "detail": "anything"}]
    relaxed[0]["detail"] = "changed"
    text = json.dumps({"checks": relaxed, "passed": True})
    assert checker.verify_outcome(0, text, (3, 8), gated)[1] == 0


def test_workload_inputs_come_from_the_seed():
    assert workloads.make("spectrum_m12", 5) == workloads.make("spectrum_m12", 5)
    ks = {workloads.make("spectrum_m12", s).mu_index for s in range(8)}
    assert len(ks) > 1
    sweep = workloads.make("mu_sweep_m8", 2)
    assert sweep.argv[sweep.argv.index("--mu") + 1] == "all" and sweep.reports == 255


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("mu_sweep_m8", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
