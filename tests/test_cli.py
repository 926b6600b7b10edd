"""CLI contract: exit codes, schemas, determinism."""

import contextlib
import functools
import hashlib
import importlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import walshlab
from walshlab import constructions as C
from walshlab import expsums as E
from walshlab import gf2n
from walshlab import suites as S
from walshlab.cli import main
from walshlab.gf2n import FieldCtx, default_ctx

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(*argv):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# ------------------------------------------------------------ spectrum -----


def test_spectrum_f_m4_matches_reference_table():
    code, out = run("spectrum", "--construction", "f", "--m", "4",
                    "--mu", "0x1", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    got = {row["value"]: row["count"] for row in rep["distribution"]}
    assert got == {-16: 92, 0: 80, 16: 64, 32: 16, 48: 4}
    assert rep["nonlinearity"] == 104
    assert rep["algebraic_degree"] == 5
    assert rep["balanced"] is False


def test_spectrum_g_multi_mu_reports():
    code, out = run("spectrum", "--construction", "g", "--m", "5",
                    "--mu", "k=-1", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["reports"]) == 5
    for r in rep["reports"]:
        assert r["nonlinearity"] == (1 << 9) - (1 << 5)
        assert r["balanced"] is True


def test_spectrum_capability_exit_code():
    code, _ = run("spectrum", "--construction", "f", "--m", "20", "--mu", "0x1")
    assert code == 3


def test_spectrum_usage_error():
    code, _ = run("spectrum", "--construction", "f", "--m", "4", "--mu", "zz")
    assert code == 2
    code2, _ = run("spectrum", "--construction", "q", "--m", "4", "--mu", "0x1")
    assert code2 == 2


@pytest.mark.parametrize("cmd", ["spectrum", "anf", "export"])
@pytest.mark.parametrize("mu", ["0x0", "-0x1"])
def test_bad_mu_is_usage_error(cmd, mu, capsys):
    code, out = run(cmd, "--construction", "f", "--m", "3", f"--mu={mu}")
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("lam", ["0x0", "0x1", "0x40"])
def test_lambda_outside_tr_rel_one_is_usage_error(lam, capsys):
    # every lambda with tr_rel(lambda) = 1 gives the same f and g, so there is
    # no --lambda to pass: argparse rejects it, whatever its value
    for cmd in ("spectrum", "anf", "export"):
        code, out = run(cmd, "--construction", "f", "--m", "3", "--mu", "0x1",
                        "--lambda", lam)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("usage:")


def test_spectrum_csv_single():
    code, out = run("spectrum", "--construction", "f", "--m", "4",
                    "--mu", "0x1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,count"
    assert sum(int(l.split(",")[1]) for l in lines[1:]) == 256


# --------------------------------------------------------------- table -----


def test_table_remark_f_passes():
    code, out = run("table", "--which", "remark-f", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert [c["m"] for c in rep["columns"]] == [4, 5, 6]


def test_table_remark_g_passes():
    code, out = run("table", "--which", "remark-g", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert [c["m"] for c in rep["columns"]] == [3, 5, 7]
    total = sum(r["count"] for r in rep["columns"][2]["distribution"])
    assert total == 16384


def test_table_poly_invariance():
    # representation changes must not change the table (regenerated per run)
    code, out = run("table", "--which", "remark-f", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "m,mu,value,count"
    # a different degree-8 polynomial swaps the m=4 representation only
    code2, out2 = run("table", "--which", "remark-f", "--poly", "0x11b",
                      "--format", "csv")
    assert code2 == 0
    assert out2 == out


def test_table_poly_matching_no_column_is_usage_error(capsys):
    # degree 4 is no column of remark-f (degrees 8, 10, 12)
    code, out = run("table", "--which", "remark-f", "--poly", "0x11")
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error:")


# -------------------------------------------------------------- verify -----


def test_verify_fkl_json():
    code, out = run("verify", "--suite", "fkl", "--m-range", "2..6", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["m_range"] == [2, 6]
    assert all(c["pass"] for c in rep["checks"])


def test_verify_lemma23_range():
    code, out = run("verify", "--suite", "lemma23", "--m-range", "3..10", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_thm34_exit_zero():
    code, _ = run("verify", "--suite", "thm34", "--m-range", "3..5")
    assert code == 0


def test_verify_qsets_info_checks_do_not_gate():
    # the as-printed closed form mismatches are info-only: exit stays 0
    code, out = run("verify", "--suite", "qsets", "--m", "3", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    printed = [c for c in rep["checks"] if c["name"] == "q_closed_form_as_printed"]
    assert printed and all(c["info"] for c in printed)
    assert any(not c["pass"] for c in printed)  # documented mismatch
    assert rep["passed"] is True


def test_verify_bad_range_usage():
    code, _ = run("verify", "--suite", "fkl", "--m-range", "6..2")
    assert code == 2


# m < 1 is no field; thm32 runs from m = 2, so m = 1 selects no gated check
# and must not print a vacuous PASS
@pytest.mark.parametrize("argv", [("--m", "0"), ("--m-range", "0..0"), ("--m", "1")])
def test_verify_without_gated_checks_is_usage_error(argv, capsys):
    code, out = run("verify", "--suite", "thm32", *argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error:")


# recursion runs fixed (m, s) pairs at m = 2..5; gated checks outside the
# range must not make a range without its own gated check pass
@pytest.mark.parametrize("argv", [("--m", "7"), ("--m-range", "1..1")])
def test_verify_recursion_outside_the_range_is_usage_error(argv, capsys):
    code, out = run("verify", "--suite", "recursion", *argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: suite recursion has no gated check")


# argparse rejects a flag the command would drop: --m next to --m-range, or a
# format that export (no --format) or field (json, text) does not render
@pytest.mark.parametrize("argv, flag", [
    (("verify", "--suite", "lemma23", "--m", "5", "--m-range", "3..3"), "--m-range"),
    (("export", "--construction", "f", "--m", "3", "--mu", "0x1", "--format", "json"),
     "--format"),
    (("field", "--m", "3", "--format", "csv"), "--format"),
])
def test_flag_the_command_would_ignore_is_usage_error(argv, flag, capsys):
    code, out = run(*argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("usage:") and flag in err.splitlines()[-1]


def test_verify_all_m1_gates_the_weil_bound():
    # m = 1 has one gated check of its own, lemma23's Weil bound, so the run
    # passes
    code, out = run("verify", "--suite", "all", "--m-range", "1..1", "--format", "json")
    assert code == 0
    gated = [(c["suite"], c["m"], c["name"]) for c in json.loads(out)["checks"]
             if not c["info"]]
    assert [g for g in gated if g[1] == 1] == [("lemma23", 1, "weil_bound")]


def test_verify_thm34_m2_nonlinearity_is_info():
    # g with k_2(mu) = -1 is bent at m = 2, so the exact nonlinearity is
    # reported but gated only from m = 3
    code, out = run("verify", "--suite", "thm34", "--m", "2", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    by_name = {}
    for c in rep["checks"]:
        by_name.setdefault(c["name"], []).append(c)
    assert by_name["nonlinearity"] and all(c["info"] for c in by_name["nonlinearity"])
    for name in ("value_set", "balanced_iff_m_odd"):
        assert all(not c["info"] and c["pass"] for c in by_name[name])


def test_verify_recursion():
    code, out = run("verify", "--suite", "recursion", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["checks"]) == 6


# ---------------------------------------------------------- kloosterman ----


def test_kloosterman_scan_m3():
    code, out = run("kloosterman", "--m", "3", "--scan", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["values"]) == 8
    assert rep["value_set"] == [-5, -1, 3]


def test_kloosterman_target():
    code, out = run("kloosterman", "--m", "5", "--target", "-1", "--format", "json")
    assert code == 0
    assert json.loads(out)["mus"]


def test_kloosterman_point():
    code, out = run("kloosterman", "--m", "3", "--a", "0x0", "--format", "json")
    assert code == 0
    assert json.loads(out)["k"] == -1


@pytest.mark.parametrize("flag", ["--a", "--b"])
def test_kloosterman_element_out_of_range(flag, capsys):
    code, out = run("kloosterman", "--m", "3", flag, "0x9")
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error:")


def test_kloosterman_usage():
    code, _ = run("kloosterman", "--m", "3")
    assert code == 2


# ------------------------------------------------------------ bad input ----


@pytest.mark.parametrize("argv", [
    ("spectrum", "--construction", "f", "--m", "3", "--mu", "zz"),
    ("spectrum", "--construction", "f", "--m", "3", "--mu", "idx:x"),
    ("spectrum", "--construction", "f", "--m", "3", "--mu", "idx:-1"),
    ("spectrum", "--construction", "f", "--m", "3", "--mu", "0x1", "--poly", "0x41"),
    ("anf", "--construction", "f", "--m", "3", "--mu", "idx:-1"),
    ("export", "--construction", "g", "--m", "3", "--mu", "zz"),
    ("field", "--m", "3", "--poly", "zz"),
    ("field", "--m", "0", "--max-n", "8"),
    ("table", "--which", "remark-f", "--poly", "zz"),
    ("verify", "--suite", "fkl", "--m-range", "a..4"),
    ("kloosterman", "--m", "3", "--a", "zz"),
    ("kloosterman", "--m", "3", "--a", "0x1", "--b", "zz"),
    ("kloosterman", "--m", "-1", "--target", "3"),
    ("kloosterman", "--m", "0", "--scan"),
])
def test_bad_input_is_usage_error(argv, capsys):
    code, out = run(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error:")


def test_max_n_zero_is_honoured(capsys):
    # --max-n 0 is a cap like any other, not "unset"
    code, out = run("field", "--m", "2", "--max-n", "0")
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith("error:")
    code, _ = run("field", "--m", "2", "--max-n", "4")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("field", "--m", "15", "--max-n", "30"),
    ("spectrum", "--construction", "f", "--m", "15", "--mu", "0x1", "--max-n", "30"),
])
def test_max_n_cannot_raise_the_cap(argv, monkeypatch, capsys):
    # n = 30 is over the library's cap whatever --max-n says; no field is built
    def no_field(self, *args):
        raise AssertionError("a field was constructed")

    monkeypatch.setattr(FieldCtx, "__init__", no_field)
    code, out = run(*argv)
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith("error:")


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # only typed input errors map to exit 2; a bug inside a command crashes
    def broken(ctx):
        raise ValueError("internal")

    monkeypatch.setattr(C, "find_lambda", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["field", "--m", "2"])


def test_counts_suite_reports_unexpected_value_as_failure(monkeypatch):
    # a spectrum value outside the theorem set is a failed check, not a traceback
    def outside(dist, m):
        raise C.UnexpectedValue("spectrum value 7 outside the theorem set")

    monkeypatch.setattr(C, "count_relations_f", outside)
    code, out = run("verify", "--suite", "counts", "--m", "3")
    assert code == 1
    fails = [line for line in out.splitlines() if "FAIL" in line and "count_relations_f" in line]
    assert fails and "outside the theorem set" in fails[0]


def test_lemma31_reports_a_bad_circle_root_as_failure(monkeypatch):
    # the circle-equation solver rejects a wrong root; the suite records a FAIL, not a traceback
    solve = FieldCtx.solve_artin_schreier
    monkeypatch.setattr(FieldCtx, "solve_artin_schreier",
                        lambda self, d: {y ^ 2 for y in solve(self, d)})
    code, out = run("verify", "--suite", "lemma31", "--m", "3")
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line and "roots_on_circle" in line]


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "thm32", "--m-range", "3..15"),
    ("verify", "--suite", "lemma23", "--m-range", "27..29"),
    ("verify", "--suite", "all", "--m", "15"),
])
def test_verify_checks_the_cap_before_any_suite_runs(argv, monkeypatch, capsys):
    # the largest field of every requested suite is checked first: no suite
    # runs and no field is built, so the lower m of the range cost nothing
    def no_suite(*args):
        raise AssertionError("a suite ran")

    def no_field(self, *args):
        raise AssertionError("a field was constructed")

    for name, (lo, n_per_m, _) in list(S.SUITES.items()):
        monkeypatch.setitem(S.SUITES, name, (lo, n_per_m, no_suite))
    monkeypatch.setattr(FieldCtx, "__init__", no_field)
    code, out = run(*argv)
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("suite, m", [("lemma23", 28), ("thm32", 14)])
def test_verify_cap_admits_the_largest_field_at_the_cap(suite, m, monkeypatch):
    # lemma23 works in GF(2^m), the others in GF(2^2m): both reach n = 28;
    # the suite is faked, so nothing of that size is built
    def one_pass(m):
        return [C.check_record(suite, m, None, "fake", True)]

    lo, n_per_m, _ = S.SUITES[suite]
    monkeypatch.setitem(S.SUITES, suite, (lo, n_per_m, one_pass))
    code, _ = run("verify", "--suite", suite, "--m", str(m))
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("export", "--construction", "f", "--m", "3", "--mu", "0x1"),
    ("export", "--construction", "f", "--m", "3", "--mu", "0x1", "--encoding", "hex"),
    ("verify", "--suite", "fkl", "--m", "3"),
])
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    # the directory does not exist: an error line and exit 2, not a traceback
    code, out = run(*argv, "--out", str(tmp_path / "missing" / "x"))
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: --out")


# ------------------------------------------------------------- anf/export --


def test_anf_monomials_ascending():
    code, out = run("anf", "--construction", "g", "--m", "3", "--mu", "0x1",
                    "--format", "json")
    assert code == 0
    rep = json.loads(out)
    masks = [int(s, 16) for s in rep["monomials"]]
    assert masks == sorted(masks)
    assert rep["algebraic_degree"] == 4


def test_export_table_bits(tmp_path):
    path = tmp_path / "f.bits"
    code, _ = run("export", "--construction", "f", "--m", "4", "--mu", "0x1",
                  "--out", str(path))
    assert code == 0
    data = path.read_bytes()
    assert len(data) == 256 // 8
    # weight from the reference: W(0) = -16 -> weight = (256+16)/2 = 136
    assert sum(bin(b).count("1") for b in data) == 136


def test_export_hex_matches_bits(tmp_path):
    p1 = tmp_path / "f.bits"
    p2 = tmp_path / "f.hex"
    run("export", "--construction", "f", "--m", "3", "--mu", "0x1", "--out", str(p1))
    run("export", "--construction", "f", "--m", "3", "--mu", "0x1",
        "--encoding", "hex", "--out", str(p2))
    as_int = int.from_bytes(p1.read_bytes(), "little")
    assert p2.read_text().strip() == format(as_int, "#x")


# ----------------------------------------------------------- determinism ---


def test_identical_cfg_byte_identical_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _ = run("verify", "--suite", "thm34", "--m", "4",
                      "--format", "json", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name, argv", [
    ("verify_all_m3-4.json", ("verify", "--suite", "all", "--m-range", "3..4",
                              "--format", "json")),
    ("verify_all_m3-4.txt", ("verify", "--suite", "all", "--m-range", "3..4")),
    ("table_remark-f.json", ("table", "--which", "remark-f", "--format", "json")),
    ("table_remark-g.json", ("table", "--which", "remark-g", "--format", "json")),
    ("spectrum_g_m5_k-1.json", ("spectrum", "--construction", "g", "--m", "5",
                                "--mu", "k=-1", "--format", "json")),
    ("spectrum_g_m5_k-1.txt", ("spectrum", "--construction", "g", "--m", "5",
                               "--mu", "k=-1")),
    ("spectrum_g_m5_k-1.csv", ("spectrum", "--construction", "g", "--m", "5",
                               "--mu", "k=-1", "--format", "csv")),
    ("spectrum_f_m4_mu1.json", ("spectrum", "--construction", "f", "--m", "4",
                                "--mu", "0x1", "--format", "json")),
    ("field_m4.json", ("field", "--m", "4", "--format", "json")),
    ("field_m7.json", ("field", "--m", "7", "--format", "json")),
    ("field_m3_poly0x43.txt", ("field", "--m", "3", "--poly", "0x43")),
    ("kloosterman_m5_scan.csv", ("kloosterman", "--m", "5", "--scan", "--format", "csv")),
    ("anf_g_m3_idx2.json", ("anf", "--construction", "g", "--m", "3", "--mu", "idx:2",
                            "--format", "json")),
    ("export_f_m3_mu1.hex", ("export", "--construction", "f", "--m", "3", "--mu", "0x1",
                             "--encoding", "hex")),
    ("table_remark-f.txt", ("table", "--which", "remark-f")),
    ("table_remark-g.txt", ("table", "--which", "remark-g")),
    ("kloosterman_m5_scan.json", ("kloosterman", "--m", "5", "--scan", "--format", "json")),
    ("kloosterman_m5_scan.txt", ("kloosterman", "--m", "5", "--scan")),
    # n = 12 and n = 10: ANFs of more than one 64-bit word
    ("anf_f_m6_mu1.json", ("anf", "--construction", "f", "--m", "6", "--mu", "0x1",
                           "--format", "json")),
    ("export_g_m5_idx2_anf.txt", ("export", "--construction", "g", "--m", "5", "--mu", "idx:2",
                                  "--what", "anf")),
])
def test_output_matches_golden(name, argv):
    # each file was captured before the change that first pinned it; stdout must not drift
    code, out = run(*argv)
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("fmt, digest", [
    ("json", "edc0349a28c2f5d8db2468d9dee0c2809f68f05880623051772855048d63c370"),
    ("text", "d0bc99243388e047946a35d5d99e6da4a8cd19726f929764aca6ba0f6580d69a"),
], ids=["json", "text"])
def test_verify_all_m3_to_7_is_pinned(fmt, digest):
    # beyond the m = 3..4 golden: m = 5's info case_formula records and m = 6, 7;
    # the digests were taken before the suites moved into walshlab.suites
    code, out = run("verify", "--suite", "all", "--m-range", "3..7", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_console_entry_point_runs():
    # the child imports the walshlab under test, installed or not
    src = str(pathlib.Path(walshlab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-m", "walshlab.cli", "field", "--m", "2", "--format", "json"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["reduction_poly"] == "0x13"
    assert rep["n"] == 4


# ------------------------------------------------------- benchmark hooks ---


def _load_tracer():
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps these names from outside; a rename breaks it
    for module, attr, _layer in _load_tracer().TARGETS:
        obj = importlib.import_module(f"walshlab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)


def test_verify_calls_library_checks_through_their_modules(monkeypatch):
    # the suite table must look the checks up at call time, so wrappers
    # installed on the modules (as the tracer does) see every call
    calls = {}
    for module, name in ((E, "theorem35_check"), (E, "q_identity_check"),
                         (C, "verify_theorem")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    code, _ = run("verify", "--suite", "all", "--m", "3", "--format", "json")
    assert code == 0
    # one call per field: the per-field checks report every mu themselves
    assert calls == {"theorem35_check": 1, "q_identity_check": 1, "verify_theorem": 2}


def _fresh_default_fields(monkeypatch):
    # default_ctx builds new fields until the test ends: no memo is shared with other tests
    monkeypatch.setattr(gf2n, "default_field", functools.lru_cache(gf2n.create_field))


def test_verify_builds_each_construction_and_mu_once(monkeypatch):
    # thm32/thm34, counts and table read one memoised spectrum per (field,
    # construction, mu); case_report builds its own, but only for m <= 5.
    # f's spectrum at m = 6 comes from the line count, so f is never built.
    # Each run starts from fresh fields, so from empty memos, whatever ran before.
    builds = Counter()
    for name in ("build_f", "build_g"):
        def counted(ctx, mu, _fn=getattr(C, name), _name=name):
            builds[_name, mu] += 1
            return _fn(ctx, mu)

        monkeypatch.setattr(C, name, counted)
    _fresh_default_fields(monkeypatch)
    code, _ = run("verify", "--suite", "all", "--m", "6", "--format", "json")
    assert code == 0
    ctx = default_ctx(6)
    assert set(builds) == {("build_g", mu) for mu in C.mus_with_k(ctx, -1)}
    assert set(builds.values()) == {1}

    _fresh_default_fields(monkeypatch)
    for suite in ("thm32", "thm34"):
        assert run("verify", "--suite", suite, "--m", "6")[0] == 0
    builds.clear()
    assert run("verify", "--suite", "counts", "--m", "6")[0] == 0
    assert not builds


def test_one_route_serves_the_report_and_the_summary(monkeypatch):
    # f from C.LINE_COUNT_FROM_M comes from the line count, never the
    # butterfly; f below it and g at every m run the butterfly once
    spectra = []

    def wht_fast(table, _fn=C.wht_fast):
        spectra.append(table.size)
        return _fn(table)

    monkeypatch.setattr(C, "wht_fast", wht_fast)
    monkeypatch.setattr(walshlab.walsh, "wht_fast", wht_fast)
    _fresh_default_fields(monkeypatch)
    for m in range(2, 7):
        ctx = default_ctx(m)
        mu = ctx.subgroup("subfield_units")[-1]
        for which in ("f", "g"):
            want = [] if which == "f" and m >= C.LINE_COUNT_FROM_M else [ctx.q]
            spectra.clear()
            assert run("spectrum", "--construction", which, "--m", str(m),
                       "--mu", hex(mu), "--format", "json")[0] == 0
            assert spectra == want, (which, m)
            spectra.clear()
            C.spectrum_summary(ctx, which, mu)
            assert spectra == want, (which, m)
    assert 2 < C.LINE_COUNT_FROM_M < 7  # the loop sees both routes


# --------------------------------------------------------------- fuzzing ---

# values that are small, garbage or over the n cap.  In-cap m stays <= 4
# (kloosterman <= 8, a GF(2^m) scan) and an over-cap m is one the command
# rejects before it builds anything, so no draw allocates
_GARBAGE = st.sampled_from(["", "x", "-1", "0", "3.5", "0x", "1e3", "..", "idx:"])
_SMALL_M = st.integers(1, 4).map(str)
_M = st.one_of(_SMALL_M, _GARBAGE, st.sampled_from(["15", "29", "1000"]))
_HEX = st.one_of(st.integers(0, 0x1ff).map(hex), _GARBAGE,
                 st.sampled_from(["0x13", "0x43", "0x11b", "0x" + "f" * 40]))
_MU = st.one_of(_HEX, st.sampled_from(["all", "k=-1", "idx:0", "idx:3", "idx:-1",
                                       "idx:99999", "idx:x"]))
_COMMON = {"--poly": _HEX, "--max-n": st.one_of(st.integers(-1, 30).map(str), _GARBAGE),
           "--format": st.sampled_from(["json", "csv", "text", "xml"])}
_BUILT = {**_COMMON, "--m": _M, "--construction": st.sampled_from(["f", "g", "h"]),
          "--mu": _MU}
_FLAGS = {
    "field": {**_COMMON, "--m": _M},
    "spectrum": _BUILT,
    "anf": _BUILT,
    "export": {**_BUILT, "--what": st.sampled_from(["table", "anf", "x"]),
               "--encoding": st.sampled_from(["bits", "hex", "x"])},
    "table": {"--which": st.sampled_from(["remark-f", "remark-g", "x"]),
              "--poly": _HEX, "--format": _COMMON["--format"]},
    "verify": {"--suite": st.sampled_from([*S.SUITES, "all", "x"]),
               "--m": st.one_of(_SMALL_M, _GARBAGE, st.sampled_from(["29", "1000"])),
               "--m-range": st.one_of(
                   st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map("{0[0]}..{0[1]}".format),
                   _GARBAGE, st.sampled_from(["3..15", "27..29", "1..", "..4"])),
               "--format": _COMMON["--format"]},
    "kloosterman": {"--m": st.one_of(st.integers(-1, 8).map(str), _GARBAGE,
                                     st.sampled_from(["29", "1000"])),
                    "--scan": st.none(), "--target": st.one_of(st.integers(-20, 20).map(str),
                                                               _GARBAGE),
                    "--a": _HEX, "--b": _HEX, "--format": _COMMON["--format"]},
}


_REQUIRED = {"field": ["--m"], "spectrum": ["--m", "--construction", "--mu"],
             "anf": ["--m", "--construction", "--mu"],
             "export": ["--m", "--construction", "--mu"], "table": ["--which"],
             "verify": ["--suite"], "kloosterman": ["--m"]}


@st.composite
def _argvs(draw):
    # the required flags come most of the time, so most draws get past argparse
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    names = [f for f in _REQUIRED[command] if draw(st.integers(0, 7))]
    names += draw(st.lists(st.sampled_from(sorted(set(flags) - set(names))), unique=True))
    argv = [command]
    for flag in names:
        value = draw(flags[flag])
        argv += [flag] if value is None else [flag, value]
    return argv, draw(st.sampled_from([None, "out", "missing/out"]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argvs())
def test_fuzzed_arguments_exit_with_a_documented_code(tmp_path, drawn):
    argv, out = drawn
    if out is not None:
        argv = argv + ["--out", str(tmp_path / out)]
    stdout = io.TextIOWrapper(io.BytesIO())  # export writes bits to stdout.buffer
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
