"""CLI contract: exit codes, schemas, determinism."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import walshlab
from walshlab import constructions as C
from walshlab import expsums as E
from walshlab.cli import main
from walshlab.gf2n import FieldCtx

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
])
def test_output_matches_golden(name, argv):
    # each file was captured before the change that first pinned it; stdout must not drift
    code, out = run(*argv)
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


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
    assert calls == {"theorem35_check": 7, "q_identity_check": 7, "verify_theorem": 2}
