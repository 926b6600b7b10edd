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
import tracemalloc
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from naive_oracle import unit_circle

import walshlab
from walshlab import cli
from walshlab import constructions as C
from walshlab import expsums as E
from walshlab import gf2n
from walshlab import kernels
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


def test_subfield_coordinate_map_is_built_once_per_field(monkeypatch):
    # f's all-mu pass, the chart builder and k_m's map share gf2n.subfield_coords
    calls = Counter()

    def counted(small, big, _fn=gf2n.embedding_columns):
        calls[small.n, id(big)] += 1
        return _fn(small, big)

    for name, module in list(sys.modules.items()):
        if name.startswith("walshlab") and hasattr(module, "embedding_columns"):
            monkeypatch.setattr(module, "embedding_columns", counted)
    ctx = default_ctx(6)
    monkeypatch.setattr(ctx, "_memo", {})  # a cold memo, restored after the test
    assert run("spectrum", "--construction", "f", "--m", "6", "--mu", "all")[0] == 0
    assert run("verify", "--suite", "thm34", "--m", "6")[0] == 0
    assert calls == {(6, id(ctx)): 1}


@pytest.mark.parametrize("mu", ["idx:1", "all"])
def test_f_report_builds_no_truth_table(mu, monkeypatch):
    # from m = 4 f's distribution comes from the polar lines and its degree
    # from the univariate form; neither needs the builder or its term data
    def refuse(*args):
        raise AssertionError("f's report built a truth table")

    monkeypatch.setattr(C, "build_f", refuse)
    monkeypatch.setattr(C, "_polar_terms", refuse)
    for m in range(4, 9):
        assert run("spectrum", "--construction", "f", "--m", str(m), "--mu", mu,
                   "--format", "json")[0] == 0


def test_cold_f_report_peaks_under_a_bit_a_point():
    ctx = gf2n.create_ctx(12)  # a fresh field, so no memo was filled before
    tracemalloc.start()
    try:
        cli._one_spectrum_report(ctx, "f", 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ctx.q // 8, peak


def test_g_report_builds_no_truth_table(monkeypatch):
    # g's distributions for every mu come from one pass over the chart
    calls = Counter()

    def counted(name, fn):
        def build(ctx, mu):
            calls[name] += 1
            return fn(ctx, mu)
        return build

    for name in ("build_f", "build_g"):
        monkeypatch.setattr(C, name, counted(name, getattr(C, name)))
    assert run("spectrum", "--construction", "g", "--m", "5", "--mu", "all")[0] == 0
    assert run("spectrum", "--construction", "g", "--m", "5", "--mu", "0x1")[0] == 0
    assert not calls


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
    # a different degree-8 polynomial (the largest irreducible) swaps the m=4
    # representation only
    assert default_ctx(4).reduction_poly != 0x1F9
    code2, out2 = run("table", "--which", "remark-f", "--poly", "0x1f9",
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
    # a spectrum value outside the theorem set is a failed check, not a
    # traceback; thm32 and counts share one count gate, so one patch of its
    # table (f's value set without -2^m) fails both
    which, mus, _, relations = C.THEOREMS["thm32"]
    monkeypatch.setitem(C.THEOREMS, "thm32", (which, mus, (0, 1, 2, 3), relations))
    for suite, name in (("thm32", "count_relations"), ("counts", "count_relations_f")):
        code, out = run("verify", "--suite", suite, "--m", "3")
        assert code == 1
        fails = [line for line in out.splitlines() if "FAIL" in line and f" {name} " in line]
        assert len(fails) == 7, suite  # every mu of GF(2^3)
        assert all("spectrum value -8 outside the theorem set" in line for line in fails)


def test_mu_parse_at_the_cli():
    # --mu is parsed once: idx:K is generator^((2^m+1) K), hex is the element
    # itself, and either must be a nonzero subfield element (else exit 2)
    ctx = default_ctx(3)
    sub = ctx.subgroup("subfield_units")
    nonsub = next(x for x in range(ctx.q) if not ctx.in_subfield(x))

    def mu_of(selector):
        code, out = run("spectrum", "--construction", "f", "--m", "3", "--mu", selector,
                        "--format", "json")
        return code, int(json.loads(out)["mu"], 16) if code == 0 else None

    assert mu_of("idx:0") == (0, 1)
    code, mu = mu_of("idx:1")
    assert code == 0 and mu in sub and mu != 1
    assert mu_of(hex(sub[2])) == (0, sub[2])
    assert mu_of(hex(nonsub)) == (2, None)


@pytest.mark.parametrize("which", ["f", "g"])
def test_anf_runs_one_mobius_pass(which, monkeypatch):
    # anf's degree comes from the univariate form, so its one Moebius pass is the ANF
    calls = []

    def counted(words, n, _fn=kernels.mobius_inplace):
        calls.append(n)
        return _fn(words, n)

    monkeypatch.setattr(kernels, "mobius_inplace", counted)
    for m in range(4, 8):
        calls.clear()
        assert run("anf", "--construction", which, "--m", str(m), "--mu", "0x1")[0] == 0
        assert calls == [2 * m], m


def test_lemma31_reports_a_bad_circle_root_as_failure(monkeypatch):
    # columns that miss y^2 + y = a^2 give roots that miss the circle
    # equation; the suite records a FAIL, not a traceback
    cols = FieldCtx.artin_schreier_cols
    monkeypatch.setattr(FieldCtx, "artin_schreier_cols", lambda self: [c ^ 2 for c in cols(self)])
    code, out = run("verify", "--suite", "lemma31", "--m", "3")
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line and "roots_on_circle" in line]


def test_lemma31_reports_a_moved_circle_hit_as_failure(monkeypatch):
    # one point u of U \ {1} moved to u + lam: its tr_rel hit moves by
    # tr_rel(lam) = 1, so the map is no longer two-to-one onto H1
    cyclic = FieldCtx.cyclic

    def moved(self, d):
        group = cyclic(self, d)
        if d == (1 << self.m) + 1:
            group = group.copy()
            group[-1] ^= C.find_lambda(self)
        return group

    monkeypatch.setattr(FieldCtx, "cyclic", moved)
    monkeypatch.setattr(S, "default_ctx", gf2n.create_ctx)  # fresh fields: no memo is shared
    for m in (3, 4):
        got = {r["name"]: r["pass"] for r in S._lemma31(m)}
        assert got == {"root_counts": True, "roots_on_circle": True,
                       "two_to_one_onto_H1": False}, m


def test_lemma31_and_the_subgroups_build_no_table(monkeypatch):
    # the orbits and the column maps are all lemma31 needs, up to n = 28
    def refuse(self):
        raise AssertionError(f"the exp/log tables of GF(2^{self.n}) were built")

    monkeypatch.setattr(FieldCtx, "tables", refuse)
    for m in range(2, 15):
        ctx = gf2n.create_ctx(m)  # a fresh field, so no memo was filled before
        assert len(ctx.cyclic((1 << m) + 1)) == len(unit_circle(ctx)) == (1 << m) + 1
        assert len(ctx.subgroup("subfield_units")) == (1 << m) - 1
        monkeypatch.setattr(S, "default_ctx", lambda _: ctx)
        records = S._lemma31(m)
        assert len(records) == 3 and all(r["pass"] for r in records), records


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


# --------------------------------------------------------- library reach ---

# Every function src/walshlab defines is run by some command, except these,
# which only perfbench calls; they go with the benchmark change (ROADMAP item 1)
_BENCHMARK_ONLY = {
    ("gf2n.py", "power_table"),  # ROADMAP item 1: a tracer target
    ("kernels.py", "backend"),  # ROADMAP item 1: recorded by perfbench's worker
    ("boolfun.py", "algebraic_degree"),  # ROADMAP item 1: a tracer target
}

# runs the commands of argv[1] under a profiler and writes the exit codes and
# every walshlab function entered, as (file name, first line, name), to argv[2]
_REACH = """
import json, os, sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(profile)
from walshlab import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
package = os.path.dirname(os.path.realpath(cli.__file__))
reached = [[os.path.basename(f), line, name] for f, line, name in entered
           if os.path.dirname(os.path.realpath(f)) == package]
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "reached": reached}, fh)
"""


def _defined_functions(package):
    # (file name, first line, name) of every def, nested ones included
    out = set()

    def walk(code, name):
        for const in code.co_consts:
            if hasattr(const, "co_consts"):
                if not const.co_name.startswith("<"):  # no lambda, comprehension
                    out.add((name, const.co_firstlineno, const.co_name))
                walk(const, name)

    for path in package.glob("*.py"):
        walk(compile(path.read_text(), str(path), "exec"), path.name)
    return out


def test_every_library_function_is_run_by_a_command(tmp_path):
    # a fresh process, so no memo or cache filled by another test hides a body
    package = pathlib.Path(walshlab.__file__).parent
    out = str(tmp_path / "out")
    commands = [
        ["verify", "--suite", "all", "--m-range", "1..6", "--format", "json"],
        ["verify", "--suite", "all", "--m-range", "1..6"],
        ["spectrum", "--construction", "f", "--m", "5", "--mu", "0x1"],
        ["spectrum", "--construction", "f", "--m", "5", "--mu", "all", "--format", "csv"],
        ["spectrum", "--construction", "f", "--m", "5", "--mu", "k=-1", "--format", "json"],
        ["spectrum", "--construction", "g", "--m", "3", "--mu", "idx:1"],
        ["table", "--which", "remark-f"],
        ["table", "--which", "remark-g", "--poly", "0x43", "--format", "json"],
        ["anf", "--construction", "f", "--m", "3", "--mu", "0x1"],
        ["export", "--construction", "g", "--m", "3", "--mu", "0x1", "--out", out],
        ["export", "--construction", "f", "--m", "3", "--mu", "0x1", "--encoding", "hex"],
        ["export", "--construction", "f", "--m", "3", "--mu", "0x1", "--what", "anf"],
        ["field", "--m", "3", "--poly", "0x43"],
        ["kloosterman", "--m", "4", "--scan"],
        ["kloosterman", "--m", "4", "--target", "-1"],
        ["kloosterman", "--m", "4", "--a", "0x3"],
        ["spectrum", "--construction", "f", "--m", "3", "--mu", "0x0"],  # usage error
        ["field", "--m", "15"],  # over the cap
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(package.parent), os.environ.get("PYTHONPATH"))))}
    report = tmp_path / "reach.json"
    proc = subprocess.run([sys.executable, "-c", _REACH, json.dumps(commands), str(report)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text())
    assert result["codes"] == [0] * (len(commands) - 2) + [2, 3]
    unreached = _defined_functions(package) - {tuple(r) for r in result["reached"]}
    assert {(name, fn) for name, _, fn in unreached} == _BENCHMARK_ONLY, sorted(unreached)


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
    # At m = 6 f's and g's spectra come from their all-mu passes, so no truth
    # table is built at all.
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
    assert not builds

    _fresh_default_fields(monkeypatch)
    for suite in ("thm32", "thm34"):
        assert run("verify", "--suite", suite, "--m", "6")[0] == 0
    builds.clear()
    assert run("verify", "--suite", "counts", "--m", "6")[0] == 0
    assert not builds


def test_one_route_serves_the_report_and_the_summary(monkeypatch):
    # f from C.LINE_COUNT_FROM_M comes from the line count and g at every m
    # from its all-mu pass, never the butterfly; f below it runs the
    # butterfly once, for the report and the summary together
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
            want = [ctx.q] if which == "f" and m < C.LINE_COUNT_FROM_M else []
            spectra.clear()
            assert run("spectrum", "--construction", which, "--m", str(m),
                       "--mu", hex(mu), "--format", "json")[0] == 0
            assert spectra == want, (which, m)
            spectra.clear()
            C.walsh_summary(ctx, which, mu, True)
            assert spectra == [], (which, m)  # f's butterfly is memoised whatever all_mu says
    assert 2 < C.LINE_COUNT_FROM_M < 7  # the loop sees both routes


def test_only_requests_for_every_mu_run_the_all_mu_pass(monkeypatch):
    # a spectrum request for more than one mu (all, k=-1) and the per-field
    # summaries take f from the all-mu pass; one mu counts its lines alone
    passes, counts = [], []

    def f_distributions(ctx, _fn=C.f_distributions):
        passes.append(ctx.m)
        return _fn(ctx)

    def f_line_distribution(ctx, mu, _fn=C.f_line_distribution):
        counts.append(mu)
        return _fn(ctx, mu)

    monkeypatch.setattr(C, "f_distributions", f_distributions)
    monkeypatch.setattr(C, "f_line_distribution", f_line_distribution)
    _fresh_default_fields(monkeypatch)
    m = C.LINE_COUNT_FROM_M + 1
    ctx = default_ctx(m)
    k_mus = len(C.mus_with_k(ctx, -1))
    assert k_mus > 1
    for selector, want_passes, want_counts in (("idx:5", [], 1),
                                               ("k=-1", [m] * k_mus, 0),
                                               ("all", [m] * ((1 << m) - 1), 0)):
        _fresh_default_fields(monkeypatch)  # an empty walsh_summary memo per request
        passes.clear()
        counts.clear()
        assert run("spectrum", "--construction", "f", "--m", str(m), "--mu", selector,
                   "--format", "json")[0] == 0
        assert (passes, len(counts)) == (want_passes, want_counts), selector
    _fresh_default_fields(monkeypatch)
    passes.clear()
    counts.clear()
    assert run("verify", "--suite", "thm32", "--m", str(m))[0] == 0
    assert passes and not counts
    passes.clear()
    assert run("spectrum", "--construction", "f", "--m", str(C.LINE_COUNT_FROM_M - 1),
               "--mu", "all")[0] == 0
    assert not passes  # below LINE_COUNT_FROM_M f keeps the butterfly


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
