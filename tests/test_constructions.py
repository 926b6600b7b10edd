"""The f and g constructions: builders, case formulas, counting relations."""

import itertools
import tracemalloc

import numpy as np
import pytest
from circle_oracle import solve_circle_equation
from line_oracle import read_every_line
from naive_oracle import build, is_balanced, unit_circle, weight
from polar_oracle import term_tables

from walshlab import boolfun as bf
from walshlab import chart
from walshlab import cli
from walshlab import constructions as C
from walshlab import kernels
from walshlab import kloosterman as kl
from walshlab import walsh
from walshlab.gf2n import (
    DivisionByZero,
    FieldCtx,
    FieldError,
    NotInSubfield,
    ZeroMu,
    create_ctx,
    default_ctx,
    is_irreducible,
    subfield_coords,
)


# ---------------------------------------------------------------- lambda ---


def test_find_lambda_satisfies_equation():
    for m in (2, 3, 4, 5):
        ctx = default_ctx(m)
        lam = C.find_lambda(ctx)
        assert ctx.tr_rel(lam) == 1
        assert lam == min(ctx.subgroup("affine_E"))


def test_lambda_solution_count_m3():
    ctx = default_ctx(3)
    assert len(ctx.subgroup("affine_E")) == 8


@pytest.mark.parametrize("m", [2, 3, 4])
def test_builders_match_the_definition_for_every_lambda(m):
    # the lam-term is tr_sub(x^(2^m+1)) for every lam in E, which is why the
    # builders take no lam
    ctx = default_ctx(m)
    mu = ctx.subgroup("subfield_units")[-1]
    f, g = C.build_f(ctx, mu), C.build_g(ctx, mu)
    e1, e2 = (1 << m) + 1, (1 << m) - 1
    for lam in ctx.subgroup("affine_E"):
        def term(x, lam=lam):
            return ctx.tr_abs(ctx.mul(lam, ctx.pow(x, e1)))

        def mu_term(x):
            return ctx.tr_abs(ctx.mul(mu, ctx.pow(x, e2)))

        f_def = build(ctx, lambda x: term(x) ^ (ctx.tr_abs(x) & mu_term(x)))
        g_def = build(ctx, lambda x: mu_term(x) if ctx.tr_abs(x) else term(x))
        assert np.array_equal(f, f_def)
        assert np.array_equal(g, g_def)


# --------------------------------------------------------------- builders --


def test_f_at_zero_and_against_scalar_evaluator():
    for m in (2, 3):
        ctx = default_ctx(m)
        lam = C.find_lambda(ctx)
        for mu in ctx.subgroup("subfield_units")[:3]:
            table = C.build_f(ctx, mu)
            assert table[0] == 0
            e1, e2 = (1 << m) + 1, (1 << m) - 1

            def scalar(x):
                if x == 0:
                    return 0
                a = ctx.tr_abs(ctx.mul(lam, ctx.pow(x, e1)))
                b = ctx.tr_abs(x) & ctx.tr_abs(ctx.mul(mu, ctx.pow(x, e2)))
                return a ^ b

            oracle = build(ctx, scalar)
            assert np.array_equal(table, oracle)


def test_g_piecewise_structure():
    for m in (2, 3):
        ctx = default_ctx(m)
        lam = C.find_lambda(ctx)
        mu = ctx.subgroup("subfield_units")[-1]
        f = C.build_f(ctx, mu)
        g = C.build_g(ctx, mu)
        assert g[0] == 0
        e1, e2 = (1 << m) + 1, (1 << m) - 1
        for x in range(ctx.q):
            if ctx.tr_abs(x):
                # on tr(x) = 1 the lam-part is switched off
                assert g[x] == ctx.tr_abs(ctx.mul(mu, ctx.pow(x, e2)))
            else:
                # on tr(x) = 0, g and f both reduce to the lam-part
                assert g[x] == ctx.tr_abs(ctx.mul(lam, ctx.pow(x, e1)))
                assert g[x] == f[x]


def test_builder_argument_validation():
    ctx = default_ctx(3)
    with pytest.raises(ZeroMu):
        C.build_f(ctx, 0)
    nonsub = next(x for x in range(ctx.q) if not ctx.in_subfield(x))
    with pytest.raises(NotInSubfield):
        C.build_g(ctx, nonsub)
    # ZeroMu is a field error, so the CLI reports it as a usage error
    assert issubclass(ZeroMu, FieldError)


def _assert_term_tables_match_the_oracle(ctx, mus):
    for mu in mus:
        got, want = C._term_tables(ctx, mu), term_tables(ctx, mu)
        for name, a, b in zip(("t_norm", "t_mu", "t_x"), got, want):
            assert a.dtype == np.uint8 and np.array_equal(a, b), (name, mu)


@pytest.mark.parametrize("m", range(1, 9))
def test_term_tables_match_the_power_class_oracle(m):
    ctx = default_ctx(m)
    _assert_term_tables_match_the_oracle(ctx, ctx.subgroup("subfield_units"))


@pytest.mark.parametrize("m", [9, 10])
def test_term_tables_match_the_power_class_oracle_for_16_mu(m):
    ctx = default_ctx(m)
    units = ctx.subgroup("subfield_units")
    _assert_term_tables_match_the_oracle(ctx, units[::len(units) // 16][:16])


def _largest_irreducible(n):
    return next(p for p in range((2 << n) - 1, 1 << n, -2) if is_irreducible(p))


# GF(2^2m) by another reduction polynomial than the default
OTHER_REPRESENTATIONS = [(3, 0x49)] + [(m, _largest_irreducible(2 * m)) for m in range(2, 7)]


@pytest.mark.parametrize("m, poly", OTHER_REPRESENTATIONS)
def test_term_tables_match_the_oracle_on_other_representations(m, poly):
    # the chart reads F through the embedding of the default GF(2^m), whatever
    # the reduction polynomial of GF(2^2m)
    ctx = create_ctx(m, poly)
    _assert_term_tables_match_the_oracle(ctx, ctx.subgroup("subfield_units"))


@pytest.mark.parametrize("m", range(2, 9))
def test_spectrum_paths_build_no_table_of_the_big_field(m, monkeypatch, tmp_path):
    # the term data comes from the chart, whose tables have 2^m entries and
    # are GF(2^m)'s own; GF(2^2m)'s exp/log tables would have 2^2m
    tables = FieldCtx.tables

    def refuse_big(self):
        if self.n == 2 * m:
            raise AssertionError(f"the exp/log tables of GF(2^{self.n}) were built")
        return tables(self)

    monkeypatch.setattr(FieldCtx, "tables", refuse_big)
    ctx = create_ctx(m)  # a fresh field, so no memo was filled before
    for mu in ctx.subgroup("subfield_units")[:3]:
        C.build_f(ctx, mu)
        C.build_g(ctx, mu)
        for which in ("f", "g"):
            C.walsh_summary(ctx, which, mu, True)
    for mu in C.mus_with_k(ctx, -1)[:2]:  # thm34's checks, case formulas included
        assert all(c["pass"] for c in C._verify_one(ctx, "thm34", mu) if not c["info"])
    field = ["--m", str(m), "--poly", format(ctx.reduction_poly, "#x")]  # a fresh field
    out = ["--out", str(tmp_path / "out")]
    for which in ("f", "g"):
        assert cli.main(["spectrum", "--construction", which, "--mu", "0x1", *field, *out]) == 0
        assert cli.main(["anf", "--construction", which, "--mu", "0x1", *field, *out]) == 0
        assert cli.main(["export", "--construction", which, "--mu", "0x1", *field, *out]) == 0


def test_cold_build_f_peaks_under_8_bytes_a_point():
    # the term data of a fresh field is t_norm (1 byte a point) and the line
    # index (2), filled through chunk buffers; the build adds t_mu (1).  The
    # power-class form peaked at 18 bytes a point
    ctx = create_ctx(10)
    tracemalloc.start()
    try:
        C.build_f(ctx, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * ctx.q, peak / ctx.q


# ------------------------------------------------------------ circle roots -


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_circle_equation_exhaustive(m):
    ctx = default_ctx(m)
    circle = set(unit_circle(ctx))
    for a in range(1, ctx.q):
        roots = solve_circle_equation(ctx, a)
        t = ctx.tr_sub(ctx.mul(a, ctx.conjugate(a)))
        assert len(roots) == (2 if t == 1 else 0)
        for z in roots:
            assert z in circle
            assert ctx.mul(a, ctx.sq(z)) ^ z ^ ctx.conjugate(a) == 0
        if roots:
            z1, z2 = roots
            if ctx.in_subfield(a):
                assert ctx.conjugate(z1) == z2  # conjugate pair
            else:
                # twisted pair: z2 = conj(z1) * conj(a)/a (in one order)
                fac = ctx.mul(ctx.conjugate(a), ctx.inv(a))
                assert (z2 == ctx.mul(ctx.conjugate(z1), fac)
                        or z1 == ctx.mul(ctx.conjugate(z2), fac))


def test_circle_equation_subfield_matches_lemma():
    # for subfield a the equation is z + 1/z = 1/a: roots iff tr_sub(a) = 1
    for m in (2, 3, 4):
        ctx = default_ctx(m)
        for a in ctx.subgroup("subfield_units"):
            roots = solve_circle_equation(ctx, a)
            assert bool(roots) == (ctx.tr_sub(a) == 1)
            for z in roots:
                assert ctx.mul(a, ctx.sq(z)) ^ z ^ a == 0  # a z^2 + z + a


def test_circle_2to1_onto_h1():
    for m in (2, 3, 4, 5):
        ctx = default_ctx(m)
        hits = {}
        for u in unit_circle(ctx):
            if u == 1:
                continue
            hits.setdefault(ctx.tr_rel(u), []).append(u)
        h1 = {x for x in ctx.subgroup("subfield_units") if ctx.tr_sub(ctx.inv(x)) == 1}
        assert set(hits) == h1
        for v, us in hits.items():
            assert len(us) == 2
            assert ctx.conjugate(us[0]) == us[1]


@pytest.mark.parametrize("m", range(2, 9))
def test_array_circle_roots_match_the_scalar_solver(m):
    # the lemma31 suite's roots for subfield a: v from the Artin-Schreier
    # columns at a^2, and the two circle roots v/a, (v+1)/a iff tr_rel(v) = 1
    ctx = default_ctx(m)
    a = ctx.cyclic((1 << m) - 1)
    v = kernels.linear_map(kernels.linear_map(a, ctx.frobenius(1)), ctx.artin_schreier_cols())
    for ak, vk in zip(a.tolist(), v.tolist()):
        roots = solve_circle_equation(ctx, ak)
        assert bool(roots) == (ctx.tr_rel(vk) == 1), ak
        if roots:
            inv = ctx.inv(ak)
            assert roots == tuple(sorted((ctx.mul(vk, inv), ctx.mul(vk ^ 1, inv)))), ak


def test_circle_equation_rejects_zero():
    with pytest.raises(DivisionByZero):
        solve_circle_equation(default_ctx(3), 0)


def test_odd_m_unit_equation_has_roots():
    for m in (3, 5):
        ctx = default_ctx(m)
        roots = solve_circle_equation(ctx, 1)  # 1 + z + 1/z = 0
        assert roots
        z1, z2 = roots
        assert ctx.conjugate(z1) == z2
        assert ctx.tr_rel(z1) == 1  # z + 1/z = 1


# ----------------------------------------------------------- case formulas -


def _brute_at_points(ctx, table):
    # spectrum value at every field point a, through the scalar dual masks
    values = walsh.wht_fast(table)
    return values[[ctx.dual_mask(a) for a in range(ctx.q)]]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_predicted_wf_matches_brute_force(m):
    ctx = default_ctx(m)
    for mu in ctx.subgroup("subfield_units"):
        values, labels = C.predicted_spectrum(ctx, mu, "f")
        assert values.shape == labels.shape == (ctx.q,)
        assert np.array_equal(values, _brute_at_points(ctx, C.build_f(ctx, mu))), mu
        per_case, mismatches = C.case_report(ctx, mu, "f")
        assert mismatches == (), (mu, per_case)
        assert all(good == total for good, total in per_case.values())
        assert sum(total for _, total in per_case.values()) == ctx.q


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_predicted_wg_matches_brute_force(m):
    ctx = default_ctx(m)
    for mu in ctx.subgroup("subfield_units"):
        values, _ = C.predicted_spectrum(ctx, mu, "g")
        assert np.array_equal(values, _brute_at_points(ctx, C.build_g(ctx, mu))), mu
        per_case, mismatches = C.case_report(ctx, mu, "g")
        assert mismatches == (), (mu, per_case)


def test_predicted_wf_first_case_value():
    # tr(a) = m mod 2 and tr_sub(a*conj(a)) = 0 forces -2^m
    m = 4
    ctx = default_ctx(m)
    values, labels = C.predicted_spectrum(ctx, 1, "f")
    found = 0
    for a in range(1, ctx.q):
        if ctx.tr_abs(a) == m % 2 and ctx.tr_sub(ctx.mul(a, ctx.conjugate(a))) == 0:
            assert values[a] == -(1 << m) and labels[a] == "match_tr0"
            found += 1
    assert found


def test_predicted_wf_a0():
    values, labels = C.predicted_spectrum(default_ctx(4), 1, "f")
    assert (values[0], labels[0]) == (-16, "a0_even")
    ctx5 = default_ctx(5)
    for mu in ctx5.subgroup("subfield_units")[:4]:
        want = -(1 << 5) * (1 - 2 * ctx5.tr_sub(mu))
        values, labels = C.predicted_spectrum(ctx5, mu, "f")
        assert (values[0], labels[0]) == (want, "a0_odd")


def test_predicted_wg_boundaries_with_k_minus1():
    # odd m with k = -1: W(0) = W(1) = 0
    for m in (3, 5):
        ctx = default_ctx(m)
        for mu in C.mus_with_k(ctx, -1):
            values, _ = C.predicted_spectrum(ctx, mu, "g")
            assert values[0] == 0
            assert values[1] == 0
    # even m with k = -1: W(0) = -2^m, W(1) = -2^m
    ctx4 = default_ctx(4)
    for mu in C.mus_with_k(ctx4, -1):
        values, _ = C.predicted_spectrum(ctx4, mu, "g")
        assert values[0] == -(1 << 4)
        assert values[1] == -(1 << 4)


def test_wg_c_term_is_small():
    ctx = default_ctx(4)
    mu = C.mus_with_k(ctx, -1)[0]
    values, labels = C.predicted_spectrum(ctx, mu, "g")
    for a in range(2, ctx.q):
        val, label = values[a], labels[a]
        if label == "nomatch":
            assert val in (0, 1 << 3 << 1, -(1 << 4)) or val % (1 << 3) == 0
            assert abs(val) <= 1 << 4  # |C| <= 2


def test_predicted_spectrum_rejects_bad_input():
    ctx = default_ctx(3)
    with pytest.raises(ValueError):
        C.predicted_spectrum(ctx, 1, "h")
    with pytest.raises(FieldError):
        C.predicted_spectrum(ctx, 0, "f")


# -------------------------------------------------------- count relations --


def test_count_relations_f_reference_tables():
    for m, table in C.F_REFERENCE.items():
        relations_ok, n0_ok, detail, n0 = C.count_gate("thm32", table, m)
        assert relations_ok and n0_ok and n0 == table[0] > 0
        assert detail == "{'N0': True, 'N1': True, 'N-1': True}"


def test_count_relations_g_reference_tables():
    for m, table in C.G_REFERENCE.items():
        relations_ok, n0_ok, _, n0 = C.count_gate("thm34", table, m)
        assert relations_ok and n0_ok and n0 == table[0] > 0


def test_count_relations_reject_unexpected_value():
    # a value off the multiples of 2^m, or a multiple outside the set, fails both gates
    dist = {-16: 92, 0: 80, 16: 64, 32: 16, 47: 4}
    assert C.count_gate("thm32", dist, 4) == (
        False, False, "spectrum value 47 outside the theorem set", 80)
    dist2 = {-48: 4, 0: 252}
    assert C.count_gate("thm34", dist2, 4) == (
        False, False, "spectrum value -48 outside the theorem set", 252)


def test_count_relations_negative_control():
    # Parseval-violating frequencies must fail the linear system, and a
    # missing zero fails N0 > 0 from m = 3 only
    bad = {0: 80, -16: 92, 16: 64, 32: 20, 48: 0}
    relations_ok, n0_ok, detail, _ = C.count_gate("thm32", bad, 4)
    assert not relations_ok and n0_ok and "False" in detail
    bent = {-4: 6, 4: 10}
    assert C.count_gate("thm34", bent, 2)[1]
    assert not C.count_gate("thm34", {-8: 28, 8: 36}, 3)[1]


# -------------------------------------------------------- walsh summary --


@pytest.mark.parametrize("m", [3, 5])
def test_walsh_summary_rejects_bad_input(m):
    # both routes: f by the butterfly (m = 3) or the polar lines (m = 5), and g's pass
    ctx = default_ctx(m)
    with pytest.raises(ValueError):
        C.walsh_summary(ctx, "h", 1, True)
    for which, all_mu in itertools.product(("f", "g"), (True, False)):
        for mu in (0, ctx.q - 1):  # zero, and an element outside the subfield
            with pytest.raises(FieldError):
                C.walsh_summary(ctx, which, mu, all_mu)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_spectrum_summary_is_the_butterfly_distribution_and_weight(m):
    ctx = default_ctx(m)
    for mu in ctx.subgroup("subfield_units"):
        for which, build in (("f", C.build_f), ("g", C.build_g)):
            table = build(ctx, mu)
            dist, w0 = C.walsh_summary(ctx, which, mu, True)
            assert dist == walsh.distribution(walsh.wht_fast(table)), (which, mu)
            assert (ctx.q - w0) // 2 == weight(table), (which, mu)


def test_no_spectrum_path_builds_a_power_table(monkeypatch):
    # the term tables come from the chart: a 2^n-entry int64 power table per
    # exponent is memory no builder needs
    def refuse(self, e):
        raise AssertionError(f"power_table({e}) was built")

    monkeypatch.setattr(FieldCtx, "power_table", refuse)
    for m in range(2, 7):
        ctx = create_ctx(m)  # a fresh field, so no memo was filled before
        for mu in ctx.subgroup("subfield_units"):
            C.build_f(ctx, mu)
            C.build_g(ctx, mu)
            for which in ("f", "g"):
                C.predicted_spectrum(ctx, mu, which)
                C.walsh_summary(ctx, which, mu, True)


# ------------------------------------------------------------ line count --


def _assert_line_count_is_the_butterfly(ctx, mu):
    spectrum = walsh.wht_fast(C.build_f(ctx, mu))
    dist, w0 = C.f_line_distribution(ctx, mu)
    assert list(dist.items()) == list(walsh.distribution(spectrum).items()), mu
    assert w0 == spectrum[0], mu


@pytest.mark.parametrize("m", range(1, 9))
def test_f_line_distribution_is_the_butterfly_distribution(m):
    ctx = default_ctx(m)
    for mu in ctx.subgroup("subfield_units"):
        _assert_line_count_is_the_butterfly(ctx, mu)


@pytest.mark.parametrize("m", [9, 10])
def test_f_line_distribution_is_the_butterfly_distribution_for_16_mu(m):
    ctx = default_ctx(m)
    units = ctx.subgroup("subfield_units")
    for mu in units[::len(units) // 16][:16]:
        _assert_line_count_is_the_butterfly(ctx, mu)


def test_f_line_count_builds_no_table(monkeypatch):
    def refuse(self):
        raise AssertionError("the exp/log tables were built")

    monkeypatch.setattr(FieldCtx, "tables", refuse)
    for m in range(1, 8):
        ctx = create_ctx(m)  # a fresh field, so no memo was filled before
        for mu in ctx.subgroup("subfield_units")[:3]:
            C.f_line_distribution(ctx, mu)


def _move_log(ctx, which, new_log, both=True):
    """Perturb one memoised log of _circle_lines (m = 5, logs mod 31) at a k
    with a log, and at -k too unless both is False."""
    logs = C._circle_lines(ctx)[which]
    k = int(np.flatnonzero((logs >= 0) & (logs < 31))[3])
    for i in (k, -k % logs.size) if both else (k,):
        logs[i] = new_log(logs[i])


@pytest.mark.parametrize("new_log", [lambda v: (v + 1) % 31, lambda v: -31],
                         ids=["moved", "zeroed"])
def test_f_line_count_checks_catch_a_bad_log(new_log):
    # one perturbed memoised log r_k, moved to another log or to the log that
    # marks r = 0, at k and -k alike, so the symmetry check passes it.  The
    # coset sum and Parseval guard the lines, not the offsets: any nonzero
    # c_k still gives a function linear on every line, whose spectrum passes
    # both, so a bad log(1 + r_k) at k and -k is left to the comparison with
    # the butterfly above; at k alone the symmetry check catches it (below)
    ctx = create_ctx(5)  # a fresh field: the memo is this test's alone
    C.f_line_distribution(ctx, 1)
    _move_log(ctx, 1, new_log)
    with pytest.raises(ArithmeticError, match="coset sum|Parseval"):
        for mu in ctx.subgroup("subfield_units"):
            C.f_line_distribution(ctx, mu)


@pytest.mark.parametrize("which", [1, 2], ids=["log_r", "log_r1"])
def test_line_reader_checks_the_symmetry_of_the_logs(which):
    # log r_k or log(1 + r_k) moved at k only: line -j no longer has line j's
    # counts, and both consumers refuse before they read a line
    ctx = create_ctx(5)  # a fresh field: the memo is this test's alone
    _move_log(ctx, which, lambda v: (v + 1) % 31, both=False)
    with pytest.raises(ArithmeticError, match="symmetric"):
        C.f_distributions(ctx)
    with pytest.raises(ArithmeticError, match="symmetric"):
        for mu in ctx.subgroup("subfield_units"):
            C.f_line_distribution(ctx, mu)


def test_line_reader_checks_the_symmetry_of_the_weights():
    # one w_k moved at k only, or one row entry c_k
    ctx = default_ctx(5)
    circle, units = 33, 31
    shifted = np.full((1, circle), units)
    weights = np.arange(circle) ** 2 % circle + 1  # w_k = w_-k
    list(C._line_bins(ctx, shifted, (weights,)))
    weights[4] += 1
    with pytest.raises(ArithmeticError, match="a weight is not symmetric"):
        next(C._line_bins(ctx, shifted, (weights,)))
    shifted[0, 4] += 1
    with pytest.raises(ArithmeticError, match="a row of c is not symmetric"):
        next(C._line_bins(ctx, shifted))


@pytest.mark.parametrize("m", [1, 2, 5, 8, 12])
def test_line_reader_reads_half_of_the_lines(m):
    # lines 0..2^(m-1) per row, line 0 once and the others twice: 2^m + 1 in all
    ctx = default_ctx(m)
    units, circle = (1 << m) - 1, (1 << m) + 1
    for rows in (1, 2):
        shifted = np.full((rows, circle), units)
        read = weighted = 0
        for mult, count in C._line_bins(ctx, shifted):
            assert count.shape[0] == rows and count.shape[1] % units == 0
            read += count.shape[1] // units
            weighted += mult * count.shape[1] // units
        assert (read, weighted) == ((1 << (m - 1)) + 1, circle)


def _assert_half_reader_is_the_full_circle(m, poly, mus, monkeypatch):
    # the N histograms through f_line_distribution, and every mu of the all-mu pass
    half = create_ctx(m, poly)
    want = C.f_distributions(half)
    lines = {mu: C.f_line_distribution(half, mu) for mu in mus}
    with monkeypatch.context() as patch:
        read_every_line(patch)
        full = create_ctx(m, poly)  # a fresh field, so the pass runs again
        assert C.f_distributions(full) == want
        for mu in mus:
            assert C.f_line_distribution(full, mu) == lines[mu], mu


@pytest.mark.parametrize("m", range(1, 9))
def test_half_reader_is_the_full_circle(m, monkeypatch):
    ctx = default_ctx(m)
    _assert_half_reader_is_the_full_circle(m, None, ctx.subgroup("subfield_units"), monkeypatch)


@pytest.mark.parametrize("m", [9, 10])
def test_half_reader_is_the_full_circle_for_16_mu(m, monkeypatch):
    units = default_ctx(m).subgroup("subfield_units")
    _assert_half_reader_is_the_full_circle(m, None, units[::len(units) // 16][:16], monkeypatch)


@pytest.mark.parametrize("m, poly", OTHER_REPRESENTATIONS)
def test_half_reader_is_the_full_circle_on_other_representations(m, poly, monkeypatch):
    mus = create_ctx(m, poly).subgroup("subfield_units")
    _assert_half_reader_is_the_full_circle(m, poly, mus, monkeypatch)


# ------------------------------------------------------------ all-mu pass --


def _assert_pass_is_the_line_count(ctx, mus):
    every = C.f_distributions(ctx)
    assert list(every) == ctx.subgroup("subfield_units")
    for mu in mus:
        dist, w0 = every[mu]
        want, want_w0 = C.f_line_distribution(ctx, mu)
        assert list(dist.items()) == list(want.items()), mu  # key order included
        assert w0 == want_w0, mu


@pytest.mark.parametrize("m", range(1, 10))
def test_f_distributions_are_the_line_counts(m):
    ctx = default_ctx(m)
    _assert_pass_is_the_line_count(ctx, ctx.subgroup("subfield_units"))


@pytest.mark.parametrize("m", [10, 11])
def test_f_distributions_are_the_line_counts_for_16_mu(m):
    ctx = default_ctx(m)
    units = ctx.subgroup("subfield_units")
    _assert_pass_is_the_line_count(ctx, units[::len(units) // 16][:16])


@pytest.mark.parametrize("m, poly", OTHER_REPRESENTATIONS)
def test_f_distributions_on_other_representations(m, poly):
    # the pass reads mu and w_k through the embedding of the default GF(2^m)
    ctx = create_ctx(m, poly)
    _assert_pass_is_the_line_count(ctx, ctx.subgroup("subfield_units"))


def test_f_distributions_build_no_table(monkeypatch):
    def refuse(self):
        raise AssertionError("the exp/log tables were built")

    monkeypatch.setattr(FieldCtx, "tables", refuse)
    for m in range(1, 9):
        C.f_distributions(create_ctx(m))  # a fresh field, so no memo was filled before


@pytest.mark.parametrize("which, new_log", [(1, lambda v: (v + 1) % 31), (1, lambda v: -31),
                                            (2, lambda v: (v + 1) % 31)],
                         ids=["moved", "zeroed", "moved_shift"])
def test_f_distributions_check_the_root_sets(which, new_log):
    # one perturbed memoised log, at k and -k alike: log r_k moved to another
    # log or to the log that marks r = 0, or log(1 + r_k) moved.  Either way
    # some a on every line loses a root or gains a third one
    ctx = create_ctx(5)  # a fresh field: the memo is this test's alone
    _move_log(ctx, which, new_log)
    with pytest.raises(ArithmeticError, match="root set"):
        C.f_distributions(ctx)


@pytest.mark.parametrize("delta, match", [(1, "divisible"), (16, "coset sum|Parseval")])
def test_f_distributions_check_the_transform(delta, match, monkeypatch):
    # one character weight off by delta: a sum that is not 2^4 times a count,
    # or counts that are whole but wrong
    weights = C._root_type_weights().copy()
    weights[7 + 3 * 1 + 2, 2] += delta  # type (2, 2), one root of R1 and both of R2
    monkeypatch.setattr(C, "_root_type_weights", lambda: weights)
    with pytest.raises(ArithmeticError, match=match):
        C.f_distributions(create_ctx(5))


def test_root_type_weights_expand_the_indicators():
    # 16 [N = v] = sum over S of weight(S) (-1)^(S . t), at every bit vector t
    weights = C._root_type_weights()
    rows = {(0, 0): lambda s1, s2: 0, (2, 0): lambda s1, s2: 1 + s1,
            (0, 2): lambda s1, s2: 4 + s2, (2, 2): lambda s1, s2: 7 + 3 * s1 + s2}
    for (d1, d2), row in rows.items():
        for bits in np.ndindex(*(2,) * (d1 + d2)):
            n = d1 - sum(bits[:d1]) + sum(bits[d1:])
            total = np.zeros(5, dtype=np.int64)
            for subset in np.ndindex(*(2,) * (d1 + d2)):
                sign = (-1) ** sum(b & s for b, s in zip(bits, subset))
                total += sign * weights[row(sum(subset[:d1]), sum(subset[d1:]))]
            assert total.tolist() == [16 * (v == n) for v in range(5)], (d1, d2, bits)


def test_build_f_gathers_with_no_index_copy():
    # a gather through the uint16 line index allocates its uint8 result
    # only; np.take would first copy the index to intp, 8 bytes a point
    ctx = create_ctx(8)
    C.build_f(ctx, 1)  # the per-field term data, outside the trace
    mu = ctx.subgroup("subfield_units")[1]
    tracemalloc.start()
    try:
        C.build_f(ctx, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * ctx.q, peak


# ------------------------------------------------------------ chart bins --


def test_chart_bins_is_one_bincount_of_every_key(monkeypatch):
    # batches smaller than the bins are held and binned together; within the
    # n cap every chart batch holds at least as many keys as bins
    rng = np.random.default_rng(5)
    batches = [rng.integers(0, 50, size=(2, k)) for k in (3, 0, 17, 40, 1, 9)]
    calls = []

    def bincount(x, *args, _fn=np.bincount, **kwargs):
        calls.append(x.size)
        return _fn(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", bincount)
    got = chart.chart_bins(iter(batches), 50)
    want = np.bincount(np.concatenate([b.ravel() for b in batches]), minlength=50)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert calls[:-1] == [120, 20]  # one flush once 50 keys are held, one for the rest
    with pytest.raises(ArithmeticError, match="past x"):
        chart.chart_bins(iter([np.array([3, 50])]), 50, "past x")


# --------------------------------------------------------------- g pass --


def _g_by_butterfly(ctx, mu):
    spectrum = walsh.wht_fast(C.build_g(ctx, mu))
    return walsh.distribution(spectrum), int(spectrum[0])


def _assert_g_pass_is_the_butterfly(ctx, mus):
    # the butterfly of g's truth table is the pass's oracle: the distribution
    # in key order, and W(0)
    every = chart.g_distributions(ctx)
    assert list(every) == ctx.subgroup("subfield_units")
    for mu in mus:
        dist, w0 = every[mu]
        want, want_w0 = _g_by_butterfly(ctx, mu)
        assert list(dist.items()) == list(want.items()), mu
        assert w0 == want_w0, mu


@pytest.mark.parametrize("m", range(1, 9))
def test_g_distributions_are_the_butterfly(m):
    ctx = default_ctx(m)
    _assert_g_pass_is_the_butterfly(ctx, ctx.subgroup("subfield_units"))


@pytest.mark.parametrize("m", [9, 10])
def test_g_distributions_are_the_butterfly_for_16_mu(m):
    ctx = default_ctx(m)
    units = ctx.subgroup("subfield_units")
    _assert_g_pass_is_the_butterfly(ctx, units[::len(units) // 16][:16])


@pytest.mark.parametrize("m, poly", OTHER_REPRESENTATIONS)
def test_g_distributions_on_other_representations(m, poly):
    # the pass reads mu, nu and the chart through the embedding of the default GF(2^m)
    ctx = create_ctx(m, poly)
    _assert_g_pass_is_the_butterfly(ctx, ctx.subgroup("subfield_units"))


def test_g_distributions_build_no_table_of_the_big_field(monkeypatch):
    # the pass runs on the chart in GF(2^m)'s own tables; GF(2^2m)'s exp/log
    # tables would have 2^2m entries
    tables = FieldCtx.tables

    def refuse_big(self):
        if self.n == 2 * m:
            raise AssertionError(f"the exp/log tables of GF(2^{self.n}) were built")
        return tables(self)

    monkeypatch.setattr(FieldCtx, "tables", refuse_big)
    for m in range(1, 9):
        ctx = create_ctx(m)  # a fresh field, so no memo was filled before
        assert len(chart.g_distributions(ctx)) == (1 << m) - 1


def _chart_points(ctx):
    # (a, v, tr(a), tr_sub N(a), l(a), l(a + 1)) for every entry of chart.rows,
    # with a rebuilt from the batch layout: row 0 is a = u for u = 2 .. q - 1,
    # then rows v = 1 .. q - 1 in order, a column per s = u/v, a = v (s + lam)
    image, coords = subfield_coords(ctx)
    lam, q = C.find_lambda(ctx), 1 << ctx.m
    next_v = 1
    for i, batch in enumerate(chart.rows(ctx)):
        # the class and l(a + 1) have an entry per point, the rest broadcast
        assert batch[2].shape == batch[4].shape == np.broadcast_shapes(*(b.shape for b in batch))
        got = np.broadcast_arrays(*batch)
        if i == 0:
            points = [int(image[u]) for u in range(2, q)]
        else:
            height = got[0].shape[0]
            points = [ctx.mul(int(image[v]), int(image[s]) ^ lam)
                      for v in range(next_v, next_v + height) for s in range(q)]
            next_v += height
        assert all(g.size == len(points) for g in got), i
        yield from zip(points, *(g.ravel().tolist() for g in got))


@pytest.mark.parametrize("m, poly", [(m, None) for m in range(1, 7)] + OTHER_REPRESENTATIONS)
def test_chart_rows_read_every_a_outside_gf2_once(m, poly):
    # each entry against GF(2^2m)'s own arithmetic: v = tr_rel(a), tr(a),
    # tr_sub(N(a)) and l(x) = tr_rel(x^(2^m - 1)) at a and a + 1
    ctx = create_ctx(m, poly)
    coords = subfield_coords(ctx)[1]

    def ell(x):
        return int(coords(ctx.tr_rel(ctx.pow(x, (1 << m) - 1))))

    seen = []
    for a, v, tr, norm_class, ell_a, ell_a1 in _chart_points(ctx):
        seen.append(a)
        assert v == coords(ctx.tr_rel(a)), a
        assert tr == ctx.tr_abs(a), a
        assert norm_class == ctx.tr_sub(ctx.mul(a, ctx.conjugate(a))), a
        assert (ell_a, ell_a1) == (ell(a), ell(a ^ 1)), a
    assert sorted(seen) == list(range(2, ctx.q))


def _move_one_ell(ctx, rows):
    # one a of the first batch of rows v != 0 gets l(a) + 1 and keeps its class
    for i, (v, tr, norm_class, ell, ell1) in enumerate(rows):
        if i == 1:
            ell = np.broadcast_to(ell, ell1.shape).copy()
            ell.flat[ell.size // 3] ^= 1
        yield v, tr, norm_class, ell, ell1


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_a_moved_line_element_fails_the_gates_or_the_oracle(m, monkeypatch):
    reader = chart.rows
    monkeypatch.setattr(chart, "rows", lambda c: _move_one_ell(c, reader(c)))
    ctx = create_ctx(m)
    try:
        got = chart.g_distributions(ctx)
    except ArithmeticError:
        return
    assert any(got[mu] != _g_by_butterfly(ctx, mu) for mu in ctx.subgroup("subfield_units"))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_a_plus_1_in_the_wrong_norm_class_fails_the_gates(m, monkeypatch):
    # mutation: l(a + 1) is read over a's class where a + 1 has a's class,
    # and over a's own class where it has the other (the parity test inverted)
    monkeypatch.setattr(chart, "_next_norm_class",
                        lambda m, tr, norm_class: norm_class ^ (1 - ((tr ^ m) & 1)))
    with pytest.raises(ArithmeticError, match="g pass"):
        chart.g_distributions(create_ctx(m))


def _bin_under_the_class_of_a_plus_1(ctx, rows):
    for v, tr, norm_class, ell, ell1 in rows:
        yield v, tr, chart._next_norm_class(ctx.m, tr, norm_class), ell, ell1


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_the_classes_of_a_and_a_plus_1_are_interchangeable(m, monkeypatch):
    # binning every a under the class of a + 1 is an equivalent mutant, not a
    # fault the gates could catch: a -> a + 1 maps each class c onto the
    # class of its a + 1, b(a + 1) = b(a), and l(a) + l(a + 1) is symmetric
    reader = chart.rows
    monkeypatch.setattr(chart, "rows", lambda c: _bin_under_the_class_of_a_plus_1(c, reader(c)))
    ctx = create_ctx(m)
    got = chart.g_distributions(ctx)
    assert all(got[mu] == _g_by_butterfly(ctx, mu) for mu in ctx.subgroup("subfield_units"))


def test_g_pass_checks_w0_against_the_kloosterman_form(monkeypatch):
    # a k_m(mu) off by 4 (still 3 mod 4) moves the closed forms of W(0) and
    # W(1), which the pass's own sums must then miss
    k_map = kl.subfield_k_map

    def shifted(ctx, _fn=k_map):
        return {mu: k + 4 for mu, k in _fn(ctx).items()}

    monkeypatch.setattr(kl, "subfield_k_map", shifted)
    with pytest.raises(ArithmeticError, match="k_m"):
        chart.g_distributions(create_ctx(4))


# ----------------------------------------------------------- verification --


def _gates_pass(checks):
    return all(c["pass"] for c in checks if not c["info"])


def test_verify_thm32_m4_all_mu():
    checks = C.verify_theorem("thm32", 4)  # m <= 5 adds the case-formula check
    assert _gates_pass(checks)
    mus = [c["mu"] for c in checks]
    assert len(set(mus)) == 15
    assert mus == sorted(mus, key=lambda mu: int(mu, 16))
    for mu in set(mus):
        names = [c["name"] for c in checks if c["mu"] == mu]
        assert "value_set" in names and "nonlinearity" in names
        case = next(c for c in checks if c["mu"] == mu and c["name"] == "case_formula")
        assert case["info"] and case["pass"]  # info check, but it should hold


def test_verify_thm34_m3_and_m4():
    rep3 = C.verify_theorem("thm34", 3)
    assert _gates_pass(rep3) and len({c["mu"] for c in rep3}) == 3
    rep4 = C.verify_theorem("thm34", 4)
    assert _gates_pass(rep4)  # balancedness flips to 'not balanced' for even m


def test_report_json_shape():
    checks = C.verify_theorem("thm34", 3)
    for c in checks:
        assert list(c) == ["suite", "m", "mu", "name", "pass", "info", "detail"]
        assert c["suite"] == "thm34" and c["m"] == 3
        assert c["mu"].startswith("0x")
        assert c["info"] == (c["name"] == "case_formula")  # only the m <= 5 diagnostic


# -------------------------------------------------------------- spectra ----


def test_f_reference_distributions():
    for m, want in C.F_REFERENCE.items():
        ctx = default_ctx(m)
        dist = walsh.distribution(walsh.wht_fast(C.build_f(ctx, 1)))
        assert dist == want


def test_g_reference_distributions_exist():
    for m, want in C.G_REFERENCE.items():
        ctx = default_ctx(m)
        hits = [mu for mu in C.mus_with_k(ctx, -1)
                if walsh.distribution(walsh.wht_fast(C.build_g(ctx, mu))) == want]
        assert hits, m


def test_degree_m_plus_1():
    for m in (3, 4):
        ctx = default_ctx(m)
        for mu in ctx.subgroup("subfield_units"):
            assert bf.algebraic_degree(C.build_f(ctx, mu)) == m + 1
            assert bf.algebraic_degree(C.build_g(ctx, mu)) == m + 1


def _assert_degree_is_the_anf_degree(ctx, mus):
    for mu in mus:
        for which, build in (("f", C.build_f), ("g", C.build_g)):
            assert C.degree(ctx, which, mu) == bf.algebraic_degree(build(ctx, mu)), (which, mu)


@pytest.mark.parametrize("m", range(1, 9))
def test_degree_is_the_anf_degree(m):
    ctx = default_ctx(m)
    _assert_degree_is_the_anf_degree(ctx, ctx.subgroup("subfield_units"))


@pytest.mark.parametrize("m, poly", OTHER_REPRESENTATIONS)
def test_degree_is_the_anf_degree_on_other_representations(m, poly):
    ctx = create_ctx(m, poly)
    _assert_degree_is_the_anf_degree(ctx, ctx.subgroup("subfield_units"))


@pytest.mark.parametrize("m", [9, 10])
def test_degree_is_the_anf_degree_for_4_mu(m):
    ctx = default_ctx(m)
    units = ctx.subgroup("subfield_units")
    _assert_degree_is_the_anf_degree(ctx, units[::len(units) // 4][:4])


def test_degree_rejects_bad_input():
    ctx = default_ctx(3)
    with pytest.raises(ValueError):
        C.degree(ctx, "h", 1)
    with pytest.raises(FieldError):
        C.degree(ctx, "f", 0)


def test_balancedness():
    # g balanced exactly for odd m (under k = -1); f is never balanced there
    ctx5 = default_ctx(5)
    for mu in C.mus_with_k(ctx5, -1):
        assert is_balanced(C.build_g(ctx5, mu))
    ctx4 = default_ctx(4)
    for mu in C.mus_with_k(ctx4, -1):
        assert not is_balanced(C.build_g(ctx4, mu))


def test_lambda_and_poly_invariance_of_g():
    ctx1 = default_ctx(4)
    ctx2 = create_ctx(4, poly_override=0x1F9)  # the largest irreducible of degree 8
    assert ctx2.reduction_poly != ctx1.reduction_poly
    mus1 = C.mus_with_k(ctx1, -1)
    mus2 = C.mus_with_k(ctx2, -1)
    d1 = {tuple(walsh.distribution(walsh.wht_fast(C.build_g(ctx1, mu))).items())
          for mu in mus1}
    d2 = {tuple(walsh.distribution(walsh.wht_fast(C.build_g(ctx2, mu))).items())
          for mu in mus2}
    assert d1 == d2
