"""The f and g constructions: builders, case formulas, counting relations."""

import tracemalloc

import numpy as np
import pytest

from walshlab import boolfun as bf
from walshlab import constructions as C
from walshlab import walsh
from walshlab.gf2n import (
    DivisionByZero,
    FieldCtx,
    FieldError,
    NotInSubfield,
    create_ctx,
    default_ctx,
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

        f_def = bf.build(ctx, lambda x: term(x) ^ (ctx.tr_abs(x) & mu_term(x)))
        g_def = bf.build(ctx, lambda x: mu_term(x) if ctx.tr_abs(x) else term(x))
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

            oracle = bf.build(ctx, scalar)
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
    with pytest.raises(C.ZeroMu):
        C.build_f(ctx, 0)
    nonsub = next(x for x in range(ctx.q) if not ctx.in_subfield(x))
    with pytest.raises(NotInSubfield):
        C.build_g(ctx, nonsub)
    # ZeroMu is a field error, so the CLI reports it as a usage error
    assert issubclass(C.ZeroMu, FieldError)


def test_resolve_mu():
    ctx = default_ctx(3)
    sub = ctx.subgroup("subfield_units")
    assert C.resolve_mu(ctx, "idx:0") == 1
    assert C.resolve_mu(ctx, "idx:1") in sub
    assert C.resolve_mu(ctx, hex(sub[2])) == sub[2]
    with pytest.raises(NotInSubfield):
        nonsub = next(x for x in range(ctx.q) if not ctx.in_subfield(x))
        C.resolve_mu(ctx, hex(nonsub))


# ------------------------------------------------------------ circle roots -


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_circle_equation_exhaustive(m):
    ctx = default_ctx(m)
    circle = set(ctx.subgroup("unit_circle"))
    for a in range(1, ctx.q):
        roots = C.solve_circle_equation(ctx, a)
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
            roots = C.solve_circle_equation(ctx, a)
            assert bool(roots) == (ctx.tr_sub(a) == 1)
            for z in roots:
                assert ctx.mul(a, ctx.sq(z)) ^ z ^ a == 0  # a z^2 + z + a


def test_circle_2to1_onto_h1():
    for m in (2, 3, 4, 5):
        ctx = default_ctx(m)
        hits = {}
        for u in ctx.subgroup("unit_circle"):
            if u == 1:
                continue
            hits.setdefault(ctx.tr_rel(u), []).append(u)
        h1 = {x for x in ctx.subgroup("subfield_units") if ctx.tr_sub(ctx.inv(x)) == 1}
        assert set(hits) == h1
        for v, us in hits.items():
            assert len(us) == 2
            assert ctx.conjugate(us[0]) == us[1]


def test_circle_equation_rejects_zero():
    with pytest.raises(DivisionByZero):
        C.solve_circle_equation(default_ctx(3), 0)


def test_odd_m_unit_equation_has_roots():
    for m in (3, 5):
        ctx = default_ctx(m)
        roots = C.solve_circle_equation(ctx, 1)  # 1 + z + 1/z = 0
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
        counts, rel = C.count_relations_f(table, m)
        assert all(rel.values())
        assert counts[0] > 0


def test_count_relations_g_reference_tables():
    for m, table in C.G_REFERENCE.items():
        counts, rel = C.count_relations_g(table, m)
        assert all(rel.values())
        assert counts[0] > 0


def test_count_relations_reject_unexpected_value():
    dist = {-16: 92, 0: 80, 16: 64, 32: 16, 47: 4}
    with pytest.raises(C.UnexpectedValue):
        C.count_relations_f(dist, 4)
    dist2 = {-48: 4, 0: 252}
    with pytest.raises(C.UnexpectedValue):
        C.count_relations_g(dist2, 4)


def test_count_relations_negative_control():
    # Parseval-violating frequencies must fail the linear system
    bad = {0: 80, -16: 92, 16: 64, 32: 20, 48: 0}
    _, rel = C.count_relations_f(bad, 4)
    assert not all(rel.values())


# ------------------------------------------------------ spectrum summary --


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_spectrum_summary_is_the_butterfly_distribution_and_weight(m):
    ctx = default_ctx(m)
    for mu in ctx.subgroup("subfield_units"):
        for which, build in (("f", C.build_f), ("g", C.build_g)):
            table = build(ctx, mu)
            want = walsh.distribution(walsh.wht_fast(table)), bf.weight(table)
            assert C.spectrum_summary(ctx, which, mu) == want, (which, mu)


def test_no_spectrum_path_builds_a_power_table(monkeypatch):
    # the term tables come from FieldCtx.power_classes: a 2^n-entry int64
    # power table per exponent is memory no builder needs
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
                C.spectrum_summary(ctx, which, mu)


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


@pytest.mark.parametrize("new_log", [lambda v: (v + 1) % 31, lambda v: -31],
                         ids=["moved", "zeroed"])
def test_f_line_count_checks_catch_a_bad_log(new_log):
    # one perturbed memoised log r_k (m = 5, logs mod 31): moved to another
    # log, or to the log that marks r = 0.  The checks guard the lines, not
    # the offsets: any nonzero c_k still gives a function linear on every
    # line, whose spectrum passes both, so a bad log(1 + r_k) is left to the
    # comparison with the butterfly above
    ctx = create_ctx(5)  # a fresh field: the memo is this test's alone
    C.f_line_distribution(ctx, 1)
    logs = C._circle_lines(ctx)[1]
    k = int(np.flatnonzero((logs >= 0) & (logs < 31))[3])
    logs[k] = new_log(logs[k])
    with pytest.raises(ArithmeticError, match="coset sum|Parseval"):
        for mu in ctx.subgroup("subfield_units"):
            C.f_line_distribution(ctx, mu)


def test_build_f_gathers_with_no_index_copy():
    # a gather through the uint16 circle index allocates its uint8 result
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


def test_balancedness():
    # g balanced exactly for odd m (under k = -1); f is never balanced there
    ctx5 = default_ctx(5)
    for mu in C.mus_with_k(ctx5, -1):
        assert bf.is_balanced(C.build_g(ctx5, mu))
    ctx4 = default_ctx(4)
    for mu in C.mus_with_k(ctx4, -1):
        assert not bf.is_balanced(C.build_g(ctx4, mu))


def test_lambda_and_poly_invariance_of_g():
    ctx1 = default_ctx(4)
    ctx2 = create_ctx(4, poly_override=0x11B)
    mus1 = C.mus_with_k(ctx1, -1)
    mus2 = C.mus_with_k(ctx2, -1)
    d1 = {tuple(walsh.distribution(walsh.wht_fast(C.build_g(ctx1, mu))).items())
          for mu in mus1}
    d2 = {tuple(walsh.distribution(walsh.wht_fast(C.build_g(ctx2, mu))).items())
          for mu in mus2}
    assert d1 == d2
