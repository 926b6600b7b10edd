"""Exponential-sum identities; every lhs is re-derived by enumeration here."""

import numpy as np
import pytest

from q_oracle import expanded_q_counts, inverses, k_values, q_counts, q_sets, ratio_sums, s_sums
from test_constructions import OTHER_REPRESENTATIONS
from walshlab import chart
from walshlab import constructions as C
from walshlab import expsums as E
from walshlab import kloosterman as kl
from walshlab.cli import main
from walshlab.constructions import build_g
from walshlab.gf2n import FieldCtx, create_ctx, default_ctx, default_field, subfield_coords
from walshlab.walsh import wht_fast


def _ratio_sum_scalar(ctx, mu):
    # independent scalar enumeration of the headline sum
    total = 0
    for a in range(2, ctx.q):
        num = ctx.conjugate(a) ^ a
        if num == 0:
            total += 1
            continue
        den = ctx.sq(a) ^ a
        val = ctx.mul(mu, ctx.mul(num, ctx.inv(den)))
        total += 1 - 2 * ctx.tr_abs(val)
    return total


def _by_mu(records):
    # per-field records -> {mu: {name: record}}
    out = {}
    for r in records:
        out.setdefault(int(r["mu"], 16), {})[r["name"]] = r
    return out


def test_theorem35_m2_hand_cases():
    ctx = default_ctx(2)
    kmap = kl.subfield_k_map(ctx)
    recs = _by_mu(E.theorem35_check(ctx))
    # mu with k = -1: both sides are -2
    mu_m1 = next(mu for mu, k in kmap.items() if mu and k == -1)
    chk = recs[mu_m1]["ratio_sum_closed_form"]
    assert chk["detail"].startswith("lhs=-2 rhs=-2;") and chk["pass"]
    assert _ratio_sum_scalar(ctx, mu_m1) == -2
    # mu = 1 has k = 3: the sum of 14 terms plus 2 cannot reach the printed
    # -18; the enumerated value is 14 = -2 + (1+3)^2
    chk1 = recs[1]["ratio_sum_closed_form"]
    assert _ratio_sum_scalar(ctx, 1) == 14
    assert chk1["detail"].startswith("lhs=14 rhs=14;") and chk1["pass"]
    assert "-18" in chk1["detail"]  # the as-printed variant is surfaced


def test_theorem35_vectorized_equals_scalar():
    for m in (2, 3, 4):
        ctx = default_ctx(m)
        recs = _by_mu(E.theorem35_check(ctx))
        for mu in ctx.subgroup("subfield_units"):
            chk = recs[mu]["ratio_sum_closed_form"]
            assert chk["detail"].startswith(f"lhs={_ratio_sum_scalar(ctx, mu)} ")


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_theorem35_matches_for_all_mu(m):
    ctx = default_ctx(m)
    recs = E.theorem35_check(ctx)
    assert len(recs) == len(ctx.subgroup("subfield_units"))
    assert all(r["pass"] for r in recs)


def test_theorem35_builds_no_power_table(monkeypatch, capsys):
    # conj(a) is one linear_map of the Frobenius columns, not a 2^n power table
    def refuse(self, e):
        raise AssertionError(f"power_table({e}) was built")

    monkeypatch.setattr(FieldCtx, "power_table", refuse)
    for m in range(2, 7):
        assert all(r["pass"] for r in E.theorem35_check(create_ctx(m)))  # a fresh field
    assert main(["verify", "--suite", "all", "--m-range", "2..6"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("overall: PASS")


@pytest.mark.parametrize("check, names", [
    (E.theorem35_check, ["ratio_sum_closed_form"]),
    (E.q_identity_check, ["q_sub_identity", "q_positive", "q_subset_q1_q2",
                          "q_closed_form_as_printed", "q_lower_bound"]),
], ids=["thm35", "qsets"])
def test_checks_report_every_subfield_mu_ascending(check, names):
    # the per-field checks take no mu: they report every nonzero subfield
    # element, found here by a scan of the whole field, in ascending order
    ctx = default_ctx(3)
    mus = [x for x in range(1, ctx.q) if ctx.in_subfield(x)]
    got = [(r["mu"], r["name"]) for r in check(ctx)]
    assert got == [(format(mu, "#x"), name) for mu in mus for name in names]


# -------------------------------------------------------- E decomposition --
# The proofs of Theorems 3.4 and 3.5 cite side lemmas that no `verify` suite
# checks: the norm map on E, R(mu) and the N0 formula, and Moreno's and the
# gamma bound.  They are asserted here, each sum against a scalar loop.


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_sigma_two_to_one(m):
    # lam -> lam * conj(lam) maps E two-to-one, a conjugate pair per image,
    # onto the subfield elements of subfield-trace 1
    ctx = default_ctx(m)
    images = {}
    for lam in ctx.subgroup("affine_E"):
        images.setdefault(ctx.mul(lam, ctx.conjugate(lam)), []).append(lam)
    assert all(len(pair) == 2 and ctx.conjugate(pair[0]) == pair[1] for pair in images.values())
    assert set(images) == {a for a in ctx.subgroup("subfield_units") if ctx.tr_sub(a) == 1}
    assert len(images) == 1 << (m - 1)


# ----------------------------------------------------------- Q argument ----


def _q_members_scalar(ctx, mu):
    out = []
    for a in range(2, ctx.q):
        c1 = ctx.tr_abs(ctx.mul(mu, ctx.inv(a)))
        c2 = ctx.tr_abs(ctx.mul(mu, ctx.inv(a ^ 1)))
        if c1 == 1 and c2 == 1 and ctx.tr_abs(a) == 0:
            out.append(a)
    return out


@pytest.mark.parametrize("m", [3, 4])
def test_q_sub_identity_all_mu(m):
    ctx = default_ctx(m)
    recs = _by_mu(E.q_identity_check(ctx))
    for mu in ctx.subgroup("subfield_units"):
        res = recs[mu]
        assert res["q_sub_identity"]["pass"], mu
        # lhs re-derived with scalars
        s1 = sum(1 - 2 * ctx.tr_abs(ctx.mul(mu, ctx.inv(ctx.sq(a) ^ a)))
                 for a in range(2, ctx.q))
        assert res["q_sub_identity"]["detail"].startswith(f"lhs={s1} ")


@pytest.mark.parametrize("m", [2, 3, 4])
def test_q_s2_and_k_n_match_scalar_sums(m):
    # S2 and k_n(mu) re-derived with scalars for every mu; the qsets records
    # carry S2 in the as-printed detail and -1 + k_n as q_sub_identity's rhs
    ctx = default_ctx(m)
    recs = _by_mu(E.q_identity_check(ctx))
    mus = ctx.subgroup("subfield_units")
    sums = dict(zip(mus, E._q_sums(ctx).T.tolist()))
    for mu in mus:
        s2 = sum(1 - 2 * ctx.tr_abs(a ^ ctx.mul(mu, ctx.inv(ctx.sq(a) ^ a)))
                 for a in range(2, ctx.q))
        k_n = sum(1 - 2 * ctx.tr_abs(ctx.mul(mu, x) ^ ctx.inv(x)) for x in range(1, ctx.q))
        assert sums[mu][4:] == [s2, k_n], mu
        assert recs[mu]["q_closed_form_as_printed"]["detail"].startswith(f"S2={s2};"), mu
        assert recs[mu]["q_sub_identity"]["detail"].endswith(f" rhs={-1 + k_n}"), mu


def test_q_membership_and_subset():
    for m in (3, 4):
        ctx = default_ctx(m)
        recs = _by_mu(E.q_identity_check(ctx))
        for mu in ctx.subgroup("subfield_units")[:5]:
            res = recs[mu]
            q_size = len(_q_members_scalar(ctx, mu))
            assert res["q_positive"]["detail"] == f"|Q|={q_size}"
            assert res["q_subset_q1_q2"]["pass"]
            assert res["q_positive"]["pass"] and q_size > 0
            assert res["q_lower_bound"]["pass"]  # 8|Q| >= 2^m (2^m - 5)


def test_q_membership_masks_match_scalar_sets():
    # the mask oracle: Q1 and Q2 split on tr_sub(a * conj(a)), a subfield
    # trace; both halves must be reachable, so the split is not vacuous
    nonempty = {"q1": False, "q2": False}
    for m in (3, 4):
        ctx = default_ctx(m)
        domain, sets = q_sets(ctx, inverses(ctx))
        assert domain.tolist() == [a for a in range(2, ctx.q) if ctx.tr_abs(a) == 0]
        for mu in ctx.subgroup("subfield_units"):
            want = {"q": set(_q_members_scalar(ctx, mu)), "q1": set(), "q2": set()}
            for a in range(2, ctx.q):
                norm_tr = ctx.tr_sub(ctx.mul(a, ctx.conjugate(a)))
                if ctx.tr_abs(a) == 0:
                    if ctx.tr_abs(ctx.mul(mu, ctx.inv(a))) == 1 and norm_tr == 1:
                        want["q1"].add(a)
                    if ctx.tr_abs(ctx.mul(mu, ctx.inv(a ^ 1))) == 1 and norm_tr == 0:
                        want["q2"].add(a)
            for name, mask in zip(("q", "q1", "q2"), sets(mu)):
                got = set(domain[mask].tolist())
                assert got == want[name], (m, mu, name)
            nonempty["q1"] |= bool(want["q1"])
            nonempty["q2"] |= bool(want["q2"])
    assert all(nonempty.values())


def _expanded_q_counts(ctx):
    # (|Q|, |Q and Q1|, |Q and Q2|) per subfield mu, ascending, from the chart pass
    return [tuple(c) for c in E._q_sums(ctx)[:3].T.tolist()]


@pytest.mark.parametrize("m", range(2, 9))
def test_q_counts_match_the_mask_oracle_for_every_mu(m):
    ctx = default_ctx(m)
    assert _expanded_q_counts(ctx) == q_counts(ctx, ctx.subgroup("subfield_units"))


@pytest.mark.parametrize("m", [9, 10])
def test_q_counts_match_the_mask_oracle_on_a_sample(m):
    # 16 mu spread evenly over the subfield units
    ctx = default_ctx(m)
    mus = ctx.subgroup("subfield_units")
    picks = _sample(mus)
    got = _expanded_q_counts(ctx)
    assert [got[i] for i in picks] == q_counts(ctx, [mus[i] for i in picks])


@pytest.mark.parametrize("m, poly", OTHER_REPRESENTATIONS)
def test_q_counts_match_the_mask_oracle_in_other_representations(m, poly):
    ctx = create_ctx(m, poly_override=poly)
    assert _expanded_q_counts(ctx) == q_counts(ctx, ctx.subgroup("subfield_units"))
    assert all(r["pass"] for r in E.q_identity_check(ctx) if not r["info"])


def _sample(mus):
    # the indices of 16 mu spread evenly over the subfield units
    return list(range(0, len(mus), len(mus) // 16)[:16])


def _chart_sums(ctx):
    # the chart pass: rows |Q|, |Q and Q1|, |Q and Q2|, S1, S2, k_n and thm35's
    # lhs, a column per subfield mu, ascending
    lhs = [int(r["detail"].split()[0].removeprefix("lhs=")) for r in E.theorem35_check(ctx)]
    return np.vstack([E._q_sums(ctx), lhs])


def _big_field_sums(ctx):
    # the same rows from the GF(2^2m) oracles
    mus, inv = ctx.subgroup("subfield_units"), inverses(ctx)
    s1, s2 = s_sums(ctx, inv)
    return np.stack([*expanded_q_counts(ctx, inv), s1[mus], s2[mus],
                     k_values(ctx, inv)[mus], ratio_sums(ctx)[mus]])


@pytest.mark.parametrize("m", range(2, 11))
def test_chart_sums_match_the_big_field_oracles(m):
    # every mu up to m = 8, 16 of them at m = 9 and 10
    ctx = default_ctx(m)
    got, want = _chart_sums(ctx), _big_field_sums(ctx)
    if m > 8:
        picks = _sample(ctx.subgroup("subfield_units"))
        got, want = got[:, picks], want[:, picks]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m, poly", OTHER_REPRESENTATIONS)
def test_chart_sums_match_the_big_field_oracles_in_other_representations(m, poly):
    ctx = create_ctx(m, poly_override=poly)
    assert np.array_equal(_chart_sums(ctx), _big_field_sums(ctx))


def _ell_at_s_plus_v(ctx, monkeypatch):
    # l(a + 1) read at the line coordinate s + v instead of s + 1/v
    reader, s = chart.rows, np.arange(1 << ctx.m)

    def rows(c):
        for v, tr, norm_class, ell, ell1 in reader(c):
            yield v, tr, norm_class, ell, (ell[s ^ v] if ell.size == s.size else ell1)

    monkeypatch.setattr(chart, "rows", rows)


def _nu_plus_one(ctx, monkeypatch):
    # the chart built with nu + 1: D(s) = s^2 + s + nu + 1 and its norm classes
    constants = chart.constants
    monkeypatch.setattr(chart, "constants", lambda c: (constants(c)[0], constants(c)[1] ^ 1))


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("mutant", [_ell_at_s_plus_v, _nu_plus_one])
def test_a_wrong_chart_reader_fails_the_gate_or_the_oracles(m, mutant, monkeypatch):
    # mutation: a reader with a wrong l(a + 1) or a wrong nu either makes an
    # expanded Q count miss a multiple of 4 or moves a sum off its oracle.  At
    # even m, tr_sub(nu + 1) = tr_sub(nu) = 1, so nu + 1 is lam' conj(lam')
    # for another lam' of trace one, a chart just as valid: the sums must stay
    ctx = create_ctx(m)
    want = _big_field_sums(ctx)
    mutant(ctx, monkeypatch)
    if mutant is _nu_plus_one and m % 2 == 0:
        assert np.array_equal(_chart_sums(ctx), want)
        return
    try:
        got = _chart_sums(ctx)
    except ArithmeticError:
        return
    assert not np.array_equal(got, want)


def test_q_subset_fails_when_an_a_leaves_both_norm_classes(monkeypatch):
    # mutation: the class of an a of Q(mu = 1) is read as tr_sub(N(a)) = 2, so
    # it lies in Q but in neither Q1 nor Q2.  The pass bins each a under its
    # class and sums the two classes for all a, so such an a must raise.  The
    # reader gives that a, on its row v = tr_rel(a) at s = u/v, the class 2
    ctx = create_ctx(4)
    sub, coords = default_field(4), subfield_coords(ctx)[1]
    domain, sets = q_sets(ctx, inverses(ctx))
    a = int(next(x for x in domain[sets(1)[0]].tolist() if ctx.tr_rel(x)))
    v = int(coords(ctx.tr_rel(a)))
    s = sub.mul(int(coords(a ^ ctx.mul(chart.find_lambda(ctx), ctx.tr_rel(a)))), sub.inv(v))
    reader = chart.rows

    def rows(c):
        for batch in reader(c):
            rows_v, norm_class = batch[0], batch[2]
            if norm_class.ndim == 2 and v in rows_v:
                norm_class = norm_class.copy()
                norm_class[rows_v[:, 0].tolist().index(v), s] = 2
            yield *batch[:2], norm_class, *batch[3:]

    monkeypatch.setattr(chart, "rows", rows)
    with pytest.raises(ArithmeticError, match="norm class"):
        E.q_identity_check(ctx)


def test_q_counts_raise_on_a_transform_off_by_one(monkeypatch):
    # mutation: every character sum one too large makes each expanded count
    # 4|Q| + 1, which no integer |Q| has
    monkeypatch.setattr(FieldCtx, "char_sums",
                        lambda self, w, _fn=FieldCtx.char_sums: _fn(self, w) + 1)
    with pytest.raises(ArithmeticError):
        E.q_identity_check(create_ctx(3))


def test_thm35_and_qsets_build_no_table_of_the_big_field(monkeypatch):
    # both sums run on the chart in GF(2^m)'s own tables; GF(2^2m)'s exp/log
    # tables would have 2^2m entries
    tables, big = FieldCtx.tables, []

    def refuse_big(self):
        if self.n == big[-1]:
            raise AssertionError(f"the exp/log tables of GF(2^{self.n}) were built")
        return tables(self)

    monkeypatch.setattr(FieldCtx, "tables", refuse_big)
    for m in range(2, 9):
        big.append(2 * m)
        ctx = create_ctx(m)  # a fresh field, so no memo was filled before
        records = E.theorem35_check(ctx) + E.q_identity_check(ctx)
        assert all(r["pass"] for r in records if not r["info"]), m


def test_q_closed_form_corrected_relation():
    # the as-printed 4|Q| form fails; the /8 expansion holds exactly
    for m in (3, 4):
        ctx = default_ctx(m)
        recs = _by_mu(E.q_identity_check(ctx))
        for mu in ctx.subgroup("subfield_units"):
            closed = recs[mu]["q_closed_form_as_printed"]
            assert closed["detail"].endswith("holds: True")
            assert not closed["pass"] and closed["info"]  # documented outcome


# -------------------------------------------------------------- R and N0 ---


def _r_sum(ctx, mu):
    """R(mu): the double character sum over trace-filtered subfield pairs.

    R = sum over u with tr_sub(1/u) = 1 and v with tr_sub(v) = 1 of
    chi_m(mu^2 * (1/v + 1/(v + u^2 + u))), in GF(2^m)'s own context.  The
    second denominator never vanishes: tr(u^2+u) = 0 while tr(v) = 1.
    """
    sub = default_field(ctx.m)
    units = np.arange(1, sub.q, dtype=np.int64)
    tr = sub.trace_table()
    us = units[tr[sub.quotient([1], [units])] == 1]
    vs = units[tr[1:] == 1]
    shift = (sub.quotient([us, us]) ^ us)[:, None]
    mu2 = sub.sq(int(subfield_coords(ctx)[1](mu)))
    w = sub.quotient([mu2], [vs]) ^ sub.quotient([mu2], [vs ^ shift])  # mu^2 (1/v + 1/(v+u^2+u))
    return int(sub.chi(w).sum())


def n0_formula(ctx):
    """(mu, N0, R(mu)) for g at the first mu with k_m(mu) = -1, m even.

    N0 is the number of zero Walsh values of g; the formula under test is
    N0 = (3/2)(2^(n-2) + R(mu)).
    """
    assert ctx.m % 2 == 0, "the N0 formula is derived for even m"
    mu = C.mus_with_k(ctx, -1)[0]
    return mu, C.walsh_summary(ctx, "g", mu, True)[0].get(0, 0), _r_sum(ctx, mu)


def test_r_sum_well_defined_and_reproducible():
    ctx = default_ctx(4)
    r1 = _r_sum(ctx, 1)
    r2 = _r_sum(ctx, 1)
    assert r1 == r2
    # |R| < 2^(n-2)
    for mu in ctx.subgroup("subfield_units"):
        assert abs(_r_sum(ctx, mu)) < 1 << (2 * 4 - 2)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_r_sum_matches_scalar_loop(m):
    # the scalar definition of R, pair by pair, for every mu
    ctx = default_ctx(m)
    sub = ctx.subgroup("subfield_units")
    us = [u for u in sub if ctx.tr_sub(ctx.inv(u)) == 1]
    vs = [v for v in sub if ctx.tr_sub(v) == 1]
    for mu in sub:
        mu2 = ctx.sq(mu)
        total = 0
        for u in us:
            shift = ctx.sq(u) ^ u
            for v in vs:
                w = ctx.inv(v) ^ ctx.inv(v ^ shift)
                total += 1 - 2 * ctx.tr_sub(ctx.mul(mu2, w))
        assert _r_sum(ctx, mu) == total


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_r_sum_builds_no_table_of_the_big_field(m, monkeypatch):
    # R(mu) is a sum over GF(2^m) and runs in its own context; GF(2^2m)'s
    # exp/log tables would have 2^2m entries
    want = [_r_sum(default_ctx(m), mu) for mu in default_ctx(m).subgroup("subfield_units")]
    tables = FieldCtx.tables

    def refuse_big(self):
        if self.n == 2 * m:
            raise AssertionError(f"the exp/log tables of GF(2^{self.n}) were built")
        return tables(self)

    monkeypatch.setattr(FieldCtx, "tables", refuse_big)
    ctx = create_ctx(m)  # a fresh field, so no memo was filled before
    assert [_r_sum(ctx, mu) for mu in ctx.subgroup("subfield_units")] == want


def test_r_sum_denominators_never_vanish():
    ctx = default_ctx(4)
    sub = ctx.subgroup("subfield_units")
    for u in sub:
        if ctx.tr_sub(ctx.inv(u)) != 1:
            continue
        shift = ctx.sq(u) ^ u
        for v in sub:
            if ctx.tr_sub(v) != 1:
                continue
            assert v != 0 and (v ^ shift) != 0


@pytest.mark.parametrize("m", [4, 6])
def test_n0_formula_even_m(m):
    ctx = default_ctx(m)
    mu, n0, r = n0_formula(ctx)
    assert 2 * n0 == 3 * ((1 << (2 * m - 2)) + r)  # it holds at these sizes
    # N0 is the number of zero Walsh values of g for that mu
    assert n0 == int((wht_fast(build_g(ctx, mu)) == 0).sum())


def test_n0_formula_negative_control():
    _, n0, r = n0_formula(default_ctx(4))
    perturbed = 3 * ((1 << (2 * 4 - 2)) + r + 2) // 2
    assert perturbed != n0


# ---------------------------------------------------------------- bounds ---


def _gamma_sums(ctx, v0):
    """(the gamma sum of every nonzero subfield mu, ascending, and the poles).

    The gamma sum is the sum over z in GF(2^m) of chi_m(mu^2 G1(z)/G2(z)), the
    poles of G2 excluded and counted, with
    G1(z) = 1 + z^4 + z^2 + v0^2 and
    G2(z) = z^8 + z^6 + z^5 + v0 z^4 + z^3 + (v0^2+1) z^2 + (v0^2+v0+1) z
            + v0^4 + v0^3 + v0,
    every mu from one histogram of G1/G2, in GF(2^m)'s own context.
    """
    sub, coords = default_field(ctx.m), subfield_coords(ctx)[1]
    z = np.arange(sub.q, dtype=np.int64)
    w0 = int(coords(v0))  # v0 as an element of GF(2^m)

    def term(c, k):  # c * z^k
        return sub.quotient([c] + [z] * k)

    w0sq = sub.sq(w0)
    g1 = 1 ^ term(1, 4) ^ term(1, 2) ^ w0sq
    g2 = (term(1, 8) ^ term(1, 6) ^ term(1, 5) ^ term(w0, 4) ^ term(1, 3)
          ^ term(w0sq ^ 1, 2) ^ term(w0sq ^ w0 ^ 1, 1)
          ^ sub.sq(w0sq) ^ sub.mul(w0sq, w0) ^ w0)
    gamma_all = sub.char_sums(np.bincount(sub.quotient([g1], [g2])[g2 != 0], minlength=sub.q))
    at = coords(ctx.subgroup("subfield_units"))
    return gamma_all[sub.quotient([at, at])].tolist(), int((g2 == 0).sum())  # at c = mu^2


def _gamma_bounds_hold(m, s, poles):
    # |S| <= 14*sqrt(2^m) + 1 checked exactly, (|S| - 1)^2 <= 196 * 2^m, and
    # the trivial bound: at most one per term off the poles
    return (abs(s) <= 1 or (abs(s) - 1) ** 2 <= 196 << m) and abs(s) <= (1 << m) - poles


def _trace_one_v0s(ctx):
    return [v for v in ctx.subgroup("subfield_units") if ctx.tr_sub(v) == 1]


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_moreno_bound_scan(m):
    # |S2| <= 4 * 2^m for every mu, S2 = sum over a outside GF(2) of
    # chi(a + mu/(a^2+a)), read from the qsets pass
    s2 = E._q_sums(default_ctx(m))[4]
    assert len(s2) == (1 << m) - 1
    assert (np.abs(s2) <= 4 << m).all()


def test_gamma_bound_m8():
    ctx = default_ctx(8)
    sums, poles = _gamma_sums(ctx, _trace_one_v0s(ctx)[0])
    for s in sums[:8]:
        assert _gamma_bounds_hold(8, s, poles)
        assert poles + abs(s) <= 1 << 8


def test_gamma_bound_all_trace_one_v0():
    ctx = default_ctx(4)
    for v0 in _trace_one_v0s(ctx):
        sums, poles = _gamma_sums(ctx, v0)
        assert _gamma_bounds_hold(4, sums[0], poles)  # mu = 1


@pytest.mark.parametrize("m", [3, 4, 5])
def test_gamma_sum_matches_scalar_loop(m):
    # the scalar definition of the gamma sum, term by term, for every mu and v0
    ctx = default_ctx(m)
    sub = ctx.subgroup("subfield_units")
    for v0 in _trace_one_v0s(ctx)[:3]:
        sums, got_poles = _gamma_sums(ctx, v0)
        for mu, got in zip(sub, sums):
            total = poles = 0
            for z in [0] + sub:
                g1 = ctx.pow(z, 4) ^ ctx.sq(z) ^ 1 ^ ctx.sq(v0)
                g2 = (ctx.pow(z, 8) ^ ctx.pow(z, 6) ^ ctx.pow(z, 5) ^ ctx.mul(v0, ctx.pow(z, 4))
                      ^ ctx.pow(z, 3) ^ ctx.mul(ctx.sq(v0) ^ 1, ctx.sq(z))
                      ^ ctx.mul(ctx.sq(v0) ^ v0 ^ 1, z) ^ ctx.pow(v0, 4) ^ ctx.pow(v0, 3) ^ v0)
                if g2 == 0:
                    poles += 1
                    continue
                val = ctx.mul(ctx.sq(mu), ctx.mul(g1, ctx.inv(g2)))
                total += 1 - 2 * ctx.tr_sub(val)
            assert (got, got_poles) == (total, poles), (v0, mu)
