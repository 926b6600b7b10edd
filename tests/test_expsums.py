"""Exponential-sum identities; every lhs is re-derived by enumeration here."""

import numpy as np
import pytest

from walshlab import expsums as E
from walshlab import kloosterman as kl
from walshlab.cli import main
from walshlab.constructions import NoSuchMu, build_g
from walshlab.gf2n import FieldCtx, create_ctx, default_ctx
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
    (E.bound_checks, ["moreno_bound", "gamma_ratio_bound", "gamma_trivial_bound"]),
], ids=["thm35", "qsets", "bounds"])
def test_checks_report_every_subfield_mu_ascending(check, names):
    # the per-field checks take no mu: they report every nonzero subfield
    # element, found here by a scan of the whole field, in ascending order
    ctx = default_ctx(3)
    mus = [x for x in range(1, ctx.q) if ctx.in_subfield(x)]
    got = [(r["mu"], r["name"]) for r in check(ctx)]
    assert got == [(format(mu, "#x"), name) for mu in mus for name in names]


# -------------------------------------------------------- E decomposition --


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_sigma_two_to_one(m):
    assert E.sigma_two_to_one_check(default_ctx(m))["pass"]


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
    _, s2_all = E._s_sums(ctx)
    for mu in ctx.subgroup("subfield_units"):
        s2 = sum(1 - 2 * ctx.tr_abs(a ^ ctx.mul(mu, ctx.inv(ctx.sq(a) ^ a)))
                 for a in range(2, ctx.q))
        k_n = sum(1 - 2 * ctx.tr_abs(ctx.mul(mu, x) ^ ctx.inv(x)) for x in range(1, ctx.q))
        assert int(s2_all[mu]) == s2, mu
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
    # Q1 and Q2 split on tr_sub(a * conj(a)), a subfield trace; both halves
    # must be reachable, so the split is not vacuous
    nonempty = {"q1": False, "q2": False}
    for m in (3, 4):
        ctx = default_ctx(m)
        q_sets = E._q_sets(ctx, ctx.quotient([1], [np.arange(ctx.q, dtype=np.int64)]))
        for mu in ctx.subgroup("subfield_units"):
            want = {"q": set(_q_members_scalar(ctx, mu)), "q1": set(), "q2": set()}
            for a in range(2, ctx.q):
                norm_tr = ctx.tr_sub(ctx.mul(a, ctx.conjugate(a)))
                if ctx.tr_abs(a) == 0:
                    if ctx.tr_abs(ctx.mul(mu, ctx.inv(a))) == 1 and norm_tr == 1:
                        want["q1"].add(a)
                    if ctx.tr_abs(ctx.mul(mu, ctx.inv(a ^ 1))) == 1 and norm_tr == 0:
                        want["q2"].add(a)
            for name, mask in zip(("q", "q1", "q2"), q_sets(mu)):
                got = {a for a, hit in zip(range(2, ctx.q), mask) if hit}
                assert got == want[name], (m, mu, name)
            nonempty["q1"] |= bool(want["q1"])
            nonempty["q2"] |= bool(want["q2"])
    assert all(nonempty.values())


def test_q_identity_check_builds_one_inverse_table(monkeypatch):
    # _q_sets and k_n share one 2^n array of 1/x
    inverse_tables = []

    def quotient(self, nums, dens=(), _fn=FieldCtx.quotient):
        if (len(nums) == len(dens) == 1 and np.ndim(nums[0]) == 0 and nums[0] == 1
                and np.array_equal(dens[0], np.arange(self.q))):
            inverse_tables.append(self)
        return _fn(self, nums, dens)

    monkeypatch.setattr(FieldCtx, "quotient", quotient)
    E.q_identity_check(create_ctx(5))
    assert len(inverse_tables) == 1


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


def test_r_sum_well_defined_and_reproducible():
    ctx = default_ctx(4)
    r1 = E.r_sum(ctx, 1)
    r2 = E.r_sum(ctx, 1)
    assert r1 == r2
    # |R| < 2^(n-2)
    for mu in ctx.subgroup("subfield_units"):
        assert abs(E.r_sum(ctx, mu)) < 1 << (2 * 4 - 2)


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
        assert E.r_sum(ctx, mu) == total


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
    chk = E.n0_formula_check(default_ctx(m))
    assert chk["pass"]  # diagnostic, but it holds at these sizes
    # lhs is the number of zero Walsh values of g for that mu
    ctx = default_ctx(m)
    spec = wht_fast(build_g(ctx, int(chk["mu"], 16)))
    assert chk["lhs"] == int((spec == 0).sum())


def test_n0_formula_negative_control():
    chk = E.n0_formula_check(default_ctx(4))
    r = chk["R"]
    perturbed = 3 * ((1 << (2 * 4 - 2)) + r + 2) // 2
    assert perturbed != chk["lhs"]


def test_n0_formula_validation():
    with pytest.raises(ValueError):
        E.n0_formula_check(default_ctx(3))  # odd m
    ctx = default_ctx(4)
    mu_bad = next(mu for mu in ctx.subgroup("subfield_units")
                  if kl.subfield_k_map(ctx)[mu] != -1)
    with pytest.raises(NoSuchMu):
        E.n0_formula_check(ctx, mu_bad)


# ---------------------------------------------------------------- bounds ---


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_moreno_bound_scan(m):
    ctx = default_ctx(m)
    recs = _by_mu(E.bound_checks(ctx))
    for mu in ctx.subgroup("subfield_units"):
        assert recs[mu]["moreno_bound"]["pass"], mu


def test_gamma_bound_m8():
    ctx = default_ctx(8)
    recs = _by_mu(E.bound_checks(ctx))
    for mu in ctx.subgroup("subfield_units")[:8]:
        gamma, trivial = recs[mu]["gamma_ratio_bound"], recs[mu]["gamma_trivial_bound"]
        assert gamma["pass"]
        assert trivial["pass"]
        assert gamma["poles"] + abs(gamma["lhs"]) <= 1 << 8


def test_gamma_bound_all_trace_one_v0():
    ctx = default_ctx(4)
    v0s = [v for v in ctx.subgroup("subfield_units") if ctx.tr_sub(v) == 1]
    for v0 in v0s:
        recs = _by_mu(E.bound_checks(ctx, v0=v0))[1]
        assert recs["gamma_ratio_bound"]["pass"] and recs["gamma_trivial_bound"]["pass"]


def test_bound_checks_reject_a_bad_v0():
    ctx = default_ctx(4)
    trace_zero = next(v for v in ctx.subgroup("subfield_units") if ctx.tr_sub(v) == 0)
    outside = next(x for x in range(ctx.q) if not ctx.in_subfield(x))
    for v0 in (trace_zero, outside):
        with pytest.raises(ValueError):
            E.bound_checks(ctx, v0=v0)



@pytest.mark.parametrize("m", [3, 4, 5])
def test_gamma_sum_matches_scalar_loop(m):
    # the scalar definition of the gamma sum, term by term, for every mu and v0
    ctx = default_ctx(m)
    sub = ctx.subgroup("subfield_units")
    for v0 in [v for v in sub if ctx.tr_sub(v) == 1][:3]:
        recs = _by_mu(E.bound_checks(ctx, v0=v0))
        for mu in sub:
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
            gamma = recs[mu]["gamma_ratio_bound"]
            assert (gamma["lhs"], gamma["poles"]) == (total, poles)
