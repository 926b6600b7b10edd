"""Exponential-sum identities over GF(2^n) and its subfield.

Every lhs comes from direct term-by-term enumeration (batched through
FieldCtx.quotient and char_sums, never from the closed form under test);
the rhs is the closed form.  Every check returns check records, the
diagnostics under the suite label "expsums" with their numbers as fields.
The per-field checks report every nonzero subfield mu, ascending: as
chi(mu * y) = chi_sub(mu * tr_rel(y)) for subfield mu, char_sums over GF(2^m)
of the histogram of tr_rel(y(a)), summed on the chart (chart_norms), gives
the sum over a for every mu.
The headline identity rewrites

    sum over a outside GF(2) of chi(mu * (conj(a)+a) / (a^2+a))

in terms of the Kloosterman value k_m(mu).  Note the sign: the correct closed
form is -2 + (1+k)^2; the companion derivation steps (the 4|Q| expansion) are
checked the same way and their deviations are reported, not hidden.
"""

from __future__ import annotations

import functools

import numpy as np

from . import constructions as C
from . import kloosterman as kl
from .constructions import NoSuchMu, check_record, mus_with_k
from .gf2n import FieldCtx, default_field, subfield_coords


def theorem35_check(ctx: FieldCtx) -> list[dict]:
    """The headline identity as one thm35 record per nonzero subfield mu, ascending.

    The lhs is the sum over a outside GF(2) of chi(mu * y(a)) with y(a) =
    (conj(a)+a)/(a^2+a), for all mu from one histogram of
    tr_rel(y(a)) = v^2 (v + 1) / (N(a) N(a + 1)), a term per chart point; the
    rhs is -2 + (1 + k_m(mu))^2.  Subfield points have y = 0 and add
    chi(0) = +1.  The as-printed variant -2 - (1+k)^2 only agrees when k = -1;
    its value is reported in the detail.
    """
    sub, coords = default_field(ctx.m), subfield_coords(ctx)[1]
    hist = np.zeros(sub.q, dtype=np.int64)
    for v, norm, norm1 in C.chart_norms(ctx):
        hist += np.bincount(sub.quotient([v, v, v ^ 1], [norm, norm1]), minlength=sub.q)
    mus, kmap = ctx.subgroup("subfield_units"), kl.subfield_k_map(ctx)
    out = []
    for mu, lhs in zip(mus, sub.char_sums(hist)[coords(mus)].tolist()):
        k = kmap[mu]
        rhs, printed = -2 + (1 + k) ** 2, -2 - (1 + k) ** 2
        out.append(check_record("thm35", ctx.m, mu, "ratio_sum_closed_form", lhs == rhs,
                                detail=f"lhs={lhs} rhs={rhs}; k_m(mu)={k};"
                                       f" as-printed sign variant would give {printed}"))
    return out


# --------------------------------------------------- the E decomposition ---


def sigma_two_to_one_check(ctx: FieldCtx) -> dict:
    """lam -> lam * conj(lam) maps E two-to-one onto the trace-one subfield set."""
    m = ctx.m
    images: dict[int, list[int]] = {}
    for lam in ctx.subgroup("affine_E"):
        images.setdefault(ctx.mul(lam, ctx.conjugate(lam)), []).append(lam)
    two_to_one = all(len(v) == 2 for v in images.values())
    pairs_conj = all(ctx.conjugate(v[0]) == v[1] for v in images.values())
    trace_one = {a for a in ctx.subgroup("subfield_units") if ctx.tr_sub(a) == 1}
    onto = set(images) == trace_one
    ok = two_to_one and pairs_conj and onto and len(images) == 1 << (m - 1)
    detail = f"2to1={two_to_one} conj_pairs={pairs_conj} image=trace-one set: {onto}"
    return check_record("expsums", m, None, "sigma_two_to_one", ok, detail=detail,
                        lhs=len(images), rhs=1 << (m - 1))


# ------------------------------------------------------- the Q argument ----


def _q_sums(ctx: FieldCtx) -> np.ndarray:
    """Rows |Q|, |Q and Q1|, |Q and Q2|, S1, S2 and k_n, int64, a column per
    nonzero subfield mu, ascending, from one pass over the chart.

    tr_rel(1/a) = v/N(a) and tr_rel(1/(a+1)) = v/N(a+1) sum to tr_rel(1/(a^2+a)),
    and tr(a) = tr_sub(v).  S1 and S2 sum chi(mu/(a^2+a)) and chi(a + mu/(a^2+a))
    over a outside GF(2); Moreno bounds |S2|.  k_n(mu) = k(mu, 1) over GF(2^n)
    sums chi(a + mu/a) over a != 0 (x = 1/a), a = 1 adding 1.  Q: the a outside
    GF(2) with tr(a) = 0 and tr(mu/a) = tr(mu/(a+1)) = 1; Q1 (Q2) needs
    tr(mu/a) = 1 (tr(mu/(a+1)) = 1) and tr_sub(N(a)) = 1 (0).  Over a set A of
    a, 4|Q on A| = |A| + the sum over A of chi(mu/(a^2+a)) - chi(mu/a) -
    chi(mu/(a+1)), the indicator product expanded.  ArithmeticError when a
    count, at any mu of GF(2^m), is not a multiple of 4.
    """
    sub, coords = default_field(ctx.m), subfield_coords(ctx)[1]
    q, trace = sub.q, sub.trace_table()
    # (all a, norm class 1, norm class 0) x (1/(a^2+a), 1/a, 1/(a+1)) x (tr(a), value)
    hists = np.zeros((3, 3, 2, q), dtype=np.int64)
    for v, norm, norm1 in C.chart_norms(ctx):
        over_a, over_a1 = sub.quotient([v], [norm]), sub.quotient([v], [norm1])
        keys = np.stack((over_a ^ over_a1, over_a + 2 * q, over_a1 + 4 * q))
        keys += np.where(trace[v] == 0, 0, q)  # tr(a) = tr_sub(v)
        classes = trace[norm]
        for hist, keep in zip(hists, (slice(None), classes == 1, classes == 0)):
            hist += np.bincount(keys[:, keep].ravel(), minlength=6 * q).reshape(3, 2, q)
    h_sum, h_a, h_a1 = hists[:, :, 0].swapaxes(0, 1)  # the Q counts' domain, tr(a) = 0
    fours = h_sum.sum(1, keepdims=True) + np.stack([sub.char_sums(w) for w in h_sum - h_a - h_a1])
    if np.any(fours % 4):
        raise ArithmeticError("an expanded Q count is not a multiple of 4")
    (s_even, s_odd), (k_even, k_odd), _ = hists[0]
    sums = np.stack([*fours // 4, sub.char_sums(s_even + s_odd),
                     sub.char_sums(s_even - s_odd), sub.char_sums(k_even - k_odd) + 1])
    return sums[:, coords(ctx.subgroup("subfield_units"))]


def q_identity_check(ctx: FieldCtx) -> list[dict]:
    """|Q| and the two companion sums as five qsets records per nonzero subfield mu.

    The records come mu by mu, ascending.  Every number is enumerated for
    every mu at once by _q_sums' pass over the chart.  q_sub_identity: sum
    over a outside GF(2) of chi(mu/(a^2+a)) = -1 + k_n(mu), a hard identity.
    q_positive: |Q| > 0.  q_subset_q1_q2: |Q and Q1| + |Q and Q2| = |Q|, so Q
    lies in the disjoint union of Q1 and Q2.  q_closed_form_as_printed
    (info): the 4|Q| closed form as printed; the indicator expansion is a /8,
    not a /4, so the corrected relation is 8|Q| = 2^n + 1 - k_n + S2 and the
    as-printed check is expected to miss.  q_lower_bound (info):
    8|Q| >= 2^m(2^m - 5) (positive for m >= 3).
    """
    m, mus = ctx.m, ctx.subgroup("subfield_units")
    rows = _q_sums(ctx).T.tolist()  # one row per mu: |Q|, |Q and Q1|, |Q and Q2|, S1, S2, k_n
    # lower bound with the factor-8 expansion: 8|Q| >= 2^n - 2^(m+1) - |S2|max
    bound8 = (1 << m) * ((1 << m) - 5)
    out = []
    for mu, (q_size, q_1, q_2, s1, s2, k_n) in zip(mus, rows):
        # as printed: 4|Q| = 2^n - 1 - k_n + S2 with S2 = sum chi(a + mu/(a^2+a));
        # the indicator product actually expands to 8|Q| = 2^n + 1 - k_n + S2
        printed_rhs = (1 << ctx.n) - 1 - k_n + s2
        corrected_ok = 8 * q_size == (1 << ctx.n) + 1 - k_n + s2
        rec = functools.partial(check_record, "qsets", m, mu)
        out += [
            rec("q_sub_identity", s1 == -1 + k_n, detail=f"lhs={s1} rhs={-1 + k_n}"),
            rec("q_positive", q_size > 0, detail=f"|Q|={q_size}"),
            rec("q_subset_q1_q2", q_1 + q_2 == q_size),
            rec("q_closed_form_as_printed", 4 * q_size == printed_rhs, True,
                f"S2={s2}; corrected 8|Q| = 2^n + 1 - k_n + S2 holds: {corrected_ok}"),
            rec("q_lower_bound", 8 * q_size >= bound8, True,
                f"8|Q|={8 * q_size} bound={bound8}"),
        ]
    return out


# ------------------------------------------------------------- R and N0 ----


def r_sum(ctx: FieldCtx, mu: int) -> int:
    """R(mu): the double character sum over trace-filtered subfield pairs.

    R = sum over u with tr_sub(1/u) = 1 and v with tr_sub(v) = 1 of
    chi_m(mu^2 * (1/v + 1/(v + u^2 + u))).  The second denominator never
    vanishes: tr(u^2+u) = 0 while tr(v) = 1.
    """
    ctx.check_mu(mu)
    sub = default_field(ctx.m)  # the sum runs in GF(2^m)'s own context
    units = np.arange(1, sub.q, dtype=np.int64)
    tr = sub.trace_table()
    us = units[tr[sub.quotient([1], [units])] == 1]
    vs = units[tr[1:] == 1]
    shift = (sub.quotient([us, us]) ^ us)[:, None]
    mu2 = sub.sq(int(subfield_coords(ctx)[1](mu)))
    w = sub.quotient([mu2], [vs]) ^ sub.quotient([mu2], [vs ^ shift])  # mu^2 (1/v + 1/(v+u^2+u))
    return int(sub.chi(w).sum())


def n0_formula_check(ctx: FieldCtx, mu: int | None = None) -> dict:
    """Diagnostic: N0 of g's spectrum vs (3/2)(2^(n-2) + R(mu)), even m."""
    m = ctx.m
    if m % 2:
        raise ValueError("the N0 formula is derived for even m")
    if mu is None:
        candidates = mus_with_k(ctx, -1)
        if not candidates:
            raise NoSuchMu(f"no mu with k_{m}(mu) = -1")
        mu = candidates[0]
    else:
        ctx.check_mu(mu)
        if kl.subfield_k_map(ctx)[mu] != -1:
            raise NoSuchMu(f"k_{m}(0x{mu:x}) != -1")
    n0 = C.spectrum_summary(ctx, "g", mu)[0].get(0, 0)
    r = r_sum(ctx, mu)
    num = 3 * ((1 << (2 * m - 2)) + r)
    rhs = num // 2
    notes = f"R(mu)={r}" + ("" if num % 2 == 0 else "; rhs not an integer")
    return check_record("expsums", m, mu, "n0_formula", n0 == rhs and num % 2 == 0,
                        detail=notes, lhs=n0, rhs=rhs, R=r)


# ------------------------------------------------------------ bounds -------


def bound_checks(ctx: FieldCtx, v0: int | None = None) -> list[dict]:
    """Numeric checks of the two cited character-sum bounds, for every nonzero subfield mu.

    (1) moreno_bound: |sum over a outside GF(2) of chi(a + mu/(a^2+a))| <= 4 * 2^m.
    (2) gamma_ratio_bound: |sum over z in GF(2^m) of chi_m(mu^2 G1(z)/G2(z))|
        <= 14*sqrt(2^m)+1, poles of G2 excluded and counted, summed directly;
        gamma_trivial_bound: at most one per term.  Three records per mu, ascending.
    """
    m = ctx.m
    if v0 is None:
        v0 = next(v for v in ctx.subgroup("subfield_units") if ctx.tr_sub(v) == 1)
    elif not ctx.in_subfield(v0) or ctx.tr_sub(v0) != 1:
        raise ValueError("v0 must be a subfield element of subfield-trace 1")

    # the gamma sum runs in GF(2^m)'s own context, over every z of it
    sub, coords = default_field(m), subfield_coords(ctx)[1]
    z = np.arange(sub.q, dtype=np.int64)
    w0 = int(coords(v0))  # v0 as an element of GF(2^m)

    def term(c, k):  # c * z^k
        return sub.quotient([c] + [z] * k)

    w0sq = sub.sq(w0)
    # G1(z) = 1 + z^4 + z^2 + v0^2
    # G2(z) = z^8 + z^6 + z^5 + v0 z^4 + z^3 + (v0^2+1) z^2 + (v0^2+v0+1) z
    #         + v0^4 + v0^3 + v0
    g1 = 1 ^ term(1, 4) ^ term(1, 2) ^ w0sq
    g2 = (term(1, 8) ^ term(1, 6) ^ term(1, 5) ^ term(w0, 4) ^ term(1, 3)
          ^ term(w0sq ^ 1, 2) ^ term(w0sq ^ w0 ^ 1, 1)
          ^ sub.sq(w0sq) ^ sub.mul(w0sq, w0) ^ w0)
    poles = int((g2 == 0).sum())
    terms = (1 << m) - poles
    # the sum of chi_m(c G1/G2) over the z off the poles, for every c at once
    gamma_all = sub.char_sums(np.bincount(sub.quotient([g1], [g2])[g2 != 0], minlength=sub.q))
    mus = ctx.subgroup("subfield_units")
    at = coords(mus)
    out = []
    for mu, c, s2 in zip(mus, sub.quotient([at, at]).tolist(), _q_sums(ctx)[4].tolist()):
        gamma_sum = int(gamma_all[c])  # c = mu^2
        # |S| <= 14*sqrt(2^m) + 1 checked exactly: (|S| - 1)^2 <= 196 * 2^m
        s_abs = abs(gamma_sum)
        gamma_ok = s_abs <= 1 or (s_abs - 1) ** 2 <= 196 << m
        rec = functools.partial(check_record, "expsums", m, mu)
        out += [rec("moreno_bound", abs(s2) <= 4 << m, detail=f"S2={s2}", lhs=abs(s2), rhs=4 << m),
                rec("gamma_ratio_bound", gamma_ok, lhs=gamma_sum, poles=poles, v0=v0,
                    detail=f"v0=0x{v0:x} poles={poles} |S|<=14*sqrt(2^m)+1: {gamma_ok}"),
                rec("gamma_trivial_bound", s_abs <= terms, detail=f"terms={terms}",
                    lhs=s_abs, rhs=terms)]
    return out
