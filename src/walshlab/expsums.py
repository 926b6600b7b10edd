"""Exponential-sum identities over GF(2^n) and its subfield.

Every lhs comes from direct term-by-term enumeration (batched through
FieldCtx.quotient, chi and char_sums, never from the closed form under test);
the rhs is the closed form.  Every check returns check records, the
diagnostics under the suite label "expsums" with their numbers as fields.
The per-field checks report every nonzero subfield mu, ascending: a sum of
chi(mu * y(a)) comes for all mu from char_sums of the histogram of y(a).
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
from . import kernels
from . import kloosterman as kl
from .constructions import NoSuchMu, check_record, mus_with_k
from .gf2n import FieldCtx, default_field, subfield_coords


def theorem35_check(ctx: FieldCtx) -> list[dict]:
    """The headline identity as one thm35 record per nonzero subfield mu, ascending.

    The lhs is the sum over a outside GF(2) of chi(mu * y(a)) with y(a) =
    (conj(a)+a)/(a^2+a), for all mu from one histogram; the rhs is
    -2 + (1 + k_m(mu))^2.  Subfield points have y = 0 and add chi(0) = +1.  The
    as-printed variant -2 - (1+k)^2 only agrees when k = -1; its value is
    reported in the detail.
    """
    a = np.arange(2, ctx.q, dtype=np.int64)
    y = ctx.quotient([a ^ kernels.linear_map(a, ctx.frobenius(ctx.m))], [a, a ^ 1])
    lhs_all = ctx.char_sums(np.bincount(y, minlength=ctx.q))
    kmap = kl.subfield_k_map(ctx)
    out = []
    for mu in ctx.subgroup("subfield_units"):
        lhs, k = int(lhs_all[mu]), kmap[mu]
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


def _q_counts(ctx: FieldCtx, inv: np.ndarray) -> list[np.ndarray]:
    """[|Q|, |Q and Q1|, |Q and Q2|] over the nonzero subfield mu, ascending, int64.

    Q: the a outside GF(2) with tr(a) = 0, tr(mu/a) = 1 and tr(mu/(a+1)) = 1.
    Q1 (Q2) needs tr(mu/a) = 1 (tr(mu/(a+1)) = 1) and tr_sub(a*conj(a)) = 1 (0),
    so Q and Q1 (Q2) is Q on that norm class.  With 1/a + 1/(a+1) = 1/(a^2+a)
    and h a histogram over a set A of a, the indicator product expands to
    4|Q on A| = |A| + char_sums(h(1/(a^2+a)) - h(1/a) - h(1/(a+1)))[mu].
    inv is 1/x for every x.  ArithmeticError when a count, at any mu of the
    field, is not a multiple of 4.
    """
    a = 2 + np.flatnonzero(ctx.trace_table()[2:] == 0)
    inv_a, inv_a1, tr_norm = inv[a], inv[a ^ 1], C.norm_trace(ctx)[a]

    def count(keep: np.ndarray) -> np.ndarray:
        def h(x):
            return np.bincount(x[keep], minlength=ctx.q)

        fours = int(keep.sum()) + ctx.char_sums(h(inv_a ^ inv_a1) - h(inv_a) - h(inv_a1))
        if np.any(fours % 4):
            raise ArithmeticError("an expanded Q count is not a multiple of 4")
        return fours[ctx.subgroup("subfield_units")] // 4

    return [count(keep) for keep in (np.ones(a.size, dtype=bool), tr_norm == 1, tr_norm == 0)]


def _s_sums(ctx: FieldCtx, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S1, S2): the sums over a outside GF(2) of chi(mu/(a^2+a)) and chi(a + mu/(a^2+a)).

    Two int64 arrays indexed by mu; inv is 1/x for every x, and
    1/(a^2+a) = 1/a + 1/(a+1).  S2 weighs each a by chi(a): the histogram
    minus twice that of the trace-one a.  Moreno bounds |S2|.
    """
    # a and a + 1 share 1/(a^2+a) and tr(a) (n is even): one entry per pair, counted twice
    inner = inv[2::2] ^ inv[3::2]
    hist = 2 * np.bincount(inner, minlength=ctx.q)
    odd_hist = 2 * np.bincount(inner[ctx.trace_table()[2::2] == 1], minlength=ctx.q)
    return ctx.char_sums(hist), ctx.char_sums(hist - 2 * odd_hist)


def q_identity_check(ctx: FieldCtx) -> list[dict]:
    """|Q| and the two companion sums as five qsets records per nonzero subfield mu.

    The records come mu by mu, ascending.  Every number is enumerated for
    every mu at once from one 1/x array: S1, S2, k_n and _q_counts' three by
    one transform each.  q_sub_identity: sum over a outside GF(2) of
    chi(mu/(a^2+a)) = -1 + k_n(mu), a hard identity.  q_positive: |Q| > 0.
    q_subset_q1_q2: |Q and Q1| + |Q and Q2| = |Q|, so Q lies in the disjoint
    union of Q1 and Q2.  q_closed_form_as_printed
    (info): the 4|Q| closed form as printed; the indicator expansion is a /8,
    not a /4, so the corrected relation is 8|Q| = 2^n + 1 - k_n + S2 and the
    as-printed check is expected to miss.  q_lower_bound (info):
    8|Q| >= 2^m(2^m - 5) (positive for m >= 3).
    """
    m, mus = ctx.m, ctx.subgroup("subfield_units")
    inv = ctx.quotient([1], [np.arange(ctx.q, dtype=np.int64)])  # 1/x, 0 at x = 0
    # one row per mu: |Q|, |Q and Q1|, |Q and Q2|, S1, S2, k_n
    rows = np.stack([*_q_counts(ctx, inv), *(s[mus] for s in _s_sums(ctx, inv)),
                     kl.k_values(ctx, inv)[mus]]).T.tolist()
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
    _, sums2 = _s_sums(ctx, ctx.quotient([1], [np.arange(ctx.q, dtype=np.int64)]))

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
    for mu, c in zip(mus, sub.quotient([at, at]).tolist()):
        s2 = int(sums2[mu])
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
