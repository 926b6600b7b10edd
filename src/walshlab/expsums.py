"""Exponential-sum identities over GF(2^n) and its subfield.

Every lhs comes from direct term-by-term enumeration (batched through
FieldCtx.quotient and char_sums, never from the closed form under test);
the rhs is the closed form.  Every check returns check records.
The checks report every nonzero subfield mu, ascending: as
chi(mu * y) = chi_sub(mu * tr_rel(y)) for subfield mu, char_sums over GF(2^m)
of the histogram of tr_rel(y(a)), binned in one pass of chart.rows, gives
the sum over a for every mu.  On a chart row v, tr_rel(1/a) = l(a)/v with
the reader's line element l(a) = tr_rel(a)^2 / N(a), so a key costs one
quotient per point and no N(a).
The headline identity rewrites

    sum over a outside GF(2) of chi(mu * (conj(a)+a) / (a^2+a))

in terms of the Kloosterman value k_m(mu).  Note the sign: the correct closed
form is -2 + (1+k)^2; the companion derivation steps (the 4|Q| expansion) are
checked the same way and their deviations are reported, not hidden.
"""

from __future__ import annotations

import functools

import numpy as np

from . import chart
from . import kloosterman as kl
from .constructions import check_record
from .gf2n import FieldCtx, default_field, subfield_coords


def theorem35_check(ctx: FieldCtx) -> list[dict]:
    """The headline identity as one thm35 record per nonzero subfield mu, ascending.

    The lhs is the sum over a outside GF(2) of chi(mu * y(a)) with y(a) =
    (conj(a)+a)/(a^2+a), for all mu from one histogram of
    tr_rel(y(a)) = v^2 (v + 1) / (N(a) N(a + 1)) = (v + 1) l(a) l(a + 1) / v^2,
    a term per point of chart.rows; the rhs is -2 + (1 + k_m(mu))^2.
    Subfield points have y = 0 and add chi(0) = +1.  The as-printed variant
    -2 - (1+k)^2 only agrees when k = -1; its value is reported in the detail.
    """
    sub, coords = default_field(ctx.m), subfield_coords(ctx)[1]
    hist = chart.chart_bins((sub.quotient([v ^ 1, ell, ell1], [v, v])
                             for v, _, _, ell, ell1 in chart.rows(ctx)), sub.q)
    mus, kmap = ctx.subgroup("subfield_units"), kl.subfield_k_map(ctx)
    out = []
    for mu, lhs in zip(mus, sub.char_sums(hist)[coords(mus)].tolist()):
        k = kmap[mu]
        rhs, printed = -2 + (1 + k) ** 2, -2 - (1 + k) ** 2
        out.append(check_record("thm35", ctx.m, mu, "ratio_sum_closed_form", lhs == rhs,
                                detail=f"lhs={lhs} rhs={rhs}; k_m(mu)={k};"
                                       f" as-printed sign variant would give {printed}"))
    return out


# ------------------------------------------------------- the Q argument ----


def _q_sums(ctx: FieldCtx) -> np.ndarray:
    """Rows |Q|, |Q and Q1|, |Q and Q2|, S1, S2 and k_n, int64, a column per
    nonzero subfield mu, ascending, from one pass of chart.rows.

    tr_rel(1/a) = l(a)/v and tr_rel(1/(a+1)) = l(a+1)/v sum to
    tr_rel(1/(a^2+a)); tr(a) and the class tr_sub(N(a)) come from the
    reader.  S1 and S2 sum chi(mu/(a^2+a)) and chi(a + mu/(a^2+a)) over a
    outside GF(2); Moreno bounds |S2|.  k_n(mu) = k(mu, 1) over GF(2^n)
    sums chi(a + mu/a) over a != 0 (x = 1/a), a = 1 adding 1.  Q: the a outside
    GF(2) with tr(a) = 0 and tr(mu/a) = tr(mu/(a+1)) = 1; Q1 (Q2) needs
    tr(mu/a) = 1 (tr(mu/(a+1)) = 1) and tr_sub(N(a)) = 1 (0).  Over a set A of
    a, 4|Q on A| = |A| + the sum over A of chi(mu/(a^2+a)) - chi(mu/a) -
    chi(mu/(a+1)), the indicator product expanded.  Each a is binned once,
    keyed by the class; the all-a histogram is the sum of the two classes.
    ArithmeticError when a class is not 0 or 1, or when a count, at any mu of
    GF(2^m), is not a multiple of 4.
    """
    sub, coords = default_field(ctx.m), subfield_coords(ctx)[1]
    q = sub.q

    # (norm class 0, 1) x (1/(a^2+a), 1/a, 1/(a+1)) x (tr(a), value)
    def keys(v, tr, norm_class, ell, ell1):
        over_a, over_a1 = sub.quotient([ell], [v]), sub.quotient([ell1], [v])
        out = np.stack((over_a ^ over_a1, over_a + 2 * q, over_a1 + 4 * q))
        out += np.multiply(norm_class, 6 * q, dtype=np.int64) + q * tr
        return out

    by_class = chart.chart_bins((keys(*batch) for batch in chart.rows(ctx)), 12 * q,
                                "a norm class tr_sub(N(a)) is neither 0 nor 1").reshape(2, 3, 2, q)
    hists = np.stack((by_class.sum(0), by_class[1], by_class[0]))  # all a, class 1, class 0
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
