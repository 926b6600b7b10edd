"""The two interleaved trace constructions f and g on GF(2^{2m}) and the
machinery that verifies their spectra.

f(x) = tr(lam * x^(2^m+1)) + tr(x) * tr(mu * x^(2^m-1))
g(x) = (1 + tr(x)) * tr(lam * x^(2^m+1)) + tr(x) * tr(mu * x^(2^m-1))

with tr_rel(lam) = 1 and mu a nonzero subfield element.  x^(2^m+1) lies in
the subfield, so the lam-term is tr_sub(x^(2^m+1)) for every such lam: each
lam gives the same f and g, and find_lambda's value is the one reports print.
Builders evaluate the whole table at once from the polar decomposition of
GF(2^{2m})^*, the subfield units times the unit circle: N(x) takes only
2^m - 1 nonzero values and x^(2^m-1) only 2^m + 1, so each term is a short
table gathered by log(x) mod 2^m -+ 1 (FieldCtx.power_classes), with no
power table.  predicted_spectrum gives the closed-form Walsh value at every
point from the same term tables, and the verification suite plays it against
the brute-force spectrum.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from . import kloosterman as kl
from .gf2n import (  # noqa: F401 - ZeroMu stays importable from here
    DivisionByZero,
    FieldCtx,
    ZeroMu,
    default_ctx,
    per_field,
)
from .walsh import distribution, nonlinearity, wht_fast


class UnexpectedValue(Exception):
    pass


class NoSuchMu(Exception):
    pass


# ------------------------------------------------------------- lambda ------


def find_lambda(ctx: FieldCtx) -> int:
    """Smallest solution of lam + conjugate(lam) = 1 (an affine coset)."""
    return ctx.subgroup("affine_E")[0]


def resolve_mu(ctx: FieldCtx, selector) -> int:
    """mu from a subfield element (int) or a subfield generator index.

    Strings of the form 'idx:K' mean generator^((2^m+1)*K); anything else is
    parsed as a hex element.  Membership is always re-verified.
    """
    if isinstance(selector, str):
        if selector.startswith("idx:"):
            k = int(selector[4:])
            mu = ctx.pow(ctx.generator, ((1 << ctx.m) + 1) * k)
        else:
            mu = int(selector, 16)
    else:
        mu = int(selector)
    ctx.check_mu(mu)
    return mu


# ------------------------------------------------------------ builders -----


@per_field
def _polar_terms(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tr_sub(N(x)) as uint8, circle index, circle): the mu-free term data of a field.

    x^(2^m-1) = x^((q-1)/(2^m+1)) is circle[index[x]]; N(x) = x^((q-1)/(2^m-1)).
    """
    # N(x) lies in the subfield, so tr(lam * N) = tr_sub(tr_rel(lam) * N) = tr_sub(N)
    # for any lam with tr_rel(lam) = 1.  The gathers index with the narrow
    # index itself: np.take would make a 2^n-entry intp copy of it
    units, norm_index = ctx.power_classes((1 << ctx.m) - 1)
    t_norm = kernels.masked_parity(units, ctx.dual_mask(find_lambda(ctx)))[norm_index]
    circle, circle_index = ctx.power_classes((1 << ctx.m) + 1)
    return t_norm, circle_index, circle


def norm_trace(ctx: FieldCtx) -> np.ndarray:
    """tr_sub(N(x)) for every x, uint8, N(x) = x^(2^m+1)."""
    return _polar_terms(ctx)[0]


def _term_tables(ctx: FieldCtx, mu: int):
    """(tr_sub(N(x)), tr(mu * x^(2^m-1)), tr(x)) for every x, uint8, N(x) = x^(2^m+1)."""
    ctx.check_mu(mu)
    t_norm, circle_index, circle = _polar_terms(ctx)
    t_mu = kernels.masked_parity(circle, ctx.dual_mask(mu))[circle_index]
    return t_norm, t_mu, ctx.trace_table()


def build_f(ctx: FieldCtx, mu: int) -> np.ndarray:
    """Truth table of f over the whole field (f(0) = 0), uint8."""
    t_norm, t_mu, t_x = _term_tables(ctx, mu)
    return t_norm ^ (t_x & t_mu)


def build_g(ctx: FieldCtx, mu: int) -> np.ndarray:
    """Truth table of g, uint8: the lam-part where tr(x) = 0, the mu-part elsewhere."""
    t_norm, t_mu, t_x = _term_tables(ctx, mu)
    return np.where(t_x == 0, t_norm, t_mu).astype(np.uint8)


# ---------------------------------------------------------- line count ---

# f's distribution comes from the line count from this m on.  Per mu the count
# is faster than the butterfly from m = 2; m <= 3 keeps the butterfly, which
# the benchmark's small runs at m = 3 measure
LINE_COUNT_FROM_M = 4

# circle-point pairs per bincount of the line count: 4 int64 bins a pair, so
# about 256 KB of bins at a time
LINE_CHUNK = 1 << 13


@per_field
def _circle_lines(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z_k^-2, log r_k, log(1 + r_k)) for the circle points z_k = h^k, k <= 2^m,
    h = g^(2^m-1): the mu-free data of f_line_distribution.

    r_k = tr_rel(z_k) = z_k + 1/z_k lies in the subfield; the logs, int64, are
    to the base s = g^(2^m+1) and mod 2^m - 1, read by searchsorted in the
    sorted orbit of s.  r_0 = 0 gets the log -(2^m - 1) and a zero 1 + r_k
    (z_k a cube root of unity, odd m) the log 2^(m+1) - 3, so that a pair
    with either lands in a bin that is not a log.
    """
    m = ctx.m
    units, circle = (1 << m) - 1, (1 << m) + 1
    z = kernels.orbit(1, ctx.pow(ctx.generator, units), circle, ctx.reduction_poly)
    k = np.arange(circle)
    r = z ^ z[-k % circle]  # 1/z_k = z_-k
    sub = kernels.orbit(1, ctx.pow(ctx.generator, circle), units, ctx.reduction_poly)
    order = np.argsort(sub)
    sorted_sub = sub[order]

    def log(x, zero_log):
        return np.where(x == 0, zero_log, order[np.searchsorted(sorted_sub, x)])

    return z[-2 * k % circle], log(r, -units), log(r ^ 1, 2 * units - 1)


def f_line_distribution(ctx: FieldCtx, mu: int) -> tuple[dict[int, int], int]:
    """(Walsh distribution, W(0)) of f for mu by counting the polar lines: no
    truth table, no exp/log table and no 2^n array.

    On the line z_k * F, f(y z_k) = tr_sub(y c_k) with c_k = 1 + tr(mu z_k^-2) r_k,
    so W_f(a) = 2^m (N(a) - 1), N(a) the number of k with tr_rel(a z_k) = c_k.
    For a = y z_j, tr_rel(a z_k) = y r_(j+k): N(y z_j) counts the k with
    log y = log c_k - log r_(j+k) mod 2^m - 1, one bincount per chunk of lines
    j over the windows r_(j..j+2^m).  Each row has 4(2^m - 1) bins: the
    differences fold onto log y from the first two quarters, a pair with a
    zero r or c lands in the third, and one with both (c_-j = 0, which holds
    on the whole line) in the last bin.  N(0) counts the k with c_k = 0.
    ArithmeticError if the coset sum of N is not (2^m + 1) 2^m or Parseval fails.
    """
    ctx.check_mu(mu)
    m = ctx.m
    units, circle = (1 << m) - 1, (1 << m) + 1
    zinv2, log_r, log_r1 = _circle_lines(ctx)
    # log c_k + 2^m - 1: c_k = 1 where tr(mu z_k^-2) = 0, else 1 + r_k
    shifted_c = np.where(kernels.masked_parity(zinv2, ctx.dual_mask(mu)) == 1, log_r1, 0)
    shifted_c += units
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((log_r, log_r[:-1])),
                                                       circle)
    width = 4 * units
    lines = max(1, LINE_CHUNK // circle)
    rows = np.arange(lines)[:, None] * width
    n_counts = np.zeros(circle + 1, dtype=np.int64)  # a -> N(a), histogram over a != 0
    for j in range(0, circle, lines):
        w = windows[j:j + lines]
        bins = shifted_c - w
        bins += rows[:w.shape[0]]
        per_bin = np.bincount(bins.ravel(), minlength=w.shape[0] * width).reshape(-1, width)
        n = per_bin[:, :units] + per_bin[:, units:2 * units]
        n += per_bin[:, -1:]
        n_counts += np.bincount(n.ravel(), minlength=circle + 1)
    n0 = int(np.count_nonzero(shifted_c == 3 * units - 1))  # c_k = 0
    n_counts[n0] += 1
    v = np.arange(circle + 1)
    if (coset_sum := int(v @ n_counts)) != circle << m:
        raise ArithmeticError(f"line count: the coset sum is {coset_sum}, not {circle << m}")
    if int((v - 1) ** 2 @ n_counts) != ctx.q:
        raise ArithmeticError("line count: Parseval fails")
    dist = {(int(i) - 1) << m: int(n_counts[i]) for i in np.flatnonzero(n_counts)}
    return dist, (n0 - 1) << m


def walsh_summary(ctx: FieldCtx, which: str, mu: int,
                  table: np.ndarray | None = None) -> tuple[dict[int, int], int]:
    """(Walsh distribution, W(0)) of f or g for mu: the one choice of how.

    f from m = LINE_COUNT_FROM_M comes from the line count; f below it and g
    at every m from the butterfly of table, built here when not given.  The
    builders and wht_fast are looked up at call time, so wrappers installed on
    this module see every build.
    """
    if which == "f" and ctx.m >= LINE_COUNT_FROM_M:
        return f_line_distribution(ctx, mu)
    if table is None:
        table = {"f": build_f, "g": build_g}[which](ctx, mu)
    spectrum = wht_fast(table)
    return distribution(spectrum), int(spectrum[0])


@per_field
def spectrum_summary(ctx: FieldCtx, which: str, mu: int) -> tuple[dict[int, int], int]:
    """(Walsh distribution, weight) of f or g for mu, computed once per field.

    The weight is (2^n - W(0)) / 2.  The memo keeps no table or spectrum.
    """
    dist, w0 = walsh_summary(ctx, which, mu)
    return dist, (ctx.q - w0) // 2


# ------------------------------------------------- circle-equation roots ---


def solve_circle_equation(ctx: FieldCtx, a: int) -> tuple:
    """Unit-circle roots of 1 + a*z + conj(a)/z = 0, ascending (empty if none).

    Through the polar form a = a0*a1 (a0 in the subfield, a1 on the circle)
    this reduces to w + 1/w = 1/a0 with z = w/a1, which has two circle roots
    exactly when tr_sub(a0) = 1.  Since a0^2 = a * conj(a) and
    tr_sub(a0) = tr_sub(a0^2), the roots are v/a for the two solutions of
    v^2 + v = a * conj(a), and exist when tr_sub(a * conj(a)) = 1.
    """
    if a == 0:
        raise DivisionByZero("the circle equation needs a != 0")
    norm = ctx.mul(a, ctx.conjugate(a))
    if ctx.tr_sub(norm) != 1:
        return ()
    inv_a = ctx.inv(a)
    roots = tuple(sorted(ctx.mul(v, inv_a) for v in ctx.solve_artin_schreier(norm)))
    for z in roots:
        residual = ctx.mul(a, ctx.sq(z)) ^ z ^ ctx.conjugate(a)
        if residual or not ctx.on_unit_circle(z):
            raise ArithmeticError("circle-equation solver produced a bad root")
    return roots


# ------------------------------------------------------- case formulas -----


def _pair_sums(ctx: FieldCtx, mu: int, t_norm: np.ndarray) -> np.ndarray:
    """Sum of chi(mu' * z) over the circle roots z of 1 + p*z + conj(p)/z = 0, per p.

    mu' = sqrt(mu).  The roots are v/p and (v+1)/p with v^2 + v = p * conj(p)
    (see solve_circle_equation), so the sum is chi(mu'v/p) * (1 + chi(mu'/p))
    where tr_sub(p * conj(p)) = 1 and 0 elsewhere, p = 0 included.
    """
    p = np.arange(ctx.q, dtype=np.int64)
    units, norm_index = ctx.power_classes((1 << ctx.m) - 1)
    v = kernels.linear_map(units[norm_index], ctx.artin_schreier_cols())
    ratio = ctx.quotient([ctx.sqrt(mu)], [p])  # mu'/p
    return np.where(t_norm == 1, ctx.chi(ctx.quotient([ratio, v])) * (1 + ctx.chi(ratio)), 0)


def predicted_spectrum(ctx: FieldCtx, mu: int, which: str) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Walsh values of f or g at every field point, with case labels.

    Returns (values, labels), both indexed by the field point a = 0..q-1.  The
    cases of Theorems 3.2 (f) and 3.4 (g) turn on whether tr(a) = m mod 2,
    on tr_sub(a * conj(a)) (the builders' lam-term) and, off
    the boundary points, on pair sums over circle roots (f) or on
    C(a) = chi(mu*conj(a)/a) - chi(mu*conj(a+1)/(a+1)) (g, read from the
    builders' mu-term).  g's boundary points a = 0, 1 need k_m(mu).  Nothing
    here runs the butterfly, so the values are a second, independent oracle.
    """
    if which not in ("f", "g"):
        raise ValueError("which must be 'f' or 'g'")
    t_norm, t_mu, t_x = _term_tables(ctx, mu)
    m = ctx.m
    a = np.arange(ctx.q)
    match = t_x == (m & 1)
    norm0 = t_norm == 0
    half = 1 << (m - 1)
    if which == "f":
        s = _pair_sums(ctx, mu, t_norm)
        s1 = s[a ^ 1]
        # a = 0, odd m: the pair sum over the roots of 1 + z + 1/z = 0
        # collapses to 2*(-1)^tr_sub(mu), giving the nomatch_tr0 value
        a0 = ("a0_odd", -(1 << m) * (1 - 2 * ctx.tr_sub(mu))) if m % 2 else ("a0_even", -(1 << m))
        cases = [(a0[0], a == 0, a0[1]),
                 ("match_tr0", match & norm0, -(1 << m)),
                 ("nomatch_tr0", norm0 & ~match, -half * s1),
                 ("match_tr1", match, half * (s - s1 + 2)),
                 ("nomatch_tr1", True, half * s)]
    else:
        k = kl.subfield_k_map(ctx)[mu]
        c = 2 * (t_mu[a ^ 1].astype(np.int64) - t_mu)
        cases = [("a0", a == 0, -half * ((1 if m % 2 else 3) + k)),
                 ("a1", a == 1, half * ((1 if m % 2 else -1) + k)),
                 ("match_tr0", match & norm0, half * (c - 2)),
                 ("match_tr1", match, half * (c + 2)),
                 ("nomatch", True, half * c)]
    labels, where, values = zip(*cases)  # the first case that holds wins
    where = np.broadcast_arrays(*where)
    return np.select(where, values), np.select(where, labels, "")


def case_report(ctx: FieldCtx, mu: int, which: str) -> tuple:
    """Compare predicted_spectrum against the brute-force spectrum at every a.

    Returns (per_case, mismatches): label -> (matches, total) in first-seen
    order, and the field points where predicted != brute force.
    """
    values, labels = predicted_spectrum(ctx, mu, which)
    table = (build_f if which == "f" else build_g)(ctx, mu)
    brute = wht_fast(table)[ctx.dual_masks()]
    ok = values == brute
    per_case = {}
    for label in dict.fromkeys(labels.tolist()):
        in_case = labels == label
        per_case[label] = (int(ok[in_case].sum()), int(in_case.sum()))
    return per_case, tuple(np.flatnonzero(~ok).tolist())


# ------------------------------------------------------ count relations ----


def _counts_by_index(dist: dict[int, int], m: int, allowed: tuple) -> dict:
    counts = {i: 0 for i in allowed}
    unit = 1 << m
    for value, count in dist.items():
        if value % unit:
            raise UnexpectedValue(f"spectrum value {value} is not a multiple of 2^m")
        i = value // unit
        if i not in counts:
            raise UnexpectedValue(f"spectrum value {value} outside the theorem set")
        counts[i] = count
    return counts


def count_relations_f(dist: dict[int, int], m: int) -> tuple[dict, dict]:
    """N0 = 3*N2 + 8*N3 and the two companion relations for f's spectrum.

    Returns (counts, relations): i -> N_i (the frequency of i * 2^m) and
    relation name -> bool.
    """
    c = _counts_by_index(dist, m, (-1, 0, 1, 2, 3))
    half, halfm = 1 << (2 * m - 1), 1 << (m - 1)
    rel = {
        "N0": c[0] == 3 * c[2] + 8 * c[3],
        "N1": c[1] == half + halfm - 3 * c[2] - 6 * c[3],
        "N-1": c[-1] == half - halfm - c[2] - 3 * c[3],
    }
    return c, rel


def count_relations_g(dist: dict[int, int], m: int) -> tuple[dict, dict]:
    """N0 = 3*N2 + 3*N-2 and the two companion relations, as count_relations_f."""
    c = _counts_by_index(dist, m, (-2, -1, 0, 1, 2))
    half, halfm = 1 << (2 * m - 1), 1 << (m - 1)
    rel = {
        "N0": c[0] == 3 * c[2] + 3 * c[-2],
        "N1": c[1] == half + halfm - 3 * c[2] - c[-2],
        "N-1": c[-1] == half - halfm - c[2] - 3 * c[-2],
    }
    return c, rel


# -------------------------------------------------------- reference data ---

# Spectrum distributions of f with mu = 1 (value -> frequency), and of g for
# a suitable mu with k_m(mu) = -1.  Regenerated by `walshlab table`.
F_REFERENCE = {
    4: {0: 80, -16: 92, 16: 64, 32: 16, 48: 4},
    5: {0: 310, -32: 386, 32: 258, 64: 50, 96: 20},
    6: {0: 1344, -64: 1548, 64: 856, 128: 288, 192: 60},
}
G_REFERENCE = {
    3: {-16: 4, -8: 12, 0: 24, 8: 20, 16: 4},
    5: {-64: 64, -32: 236, 0: 396, 32: 260, 64: 68},
    7: {-256: 1016, -128: 4072, 0: 6072, 128: 4216, 256: 1008},
}


def mus_with_k(ctx: FieldCtx, target: int) -> list[int]:
    """Subfield elements of ctx whose Kloosterman value equals target."""
    kmap = kl.subfield_k_map(ctx)
    return sorted(mu for mu, k in kmap.items() if mu != 0 and k == target)


# ---------------------------------------------------------- verification ---


def check_record(suite: str, m: int, mu: int | None, name: str, passed,
                 info: bool = False, detail: str = "", **fields) -> dict:
    """One pass/fail check as `verify` reports it; info checks never gate.

    Keyword fields (a diagnostic's numbers) join the record; no suite passes any."""
    return {"suite": suite, "m": m, "mu": format(mu, "#x") if mu is not None else None,
            "name": name, "pass": bool(passed), "info": bool(info), "detail": detail, **fields}


def F_VALUE_SET(m: int) -> set:
    return {0, 1 << m, -(1 << m), 1 << (m + 1), 3 << m}


def G_VALUE_SET(m: int) -> set:
    return {0, 1 << m, -(1 << m), 1 << (m + 1), -(1 << (m + 1))}


def _verify_one(ctx: FieldCtx, which: str, mu: int) -> list[dict]:
    m = ctx.m
    is_f = which == "thm32"
    dist, wt = spectrum_summary(ctx, "f" if is_f else "g", mu)
    out = []

    def add(name, passed, detail, info=False):
        out.append(check_record(which, m, mu, name, passed, info, detail))

    add("value_set", set(dist) <= (F_VALUE_SET if is_f else G_VALUE_SET)(m),
        f"values={list(dist)}")
    nl = nonlinearity(dist)
    if is_f:
        bound = (1 << (2 * m - 1)) - 3 * (1 << (m - 1))
        add("nonlinearity", nl >= bound, f"nl={nl} bound={bound}")
    else:
        want = (1 << (2 * m - 1)) - (1 << m)
        # the exact value needs a +-2^(m+1) in the spectrum; at m = 2 g can be
        # bent ({-4: 6, 4: 10}), so the gate starts at m = 3 like n0_positive
        add("nonlinearity", nl == want, f"nl={nl} want={want}", info=m < 3)
        bal = 2 * wt == ctx.q
        add("balanced_iff_m_odd", bal == bool(m % 2), f"balanced={bal} m={m}")
    try:
        counts, rel = (count_relations_f if is_f else count_relations_g)(dist, m)
        add("count_relations", all(rel.values()), str(rel))
        add("n0_positive", counts[0] > 0 or m < 3, f"N0={counts[0]}")
    except UnexpectedValue as e:  # pragma: no cover - guarded by value_set
        add("count_relations", False, str(e))
    # info only, and only for m <= 5: the published verify output pins both
    if m <= 5:
        per_case, bad = case_report(ctx, mu, "f" if is_f else "g")
        add("case_formula", not bad,
            f"rate={1 - len(bad) / ctx.q:.4f} per_case={per_case}", info=True)
    return out


def verify_theorem(which: str, m: int) -> list[dict]:
    """Run the f (thm32) or g (thm34) spectrum gates as check records.

    thm32 covers every nonzero subfield mu, thm34 every mu with k_m(mu) = -1,
    in ascending mu order.  Per mu: value-set containment, the nonlinearity
    bound (>= for f; exact for g, gated from m = 3), balancedness parity (g),
    the counting relations and N0 > 0.  For m <= 5, case-formula agreement is
    attached as an info check.
    """
    if which not in ("thm32", "thm34"):
        raise ValueError("which must be 'thm32' or 'thm34'")
    ctx = default_ctx(m)
    mus = ctx.subgroup("subfield_units") if which == "thm32" else mus_with_k(ctx, -1)
    return [c for mu in mus for c in _verify_one(ctx, which, mu)]
