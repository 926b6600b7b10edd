"""The two interleaved trace constructions f and g on GF(2^{2m}) and the
machinery that verifies their spectra.

f(x) = tr(lam * x^(2^m+1)) + tr(x) * tr(mu * x^(2^m-1))
g(x) = (1 + tr(x)) * tr(lam * x^(2^m+1)) + tr(x) * tr(mu * x^(2^m-1))

with tr_rel(lam) = 1 and mu a nonzero subfield element.  x^(2^m+1) lies in
the subfield, so the lam-term is tr_sub(x^(2^m+1)) for every such lam: each
lam gives the same f and g, and find_lambda's value is the one reports print.
Builders evaluate the whole table at once on the affine chart x = u + lam*v
(walshlab.chart), u and v in the subfield F = GF(2^m), which is GF(2)-linear
and bijective.
With nu = lam * conj(lam), which lies in F and has tr_sub(nu) = 1:

  tr(x) = tr_sub(v),
  tr_sub(N(x)) = tr_sub(u (1 + v)) + tr_sub(nu v^2),  N(x) = x^(2^m+1),
  tr(mu x^(2^m-1)) = tr_sub(mu / (t^2 + t + nu)) with t = u/v, and 0 where v = 0.

t^2 + t + nu has no root in F, so the last term is defined on every line
t = u/v (the cosets of F^* in the polar decomposition, 2^m + 1 with the line
F itself).  Each term is therefore a table of O(2^m) entries, computed in
GF(2^m)'s own context and read at the chart coordinates of x: no exp/log or
power table of GF(2^{2m}) is built.  predicted_spectrum gives the closed-form
Walsh value at every point from the same term tables, and the verification
suite plays it against the brute-force spectrum.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import chart
from . import kernels
from . import kloosterman as kl
from .chart import find_lambda  # noqa: F401  (the lam every report prints)
from .gf2n import FieldCtx, default_ctx, default_field, per_field, subfield_coords, xor_columns
from .walsh import distribution, nonlinearity, wht_fast


# ------------------------------------------------------------ builders -----


@per_field
def _polar_terms(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tr_sub(N(x)) as uint8, line index, lines): the mu-free term data of a field.

    tr(mu x^(2^m-1)) = tr(mu * lines[index[x]]) for every x; index, in the
    narrowest unsigned dtype (uint16 up to m = 14), is the line of x through
    the subfield logs of its chart coordinates, log u - log v with sentinels
    for u = 0 and v = 0.  Both arrays are filled chunk by chunk in coordinate
    order; every other table has O(2^m) entries, from GF(2^m)'s own context
    (its exp/log tables, dual masks and orbit).
    """
    m, (lam, nu) = ctx.m, chart.constants(ctx)
    sub = default_field(m)
    units = sub.q - 1
    image, coords = subfield_coords(ctx)
    # the chart: x^i = u_i + lam v_i with v_i = tr_rel(x^i), both in F's coordinates
    v_big = [ctx.tr_rel(x) for x in ctx.frobenius(0)]
    v_cols = coords(v_big).tolist()
    u_cols = coords([x ^ ctx.mul(lam, v) for x, v in zip(ctx.frobenius(0), v_big)]).tolist()

    # tr_sub(N(x)) = tr_sub(u (1 + v)) + tr_sub(nu v^2)
    narrow = np.min_scalar_type(units)
    elements = np.arange(sub.q, dtype=np.int64)
    norm_masks = sub.dual_masks()[elements ^ 1].astype(narrow)
    norm_bits = kernels.masked_parity(sub.quotient([elements, elements]), sub.dual_mask(nu))
    # line index, U = 2^m - 1: log u + (U - 1 - log v) in [0, 2U - 2] reads
    # t = u/v = s^(index + 1) for s F's generator; u = 0 (t = 0) lands in
    # [2U - 1, 3U - 2] and v = 0 (the line F) in [3U - 1, 4U - 2]
    orbit = sub.cyclic(units)
    index_type = np.min_scalar_type(4 * units - 2)
    logs = np.zeros(sub.q, dtype=index_type)
    logs[orbit] = np.arange(units)
    of_u, of_v = logs.copy(), units - 1 - logs
    of_u[0], of_v[0] = 2 * units - 1, 3 * units - 1
    t = np.zeros(4 * units - 1, dtype=np.int64)
    t[:2 * units - 1] = np.concatenate((orbit[1:], orbit))
    # tr(mu x^(2^m-1)) = tr_sub(mu / (t^2 + t + nu)), and 0 on the line F
    y = sub.quotient([1], [sub.quotient([t, t]) ^ t ^ nu])
    y[3 * units - 1:] = 0
    lines = kernels.linear_map(y, [ctx.mul(lam, int(image[1 << i])) for i in range(m)])

    def chart_norm(u, v):  # tr_sub(N(u + lam v))
        return (np.bitwise_count(norm_masks[v] & u) & 1) ^ norm_bits[v]

    # chunks of 2^bits points, x = h + l with l < 2^bits: (u, v) is linear in
    # x, and N's trace a quadratic form with polar form tr(l * conj(h)), so
    # tr_sub(N(x)) = tr_sub(N(l)) + tr_sub(N(h)) + a linear function of l
    bits = min(chart.CHART_BITS, max(m, ctx.n - 4))
    u_low = kernels.linear_table(u_cols[:bits], narrow)
    v_low = kernels.linear_table(v_cols[:bits], narrow)
    norm_low = chart_norm(u_low, v_low).reshape(1 << (bits - bits // 2), -1)
    low = np.arange(max(norm_low.shape), dtype=np.int64)
    u, v, of_u_part = np.empty_like(u_low), np.empty_like(v_low), np.empty(u_low.size, index_type)
    t_norm = np.empty(ctx.q, dtype=np.uint8)
    index = np.empty(ctx.q, dtype=index_type)
    for high in range(ctx.q >> bits):
        part = slice(high << bits, (high + 1) << bits)
        u_high, v_high = xor_columns(u_cols[bits:], high), xor_columns(v_cols[bits:], high)
        # the linear function of l, tr(l * conj(h)), split over l's high and low halves
        polar = ctx.dual_mask(ctx.conjugate(high << bits))
        block = t_norm[part].reshape(norm_low.shape)
        rows = kernels.masked_parity(low[:block.shape[0]] << (bits // 2), polar)
        np.bitwise_xor(norm_low, (rows ^ chart_norm(u_high, v_high))[:, None], out=block)
        block ^= kernels.masked_parity(low[:block.shape[1]], polar)
        np.bitwise_xor(u_low, u_high, out=u)
        np.bitwise_xor(v_low, v_high, out=v)
        np.take(of_u, u, out=of_u_part, mode="clip")
        np.take(of_v, v, out=index[part], mode="clip")
        index[part] += of_u_part
    # x = 0 lies on the line F; its sum 5U - 2 is past the table (and wraps at m = 14)
    index[0] = 3 * units - 1
    return t_norm, index, lines


def _term_tables(ctx: FieldCtx, mu: int):
    """(tr_sub(N(x)), tr(mu * x^(2^m-1)), tr(x)) for every x, uint8, N(x) = x^(2^m+1)."""
    ctx.check_mu(mu)
    t_norm, index, lines = _polar_terms(ctx)
    t_mu = kernels.masked_parity(lines, ctx.dual_mask(mu))[index]
    return t_norm, t_mu, ctx.trace_table()


def build_f(ctx: FieldCtx, mu: int) -> np.ndarray:
    """Truth table of f over the whole field (f(0) = 0), uint8."""
    t_norm, t_mu, t_x = _term_tables(ctx, mu)
    t_mu &= t_x  # t_mu is this call's own array
    t_mu ^= t_norm
    return t_mu


def build_g(ctx: FieldCtx, mu: int) -> np.ndarray:
    """Truth table of g, uint8: the lam-part where tr(x) = 0, the mu-part elsewhere."""
    t_norm, t_mu, t_x = _term_tables(ctx, mu)
    t_mu ^= t_norm  # t_norm ^ t_x (t_norm ^ t_mu), in place
    t_mu &= t_x
    t_mu ^= t_norm
    return t_mu


# -------------------------------------------------------------- degree -----


@functools.cache
def _degree_terms(m: int, which: str) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(2-weight, constant bit, conjugates j) per exponent of f's or g's
    univariate form whose coefficient can be nonzero, highest weight first.

    With Q = sum over i < m of x^((2^m+1) 2^i) (tr_sub(N(x))), T = sum over
    i < 2m of x^(2^i) (tr(x)) and H = sum over j < 2m of mu^(2^j) x^((2^m-1) 2^j)
    (tr(mu x^(2^m-1))), f = Q + T H and g = Q + T Q + T H.  Exponents add as
    integers, less 2^n - 1 past it (x^(2^n-1) is not x^0 as a function).  The
    coefficient is the constant bit plus the mu^(2^j) of the listed j < m: mu
    lies in the subfield, so mu^(2^j) = mu^(2^(j mod m)), and equal terms cancel.
    """
    n, top = 2 * m, (1 << 2 * m) - 1
    coeffs: dict[int, tuple[int, int]] = {}  # exponent -> (constant bit, mask of j)

    def add(e, const, mask):
        c, k = coeffs.get(e, (0, 0))
        coeffs[e] = (c ^ const, k ^ mask)

    q = [(((1 << m) + 1) << i, 1, 0) for i in range(m)]
    h = [(((1 << m) - 1 << j) % top, 0, 1 << (j % m)) for j in range(n)]
    for term in q:
        add(*term)
    for t in (1 << i for i in range(n)):  # T times H, and times Q for g
        for e, const, mask in h + q if which == "g" else h:
            e += t
            add(e - top if e > top else e, const, mask)
    return tuple(sorted(((e.bit_count(), c, tuple(j for j in range(m) if k >> j & 1))
                         for e, (c, k) in coeffs.items() if c or k), reverse=True))


def degree(ctx: FieldCtx, which: str, mu: int) -> int:
    """Algebraic degree of f or g for mu, -1 for the zero function: the largest
    2-weight of an exponent with a nonzero coefficient in the univariate form
    (Carlet, Boolean Functions for Cryptography and Coding Theory, ch. 2).
    No truth table: _degree_terms per m and construction, then mu's conjugates.
    """
    if which not in ("f", "g"):
        raise ValueError("which must be 'f' or 'g'")
    ctx.check_mu(mu)
    conj = [mu]
    for _ in range(ctx.m - 1):
        conj.append(ctx.sq(conj[-1]))
    for weight, const, js in _degree_terms(ctx.m, which):
        c = const
        for j in js:
            c ^= conj[j]
        if c:
            return weight
    return -1


# ---------------------------------------------------------- line count ---

# f's distribution comes from the line count from this m on.  Per mu the count
# is faster than the butterfly from m = 2; m <= 3 keeps the butterfly, which
# the benchmark's small runs at m = 3 measure
LINE_COUNT_FROM_M = 4

# circle-point pairs per bincount of _line_bins, which the line count and the
# all-mu pass read: 4 int64 bins a pair, so about 256 KB of bins at a time
LINE_CHUNK = 1 << 13


@per_field
def _circle_lines(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z_k^-2, log r_k, log(1 + r_k)) for the circle points z_k = h^k, k <= 2^m,
    h = g^(2^m-1): the mu-free data of _line_bins and its two consumers.

    r_k = tr_rel(z_k) = z_k + 1/z_k lies in the subfield; the logs, int64, are
    to the base s = g^(2^m+1) and mod 2^m - 1, read by searchsorted in the
    sorted orbit of s.  r_0 = 0 gets the log -(2^m - 1) and a zero 1 + r_k
    (z_k a cube root of unity, odd m) the log 2^(m+1) - 3, so that a pair
    with either lands in a bin that is not a log.
    """
    units, circle = (1 << ctx.m) - 1, (1 << ctx.m) + 1
    z = ctx.cyclic(circle)
    k = np.arange(circle)
    r = z ^ z[-k % circle]  # 1/z_k = z_-k
    sub = ctx.cyclic(units)
    order = np.argsort(sub)
    sorted_sub = sub[order]

    def log(x, zero_log):
        return np.where(x == 0, zero_log, order[np.searchsorted(sorted_sub, x)])

    return z[-2 * k % circle], log(r, -units), log(r ^ 1, 2 * units - 1)


def _line_bins(ctx: FieldCtx, shifted: np.ndarray, weights=()):
    """The reader of the polar lines: yields (multiplicity, counts, *sums) per
    chunk of lines j <= 2^(m-1), counts and sums int64 with a row per row of
    shifted and a column per a = y z_j of the chunk.

    A row of shifted is log c_k + 2^m - 1, k <= 2^m, in _circle_lines' logs
    (3(2^m - 1) - 1 for c_k = 0).  As tr_rel(y z_j z_k) = y r_(j+k), counts
    holds the number of k with tr_rel(a z_k) = c_k, log y = log c_k - log r_(j+k)
    mod 2^m - 1, and a sum the integer weight of those k (exact below 2^53):
    one bincount per weight and chunk over the windows r_(j..j+2^m).  A line
    has 4(2^m - 1) bins a row: the differences fold onto log y from the first
    two quarters, a pair with a zero r or c lands in the third, and one with
    both (c_-j = 0, which holds on the whole line) in the last bin.

    Line -j is not read: with k -> -k and r_-i = r_i, its counts at y are
    #{k : y r_(j+k) = c_-k}, line j's exactly when every row and weight is
    symmetric, c_-k = c_k.  So line 0 comes alone with multiplicity 1 and the
    other lines with 2.  ArithmeticError, before any line is read, if log r,
    a row of shifted or a weight is not symmetric under k -> -k.
    """
    log_r = _circle_lines(ctx)[1]
    units, circle = (1 << ctx.m) - 1, log_r.size
    neg = -np.arange(circle) % circle
    for what, rows in (("log r", [log_r]), ("a row of c", shifted), ("a weight", weights)):
        if any((row[neg] != row).any() for row in rows):
            raise ArithmeticError(f"line reader: {what} is not symmetric under k -> -k")
    half = (circle + 1) // 2  # lines 0..2^(m-1)
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((log_r, log_r[:half - 1])), circle)
    rows, width = len(shifted), 4 * units
    lines = max(1, LINE_CHUNK // (rows * circle))
    tiled = [np.tile(w, rows * lines).astype(np.float64) for w in weights]

    def fold(per_bin):  # a line's bins onto log y, as (row, line and log y)
        per_bin = per_bin.reshape(-1, width)
        out = per_bin[:, :units] + per_bin[:, units:2 * units]
        out += per_bin[:, -1:]
        return out.reshape(rows, -1)

    for j in [0, *range(1, half, lines)]:
        win = windows[j:j + lines] if j else windows[:1]
        offsets = np.arange(rows * len(win)).reshape(rows, -1, 1) * width
        bins = shifted[:, None] - win
        bins += offsets
        flat, n_bins = bins.ravel(), offsets.size * width
        yield 2 if j else 1, fold(np.bincount(flat, minlength=n_bins)), *(
            fold(np.bincount(flat, t[:flat.size], n_bins)).astype(np.int64) for t in tiled)


def _summaries(ctx: FieldCtx, n_counts: np.ndarray, n0, what: str) -> list:
    """(Walsh distribution, W(0)) of f, ascending by value, per column i of
    n_counts: n_counts[v, i] a != 0 have N(a) = v, which takes N(0) = n0[i] in
    place; W(a) = 2^m (N(a) - 1).  ArithmeticError, naming what, if a count is
    negative, or the coset sum of N is not (2^m + 1) 2^m or Parseval fails.
    """
    m, n0 = ctx.m, np.asarray(n0)
    n_counts[n0, np.arange(n0.size)] += 1
    v = np.arange(len(n_counts))[:, None]
    if (n_counts < 0).any():
        raise ArithmeticError(f"{what}: a count is negative")
    if ((v * n_counts).sum(0) != ((1 << m) + 1) << m).any():
        raise ArithmeticError(f"{what}: the coset sum fails")
    if (((v - 1) ** 2 * n_counts).sum(0) != ctx.q).any():
        raise ArithmeticError(f"{what}: Parseval fails")
    return [({(i - 1) << m: c for i, c in enumerate(col) if c}, (z - 1) << m)
            for col, z in zip(n_counts.T.tolist(), n0.tolist())]


def f_line_distribution(ctx: FieldCtx, mu: int) -> tuple[dict[int, int], int]:
    """(Walsh distribution, W(0)) of f for mu by counting the polar lines: no
    truth table, no exp/log table and no 2^n array.

    On the line z_k * F, f(y z_k) = tr_sub(y c_k) with c_k = 1 + tr(mu z_k^-2) r_k,
    so W_f(a) = 2^m (N(a) - 1), N(a) the number of k with tr_rel(a z_k) = c_k:
    one row of _line_bins, checked by _summaries.  N(0) counts the k with c_k = 0.
    """
    ctx.check_mu(mu)
    units, circle = (1 << ctx.m) - 1, (1 << ctx.m) + 1
    zinv2, _, log_r1 = _circle_lines(ctx)
    # log c_k + 2^m - 1: c_k = 1 where tr(mu z_k^-2) = 0, else 1 + r_k
    shifted = np.where(kernels.masked_parity(zinv2, ctx.dual_mask(mu)) == 1, log_r1, 0)
    shifted += units
    n_counts = np.zeros(circle + 1, dtype=np.int64)  # a -> N(a), histogram over a != 0
    for mult, n in _line_bins(ctx, shifted[None]):
        n_counts += mult * np.bincount(n.ravel(), minlength=circle + 1)
    n0 = np.count_nonzero(shifted == 3 * units - 1)  # c_k = 0
    return _summaries(ctx, n_counts[:, None], [n0], "line count")[0]


@functools.cache
def _root_type_weights() -> np.ndarray:
    """16 [N = v] in characters of the root bits, per root class: int64 (16, 5).

    A class is a root type, |R1| and |R2| each 0 or 2, with the sizes s1 and s2
    of a subset S of R1 and of R2; its row is 0 for type (0, 0), 1 + s1 for
    (2, 0), 4 + s2 for (0, 2) and 7 + 3 s1 + s2 for (2, 2).  Column v holds
    2^(4 - |R1| - |R2|) times the sum over the root bits t_k of
    [N = v] (-1)^(sum over S of t_k), N = |R1| - sum over R1 of t_k + sum over R2 of t_k.
    """
    weights = np.zeros((16, 5), dtype=np.int64)
    for d1, d2 in itertools.product((0, 2), repeat=2):
        for bits in itertools.product((0, 1), repeat=d1 + d2):
            v = d1 - sum(bits[:d1]) + sum(bits[d1:])
            for s1, s2 in itertools.product(range(d1 + 1), range(d2 + 1)):
                row = (7 + 3 * s1 + s2 if d2 else 1 + s1) if d1 else (4 + s2 if d2 else 0)
                sign = -1 if (sum(bits[:s1]) + sum(bits[d1:d1 + s2])) & 1 else 1
                weights[row, v] += sign << (4 - d1 - d2)
    return weights


@per_field
def f_distributions(ctx: FieldCtx) -> dict[int, tuple[dict[int, int], int]]:
    """mu -> (Walsh distribution, W(0)) of f, for every nonzero subfield mu, in
    one pass over the polar lines: no truth table and no exp/log table.

    f_line_distribution's N(a) counts the k with tr_rel(a z_k) = c_k, and c_k
    is 1 or 1 + r_k as t_k = tr(mu z_k^-2) is 0 or 1.  So with the root sets
    R1(a) = {k : tr_rel(a z_k) = 1} and R2(a) = {k : tr_rel(a z_k) = 1 + r_k},
    the circle roots of a z^2 + z + conj(a) and of its shift by 1,
    N_mu(a) = sum over R1 of (1 - t_k) + sum over R2 of t_k, and
    t_k = tr_sub(mu w_k) with w_k = r_(-2k) (w_0 = 0; k = 0 lies in both sets).
    R1 and R2 are the two rows c = 1 and c = 1 + r_k of _line_bins, at odd m
    the k = -j with r_(-j) = 1 in R2 of every a on line j; each pair is read
    from its sums of w and w^2.  [N_mu(a) = v] in characters of mu is a sum of
    chi(mu w_S) over the subsets S of R1 and R2 (_root_type_weights), so the
    subset XORs w_S, binned by class in GF(2^m)'s own coordinates, give every
    mu's frequency of v in one char_sums.  N(0) counts the k with r_k = 1 and
    t_k = 1.  ArithmeticError if an a has |R1| or |R2| outside {0, 2} or a
    transformed sum is not 2^4 times a count; _summaries checks the counts.
    """
    m = ctx.m
    units, circle = (1 << m) - 1, (1 << m) + 1
    zinv2, _, log_r1 = _circle_lines(ctx)
    sub, coords = default_field(m), subfield_coords(ctx)[1]
    k = np.arange(circle)
    w = coords(zinv2 ^ zinv2[-k % circle])  # r_(-2k) = z_k^-2 + z_k^2
    shifted = np.stack((np.full(circle, units), log_r1 + units))  # log c + 2^m - 1
    # w and w^2 in one weight: over at most two roots they sum below 2^(m+1) and 2^(2m+1)
    packed = (w * w << (m + 1)) + w
    # class << m of the subsets {}, {a}, {b}, {a, b} of a root pair (|S| = 0, 1, 1, 2):
    # of R1 in type (2, 0), of R2 in type (0, 2), and of both in type (2, 2)
    size = np.array([0, 1, 1, 2])
    c20, c02 = (1 + size[:, None]) << m, (4 + size[:, None]) << m
    c22 = (7 + 3 * size[:, None, None] + size[:, None]) << m
    classes = np.zeros(16 << m, dtype=np.int64)  # (class, w_S) over the a != 0

    def binned(parts):
        return np.bincount(np.concatenate([p.ravel() for p in parts]), minlength=classes.size)

    parts = []
    for mult, count, sums in _line_bins(ctx, shifted, (packed,)):
        if ((count != 0) & (count != 2)).any():
            raise ArithmeticError("all-mu pass: a root set has a size outside {0, 2}")
        # each pair {wa, wb} from wa + wb and wa^2 + wb^2
        s1, s2 = sums & ((2 << m) - 1), sums >> (m + 1)
        wa = (s1 + np.rint(np.sqrt(2 * s2 - s1 * s1)).astype(np.int64)) >> 1
        r1, r2 = np.stack((np.zeros_like(wa), wa, s1 - wa, (s1 - wa) ^ wa), axis=1)  # (S, a) a set
        has1, has2 = count == 2
        both = has1 & has2
        classes[0] += mult * (count.shape[1] - np.count_nonzero(has1 | has2))  # type (0, 0): w_S = 0
        parts += [c20 + r1.compress(has1 & ~has2, axis=1),
                  c02 + r2.compress(has2 & ~has1, axis=1),
                  c22 + (r1.compress(both, axis=1)[:, None] ^ r2.compress(both, axis=1))]
        # line 0 (multiplicity 1) is binned alone; a bincount as large as its bins
        if mult == 1 or sum(p.size for p in parts) >= classes.size:
            classes += mult * binned(parts)
            parts = []
    if parts:
        classes += mult * binned(parts)
    # 16 #{a != 0 : N_mu(a) = v} at every mu of GF(2^m), one transform per v
    sums = np.stack([sub.char_sums(h)
                     for h in _root_type_weights().T @ classes.reshape(16, -1)])
    if (sums % 16).any():
        raise ArithmeticError("all-mu pass: a transformed sum is not divisible by 2^4")
    mus = ctx.subgroup("subfield_units")
    at = coords(mus)
    n0 = np.zeros(len(mus), dtype=np.int64)  # N(0): the k with r_k = 1 and t_k = 1
    for i in np.flatnonzero(log_r1 == 2 * units - 1):
        n0 += (1 - sub.chi(at, int(w[i]))) >> 1
    return dict(zip(mus, _summaries(ctx, sums[:, at] >> 4, n0, "all-mu pass")))


def walsh_summary(ctx: FieldCtx, which: str, mu: int, all_mu: bool) -> tuple[dict[int, int], int]:
    """(Walsh distribution, W(0)) of f or g for mu: the one choice of how.

    g comes from its all-mu pass at every m, for one mu as for all.  f from
    m = LINE_COUNT_FROM_M comes from the polar lines: from the all-mu pass
    when the caller asks for more than one mu (all_mu), else from the line
    count of mu alone.  Only f below it goes by the butterfly of its truth
    table, memoised per field and mu whatever all_mu says.  The library
    functions are looked up at call time, so wrappers installed on this
    module see every call.  A mu the passes do not list (zero, or outside
    the subfield) raises check_mu's error, as the per-mu routes do.
    """
    if which not in ("f", "g"):
        raise ValueError("which must be 'f' or 'g'")
    if which == "f" and ctx.m < LINE_COUNT_FROM_M:
        return _f_butterfly(ctx, mu)
    if which == "f" and not all_mu:
        return f_line_distribution(ctx, mu)
    every = chart.g_distributions(ctx) if which == "g" else f_distributions(ctx)
    if mu not in every:
        ctx.check_mu(mu)
    return every[mu]


@per_field
def _f_butterfly(ctx: FieldCtx, mu: int) -> tuple[dict[int, int], int]:
    spectrum = wht_fast(build_f(ctx, mu))
    return distribution(spectrum), int(spectrum[0])


# ------------------------------------------------------- case formulas -----


def _pair_sums(ctx: FieldCtx, mu: int, t_norm: np.ndarray) -> np.ndarray:
    """Sum of chi(mu' * z) over the circle roots z of 1 + p*z + conj(p)/z = 0, per p.

    mu' = sqrt(mu).  The roots are v/p and (v+1)/p with v^2 + v = N(p) = p * conj(p);
    they lie on the circle exactly where tr_sub(N(p)) = 1 (Lemma 3.1 through
    the polar form of p), so the sum is chi(mu'v/p) * (1 + chi(mu'/p)) there
    and 0 elsewhere, p = 0 included.
    """
    p = np.arange(ctx.q, dtype=np.int64)
    norm = ctx.quotient([p, kernels.linear_map(p, ctx.frobenius(ctx.m))])
    v = kernels.linear_map(norm, ctx.artin_schreier_cols())
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
                 info: bool = False, detail: str = "") -> dict:
    """One pass/fail check as `verify` reports it; info checks never gate."""
    return {"suite": suite, "m": m, "mu": format(mu, "#x") if mu is not None else None,
            "name": name, "pass": bool(passed), "info": bool(info), "detail": detail}


# theorem -> (construction, its mus, the indices i of its value set {i 2^m}, the
# relations of the frequencies N_i of i 2^m given 2^(2m-1) and 2^(m-1)):
# Theorem 3.2 for f at every mu, Theorem 3.4 for g at the mu with k_m(mu) = -1
THEOREMS = {
    "thm32": ("f", lambda ctx: ctx.subgroup("subfield_units"), (-1, 0, 1, 2, 3),
              lambda c, half, halfm: {"N0": c[0] == 3 * c[2] + 8 * c[3],
                                      "N1": c[1] == half + halfm - 3 * c[2] - 6 * c[3],
                                      "N-1": c[-1] == half - halfm - c[2] - 3 * c[3]}),
    "thm34": ("g", lambda ctx: mus_with_k(ctx, -1), (-2, -1, 0, 1, 2),
              lambda c, half, halfm: {"N0": c[0] == 3 * c[2] + 3 * c[-2],
                                      "N1": c[1] == half + halfm - 3 * c[2] - c[-2],
                                      "N-1": c[-1] == half - halfm - c[2] - 3 * c[-2]}),
}


def count_gate(which: str, dist: dict[int, int], m: int) -> tuple[bool, bool, str, int]:
    """The count gate of theorem which on a distribution of its construction:
    (relations hold, N0 > 0, detail, N0), N_i the frequency of i * 2^m.

    The detail is the relations dict, or the first value outside the theorem
    set, which fails both.  N0 > 0 is claimed from m = 3 (g can be bent at m = 2).
    """
    _, _, indices, relations = THEOREMS[which]
    index = {i << m: i for i in indices}
    outside = [v for v in dist if v not in index]
    if outside:
        return False, False, f"spectrum value {outside[0]} outside the theorem set", dist.get(0, 0)
    c = {i: dist.get(v, 0) for v, i in index.items()}
    rel = relations(c, 1 << (2 * m - 1), 1 << (m - 1))
    return all(rel.values()), c[0] > 0 or m < 3, str(rel), c[0]


def _verify_one(ctx: FieldCtx, which: str, mu: int) -> list[dict]:
    m = ctx.m
    construction, _, indices, _ = THEOREMS[which]
    dist, w0 = walsh_summary(ctx, construction, mu, True)
    out = []

    def add(name, passed, detail, info=False):
        out.append(check_record(which, m, mu, name, passed, info, detail))

    add("value_set", set(dist) <= {i << m for i in indices}, f"values={list(dist)}")
    nl = nonlinearity(dist)
    if construction == "f":
        bound = (1 << (2 * m - 1)) - 3 * (1 << (m - 1))
        add("nonlinearity", nl >= bound, f"nl={nl} bound={bound}")
    else:
        want = (1 << (2 * m - 1)) - (1 << m)
        # the exact value needs a +-2^(m+1) in the spectrum; at m = 2 g can be
        # bent ({-4: 6, 4: 10}), so the gate starts at m = 3 like n0_positive
        add("nonlinearity", nl == want, f"nl={nl} want={want}", info=m < 3)
        bal = w0 == 0
        add("balanced_iff_m_odd", bal == bool(m % 2), f"balanced={bal} m={m}")
    relations_ok, n0_ok, detail, n0 = count_gate(which, dist, m)
    add("count_relations", relations_ok, detail)
    add("n0_positive", n0_ok, f"N0={n0}")
    # info only, and only for m <= 5: the published verify output pins both
    if m <= 5:
        per_case, bad = case_report(ctx, mu, construction)
        add("case_formula", not bad,
            f"rate={1 - len(bad) / ctx.q:.4f} per_case={per_case}", info=True)
    return out


def verify_theorem(which: str, m: int) -> list[dict]:
    """Run the f (thm32) or g (thm34) spectrum gates as check records.

    thm32 covers every nonzero subfield mu, thm34 every mu with k_m(mu) = -1,
    in ascending mu order.  Per mu: value-set containment, the nonlinearity
    bound (>= for f; exact for g, gated from m = 3), balancedness parity (g),
    and count_gate's counting relations and N0 > 0.  For m <= 5, case-formula
    agreement is attached as an info check.
    """
    if which not in THEOREMS:
        raise ValueError("which must be 'thm32' or 'thm34'")
    ctx = default_ctx(m)
    return [c for mu in THEOREMS[which][1](ctx) for c in _verify_one(ctx, which, mu)]
