"""The affine chart a = u + lam v of GF(2^{2m}) over its subfield F = GF(2^m).

lam is find_lambda's, the smallest solution of lam + conj(lam) = 1, and
nu = lam conj(lam) lies in F with tr_sub(nu) = 1.  (u, v) is GF(2)-linear
in a and bijective, and

  tr_rel(a) = v,  tr(a) = tr_sub(v),  N(a) = a conj(a) = u^2 + uv + nu v^2,

so a sum over a of a function of tr_rel and N runs in GF(2^m)'s own tables,
with no table of GF(2^{2m}).  rows is the one reader: it yields the chart
row by row, in batches of 2^CHART_BITS points, with tr(a), the norm class
tr_sub(N(a)) and the line elements l(a) and l(a + 1), and chart_bins bins
the keys a caller makes of them.  expsums' Theorem 3.5 and Q sums and
g_distributions, g's Walsh distribution for every mu, are each one such
pass; constructions' builders fill their term tables on the same chart.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import kloosterman as kl
from .gf2n import FieldCtx, default_field, per_field, subfield_coords


def find_lambda(ctx: FieldCtx) -> int:
    """Smallest solution of lam + conjugate(lam) = 1 (an affine coset)."""
    return ctx.subgroup("affine_E")[0]


# constructions' term tables are filled in chunks of 2^16 field points at
# most, and of a sixteenth of the field from m = 4, so the fill's buffers
# stay small beside the arrays it fills; rows yields batches of 2^16
CHART_BITS = 16


def constants(ctx: FieldCtx) -> tuple[int, int]:
    """(lam, nu) of the chart: find_lambda's lam, nu = lam conj(lam) in GF(2^m)'s coordinates."""
    lam = find_lambda(ctx)
    return lam, int(subfield_coords(ctx)[1](ctx.mul(lam, lam ^ 1)))


# ---------------------------------------------------------------- reader ---


def rows(ctx: FieldCtx):
    """Yield (v, tr(a), tr_sub(N(a)), l(a), l(a + 1)) per batch of chart rows
    for every a = u + lam v outside GF(2): l(x) is tr_rel(x^(2^m-1)) =
    tr_rel(x)^2 / N(x), all in GF(2^m)'s coordinates.  tr_sub(N(a)) and
    l(a + 1) have an entry per point of the batch, and v, tr(a) and l(a)
    broadcast to them (int64 in row 0 and for v and tr, else narrow unsigned
    dtypes).

    The first batch is row v = 0, F itself: a = u for u = 2 .. 2^m - 1 in
    order, with l = 0, tr(a) = 0 and tr_sub(N(a)) = tr_sub(u), one entry per
    point.  A row v != 0 has a column per line coordinate s = u/v, s = 0 ..
    2^m - 1: a = v (s + lam), so N(a) = v^2 D(s) with D(s) = s^2 + s + nu,
    which has no root in F, l(a) = 1/D(s), tr_sub(N(a)) is one masked parity,
    and a + 1 has s + 1/v.  So tr_rel(1/a) = l(a)/v, and a point costs table
    lookups: up to 2^CHART_BITS points a batch, no quotient per point and no
    table of GF(2^2m).
    """
    sub, nu = default_field(ctx.m), constants(ctx)[1]
    narrow = np.min_scalar_type(sub.q - 1)  # the per-point arrays: uint16 within the n cap
    v = np.arange(1, sub.q, dtype=np.int64)[:, None]
    s = np.arange(sub.q, dtype=narrow)
    d = sub.quotient([s, s]) ^ s ^ nu
    ell = sub.quotient([1], [d]).astype(narrow)
    d = d.astype(narrow)
    trace = sub.trace_table().astype(np.int64)
    masks = sub.dual_masks()[sub.quotient([v, v])].astype(narrow)  # tr_sub(v^2 y) per row
    shifts = sub.quotient([1], [v]).astype(narrow)
    zero = np.zeros(sub.q - 2, dtype=np.int64)
    yield zero, zero, trace[2:], zero, zero
    height = min(sub.q, (1 << CHART_BITS) >> ctx.m)
    for first in range(0, sub.q - 1, height):
        part = slice(first, first + height)
        norm_class = np.bitwise_count(d & masks[part])
        norm_class &= 1
        yield v[part], trace[v[part]], norm_class, ell, ell[s ^ shifts[part]]


def chart_bins(batches, size: int, past: str = "a chart key is past the last bin") -> np.ndarray:
    """Histogram over `size` bins, int64, of the int64 keys of every batch.

    Keys are held until there are as many as bins and then binned in one
    bincount, so the bins cost O(size) per flush, not per batch of chart
    points.  ArithmeticError with the text past if a key is size or more.
    """
    bins = np.zeros(size, dtype=np.int64)
    held: list[np.ndarray] = []

    def flush():
        counts = np.bincount(held[0] if len(held) == 1 else np.concatenate(held), minlength=size)
        if counts.size > size:
            raise ArithmeticError(past)
        np.add(bins, counts, out=bins)
        held.clear()

    for keys in batches:
        held.append(keys.ravel())
        if sum(k.size for k in held) >= size:
            flush()
    if held:
        flush()
    return bins


# ---------------------------------------------------------------- g pass ---


def _next_norm_class(m: int, tr: int, norm_class: int) -> int:
    """tr_sub(N(a + 1)) from tr(a) and tr_sub(N(a)): N(a + 1) = N(a) + tr_rel(a) + 1."""
    return norm_class ^ ((tr ^ m) & 1)


@per_field
def g_distributions(ctx: FieldCtx) -> dict[int, tuple[dict[int, int], int]]:
    """mu -> (Walsh distribution, W(0)) of g, for every nonzero subfield mu, in
    one pass over the chart a = u + lam v: no truth table, no butterfly of
    2^n points and no table of GF(2^2m).

    g is tr_sub(N(x)) where tr(x) = 0 and t(x) = tr_sub(mu l(x)) where
    tr(x) = 1, l(x) = tr_rel(x^(2^m-1)) = tr_rel(x)^2 / N(x) (tr(mu y) =
    tr_sub(mu tr_rel(y)) for subfield mu).  As [tr(x) = 0] = (1 + chi(x))/2,
    W(a) = (S(a) + S(a+1))/2 + (T(a) - T(a+1))/2 with S(b) and T(b) the sums
    over all x of (-1)^(tr_sub N(x) + tr(bx)) and (-1)^(t(x) + tr(bx)).
    tr_sub N is a quadratic form with polar form tr(x conj(y)) and N maps
    GF(2^2m)^* (2^m+1)-to-1 onto F^*, so S(b) = -2^m (-1)^(tr_sub N(b)); and
    tr_sub N(a+1) = tr_sub N(a) + tr(a) + m.  t is constant on each line
    z F^* of x = y z (z on the unit circle), whose y-sum of chi(bx) is
    2^m [b z in F] - 1; for b != 0 one z has b z in F, that of 1/b, and
    t(1/b) = t(b), so T(b) = 2^m (-1)^t(b) + a constant.  For a outside GF(2):

      W(a) = 2^(m-1) (b(a) + 2 t(a+1) - 2 t(a)),

    b(a) = -2 or +2 where tr(a) = m mod 2 and tr_sub(N(a)) is 0 or 1, else 0.
    Per class c = (tr(a), tr_sub N(a)), the a with t(a) = e0, t(a+1) = e1
    number 1/4 (|c| +- S_l(a) +- S_l(a+1) +- S_l(a)+l(a+1)), S_y the sum over
    c of chi_sub(mu y): char_sums of histograms of 2^m bins (rows), for
    every mu at once.  l(a+1) over c is l over the class of a+1, c itself
    where tr(a) = m mod 2 and c with tr_sub N flipped elsewhere.  W(0) is
    the sum over tr(x) = 0 of (-1)^(tr_sub N(x)) plus the sum over tr(x) = 1
    of (-1)^t(x), W(1) the first less the second, x = 0 and 1 adding 1 and
    (-1)^m to the first.  ArithmeticError, for any mu, if a class count is
    negative or not a whole count, if the W(a) do not sum to 2^n (g(0) = 0),
    if Parseval fails, or if W(0) or W(1) is not its k_m(mu) form:
    -2^(m-1) (1 + k) and 2^(m-1) (1 + k) for odd m, -2^(m-1) (3 + k) and
    2^(m-1) (k - 1) for even m.
    """
    m, half = ctx.m, 1 << (ctx.m - 1)
    sub, coords = default_field(m), subfield_coords(ctx)[1]
    q = sub.q

    def keys(_, tr, norm_class, ell, ell1):  # (class, l or l(a) + l(a+1), value)
        out = np.empty((2, *ell1.shape), np.int64)
        base, xor = out
        np.multiply(norm_class, 2 * q, out=base, dtype=np.int64)
        base += 4 * q * tr
        np.bitwise_xor(ell, ell1, out=xor)
        xor += base
        xor += q
        base += ell
        return out

    bins = chart_bins((keys(*batch) for batch in rows(ctx)), 8 * q).reshape(2, 2, 2, q)
    mus = ctx.subgroup("subfield_units")
    sums = np.stack([sub.char_sums(h) for h in bins.reshape(8, q)])[:, coords(mus)]
    sums = sums.reshape(2, 2, 2, -1)  # (tr, tr_sub N, l or the XOR, mu)
    sizes = bins[:, :, 0].sum(-1)
    counts = np.zeros((5, len(mus)), dtype=np.int64)  # W = (i - 2) 2^m off a = 0, 1
    for t, c, e0, e1 in itertools.product((0, 1), repeat=4):
        four = (sizes[t, c] + (1 - 2 * e0) * sums[t, c, 0]
                + (1 - 2 * e1) * sums[t, _next_norm_class(m, t, c), 0]
                + (1 - 2 * (e0 ^ e1)) * sums[t, c, 1])
        if (four % 4).any():
            raise ArithmeticError("g pass: a class count is not a whole count")
        if (four < 0).any():
            raise ArithmeticError("g pass: a class count is negative")
        b = 2 * c - 1 if t == m & 1 else 0  # b(a) / 2
        counts[b + e1 - e0 + 2] += four >> 2
    first = 1 + (-1) ** m + sizes[0, 0] - sizes[0, 1]
    second = sums[1, 0, 0] + sums[1, 1, 0]
    w0, w1 = first + second, first - second
    values = (np.arange(5) - 2) << m
    if (values @ counts + w0 + w1 != 1 << ctx.n).any():
        raise ArithmeticError("g pass: the W(a) do not sum to 2^n")
    if (values ** 2 @ counts + w0 ** 2 + w1 ** 2 != 1 << 2 * ctx.n).any():
        raise ArithmeticError("g pass: Parseval fails")
    kmap = kl.subfield_k_map(ctx)
    k = np.array([kmap[mu] for mu in mus], dtype=np.int64)
    odd = m % 2
    if (w0 != -half * ((1 if odd else 3) + k)).any() or (w1 != half * ((1 if odd else -1) + k)).any():
        raise ArithmeticError("g pass: W(0) or W(1) is not its k_m(mu) form")
    out = {}
    for mu, col, z, one in zip(mus, counts.T.tolist(), w0.tolist(), w1.tolist()):
        dist = {v: c for v, c in zip(values.tolist(), col) if c}
        dist[z] = dist.get(z, 0) + 1
        dist[one] = dist.get(one, 0) + 1
        out[mu] = (dict(sorted(dist.items())), z)
    return out
