"""The GF(2^2m) forms of the exponential sums, as oracles for expsums' chart pass.

expsums sums Theorem 3.5's ratio sum, S1, S2, k_n and the Q counts over the
chart a = u + lam v with GF(2^m) arithmetic alone.  These read the same sums
in GF(2^2m): from one 1/x array of the big field, the big field's char_sums
read at the subfield mu, and the Q sets built as boolean masks mu by mu (one
masked parity per mu condition).  The tests compare the two.
"""

import numpy as np

from walshlab import kernels
from walshlab.constructions import find_lambda


def inverses(ctx) -> np.ndarray:
    """1/x for every x of GF(2^2m), int64, 0 at x = 0."""
    return ctx.quotient([1], [np.arange(ctx.q, dtype=np.int64)])


def _norm_classes(ctx, a: np.ndarray) -> np.ndarray:
    """tr_sub(a * conj(a)) for each a, uint8: tr_sub(y) = tr(lam y) for subfield y."""
    norm = ctx.quotient([a, kernels.linear_map(a, ctx.frobenius(ctx.m))])
    return kernels.masked_parity(norm, ctx.dual_mask(find_lambda(ctx)))


def ratio_sums(ctx) -> np.ndarray:
    """Theorem 3.5's lhs, the sum over a outside GF(2) of chi(mu (conj(a)+a)/(a^2+a)),
    int64, indexed by every mu of GF(2^2m)."""
    a = np.arange(2, ctx.q, dtype=np.int64)
    y = ctx.quotient([a ^ kernels.linear_map(a, ctx.frobenius(ctx.m))], [a, a ^ 1])
    return ctx.char_sums(np.bincount(y, minlength=ctx.q))


def s_sums(ctx, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S1, S2): the sums over a outside GF(2) of chi(mu/(a^2+a)) and chi(a + mu/(a^2+a)),
    int64, indexed by mu; inv is inverses(ctx), and 1/(a^2+a) = 1/a + 1/(a+1)."""
    # a and a + 1 share 1/(a^2+a) and tr(a) (n is even): one entry per pair, counted twice
    inner = inv[2::2] ^ inv[3::2]
    hist = 2 * np.bincount(inner, minlength=ctx.q)
    odd_hist = 2 * np.bincount(inner[ctx.trace_table()[2::2] == 1], minlength=ctx.q)
    return ctx.char_sums(hist), ctx.char_sums(hist - 2 * odd_hist)


def k_values(ctx, inv: np.ndarray) -> np.ndarray:
    """k(mu, 1) over GF(2^2m) for every mu, int64: char_sums of chi(1/x), minus 1."""
    return ctx.char_sums(ctx.chi(inv)) - 1


def expanded_q_counts(ctx, inv: np.ndarray) -> list[np.ndarray]:
    """[|Q|, |Q and Q1|, |Q and Q2|] over the nonzero subfield mu, ascending, int64,
    by the indicator expansion 4|Q on A| = |A| + char_sums(h(1/(a^2+a)) - h(1/a)
    - h(1/(a+1)))[mu] over the big field, h a histogram over A.  ArithmeticError
    when a count is not a multiple of 4."""
    a = 2 + np.flatnonzero(ctx.trace_table()[2:] == 0)
    inv_a, inv_a1, tr_norm = inv[a], inv[a ^ 1], _norm_classes(ctx, a)

    def count(keep: np.ndarray) -> np.ndarray:
        def h(x):
            return np.bincount(x[keep], minlength=ctx.q)

        fours = int(keep.sum()) + ctx.char_sums(h(inv_a ^ inv_a1) - h(inv_a) - h(inv_a1))
        if np.any(fours % 4):
            raise ArithmeticError("an expanded Q count is not a multiple of 4")
        return fours[ctx.subgroup("subfield_units")] // 4

    return [count(keep) for keep in (np.ones(a.size, dtype=bool), tr_norm == 1, tr_norm == 0)]


def q_sets(ctx, inv: np.ndarray):
    """(a, mu -> the masks of Q, Q1 and Q2 over a): a the a outside GF(2) with
    tr(a) = 0, int64 ascending, and three boolean arrays per mu.

    Q: tr(mu/a) = tr(mu/(a+1)) = 1 and tr(a) = 0.  Q1 and Q2 keep one of the
    two mu conditions and split on the subfield trace of the norm a*conj(a):
    Q1 needs tr(mu/a) = 1 and tr_sub(a*conj(a)) = 1, Q2 tr(mu/(a+1)) = 1 and
    tr_sub(a*conj(a)) = 0.  inv is inverses(ctx).
    """
    a = 2 + np.flatnonzero(ctx.trace_table()[2:] == 0)
    inv_a, inv_a1 = inv[a], inv[a ^ 1]
    tr_norm = _norm_classes(ctx, a) == 1

    def sets(mu: int):
        mask = ctx.dual_mask(mu)
        over_a = kernels.masked_parity(inv_a, mask).view(bool)  # tr(mu/a) = 1
        over_a1 = kernels.masked_parity(inv_a1, mask).view(bool)
        return over_a & over_a1, over_a & tr_norm, over_a1 & ~tr_norm

    return a, sets


def q_counts(ctx, mus) -> list[tuple[int, int, int]]:
    """(|Q|, |Q and Q1|, |Q and Q2|) for each mu of mus, from the masks."""
    sets = q_sets(ctx, inverses(ctx))[1]
    out = []
    for mu in mus:
        in_q, in_q1, in_q2 = sets(mu)
        out.append((int(in_q.sum()), int((in_q & in_q1).sum()), int((in_q & in_q2).sum())))
    return out
