"""The mask form of the Q-set argument: Q, Q1 and Q2 built mu by mu.

expsums._q_counts counts the three sets for every mu at once by expanding the
indicator product into characters.  This builds each set as a boolean mask
over the a outside GF(2) with tr(a) = 0, one masked parity per mu condition,
and the tests compare the counts of the two.
"""

import numpy as np

from walshlab import constructions as C
from walshlab import kernels


def q_sets(ctx, inv: np.ndarray):
    """(a, mu -> the masks of Q, Q1 and Q2 over a): a the a outside GF(2) with
    tr(a) = 0, int64 ascending, and three boolean arrays per mu.

    Q: tr(mu/a) = tr(mu/(a+1)) = 1 and tr(a) = 0.  Q1 and Q2 keep one of the
    two mu conditions and split on the subfield trace of the norm a*conj(a):
    Q1 needs tr(mu/a) = 1 and tr_sub(a*conj(a)) = 1, Q2 tr(mu/(a+1)) = 1 and
    tr_sub(a*conj(a)) = 0.  inv is 1/x for every x (0 at x = 0).
    """
    a = 2 + np.flatnonzero(ctx.trace_table()[2:] == 0)
    inv_a, inv_a1 = inv[a], inv[a ^ 1]
    tr_norm = C.norm_trace(ctx)[a] == 1

    def sets(mu: int):
        mask = ctx.dual_mask(mu)
        over_a = kernels.masked_parity(inv_a, mask).view(bool)  # tr(mu/a) = 1
        over_a1 = kernels.masked_parity(inv_a1, mask).view(bool)
        return over_a & over_a1, over_a & tr_norm, over_a1 & ~tr_norm

    return a, sets


def q_counts(ctx, mus) -> list[tuple[int, int, int]]:
    """(|Q|, |Q and Q1|, |Q and Q2|) for each mu of mus, from the masks."""
    sets = q_sets(ctx, ctx.quotient([1], [np.arange(ctx.q, dtype=np.int64)]))[1]
    out = []
    for mu in mus:
        in_q, in_q1, in_q2 = sets(mu)
        out.append((int(in_q.sum()), int((in_q & in_q1).sum()), int((in_q & in_q2).sum())))
    return out
