"""The power-class form of the builders' mu-free term data, read off the
discrete log of the whole field.

constructions._polar_terms fills tr_sub(N(x)) and the line index of every x
from the affine chart x = u + lam v, with tables of 2^m entries.  This reads
the same terms through the exp/log tables of GF(2^{2m}): x^((q-1)/d) is
determined by log(x) mod d, so N(x) = x^(2^m+1) by its class mod 2^m - 1 and
x^(2^m-1) by its class mod 2^m + 1.  The tests compare the two.
"""

import numpy as np

from walshlab import kernels
from walshlab.constructions import find_lambda


def power_classes(ctx, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, index) with x^((q-1)/d) = values[index[x]] for every x, for d | q - 1.

    values is cyclic(d) then a trailing 0; index[x] is log(x) mod d in the
    narrowest unsigned dtype, and d at x = 0.  ValueError unless d | q - 1.
    """
    values = np.append(ctx.cyclic(d), 0)
    _, log = ctx.tables()
    index = np.empty(ctx.q, dtype=np.min_scalar_type(d))
    np.remainder(log, d, out=index, casting="unsafe")
    index[0] = d
    return values, index


def term_tables(ctx, mu: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tr_sub(N(x)), tr(mu * x^(2^m-1)), tr(x)) for every x, uint8, as constructions._term_tables."""
    # N(x) lies in the subfield, so tr(lam * N) = tr_sub(N) when tr_rel(lam) = 1
    units, norm_index = power_classes(ctx, (1 << ctx.m) - 1)
    t_norm = kernels.masked_parity(units, ctx.dual_mask(find_lambda(ctx)))[norm_index]
    circle, circle_index = power_classes(ctx, (1 << ctx.m) + 1)
    t_mu = kernels.masked_parity(circle, ctx.dual_mask(mu))[circle_index]
    return t_norm, t_mu, ctx.trace_table()
