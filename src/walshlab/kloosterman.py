"""Binary Kloosterman sums.

kloosterman_sum evaluates the defining character sum over any constructed
field.  scan(m) computes k_m(lambda) for all lambda of the default GF(2^m) at
once by transforming the truth table of x -> tr(1/x) (one length-2^m
butterfly instead of 4^m work).  Lifted sums over
GF(2^(ms)) come both from direct summation in the big field and from the
integer three-term recurrence, which the verification suite plays against
each other.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .gf2n import (
    FieldCtx,
    FieldError,
    TooLarge,
    default_embedding,
    default_field,
    per_field,
    subfield_coords,
    xor_columns,
)

# peak RSS above the interpreter's, measured in a subprocess: scan's 49.1
# bytes per point at m = 20 and 50.3 at m = 22, kloosterman_sum's 56.4 and
# 56.1, so 66 and 72 leave headroom; neither outgrows RAM
SCAN_BYTES_PER_POINT = 66
SUM_BYTES_PER_POINT = 72
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(what: str, bytes_per_point: int, k: int) -> None:
    """TooLarge when what, at bytes_per_point over 2^k points, needs more than the RAM."""
    if (need := bytes_per_point << k) > PHYSICAL_MEMORY:
        raise TooLarge(f"{what} needs about {need >> 20} MiB, more than this machine has")


def kloosterman_sum(ctx: FieldCtx, a: int, b: int = 1) -> int:
    """k(a, b) = sum over nonzero x of (-1)^tr(a*x + b/x), over ctx's field.

    a = b = 0 returns 2^k - 1 (every term is +1).  TooLarge before any array
    or table is built when the estimated peak exceeds the physical memory.
    """
    for x in (a, b):
        if not 0 <= x < ctx.q:
            raise FieldError(f"{x:#x} is not an element of GF(2^{ctx.n})")
    _check_memory(f"the sum over GF(2^{ctx.n})", SUM_BYTES_PER_POINT, ctx.n)
    xs = np.arange(1, ctx.q, dtype=np.int64)
    return int(ctx.chi(ctx.quotient([a, xs]) ^ ctx.quotient([b], [xs])).sum())


def scan(m: int) -> np.ndarray:
    """k_m(lambda) = k(lambda, 1) over the default GF(2^m), int64, indexed by lambda.

    One butterfly: the character sums of chi(1/x) over every x (1/0 = 0) are
    1 + k.  TooLarge before any table is built when the estimated peak
    exceeds the machine's physical memory.
    """
    _check_memory(f"the k_{m} scan", SCAN_BYTES_PER_POINT, m)
    ctx = default_field(m)
    return ctx.char_sums(ctx.chi(ctx.quotient([1], [np.arange(ctx.q, dtype=np.int64)]))) - 1


def lachaud_wolfmann_set(m: int) -> tuple:
    """All integers s = -1 (mod 4) with s^2 <= 2^(m+2), ascending."""
    bound = math.isqrt(1 << (m + 2))
    return tuple(s for s in range(-bound, bound + 1) if s % 4 == 3)


def find_mu(m: int, target: int) -> list[int]:
    """All nonzero lambda in GF(2^m) with k_m(lambda) = target, ascending."""
    return (np.flatnonzero(scan(m)[1:] == target) + 1).tolist()


def unit_circle_sum(ctx: FieldCtx, mu: int) -> int:
    """sum over the unit circle of (-1)^tr_sub(mu * (z + 1/z)).

    Contract: equals -k_m(mu') for the corresponding subfield element mu'.
    """
    ctx.check_mu(mu)
    # tr_sub(mu * (z + z^-1)) = tr_abs(mu * z) for z on the circle
    return int(ctx.chi(ctx.cyclic((1 << ctx.m) + 1), mu).sum())


@per_field
def subfield_k_map(ctx: FieldCtx) -> dict[int, int]:
    """k_m over ctx's subfield: element of the subfield -> Kloosterman value."""
    return dict(zip(subfield_coords(ctx)[0].tolist(), scan(ctx.m).tolist()))


def kloosterman_lifted_direct(m: int, s: int, a: int) -> int:
    """k_m^(s)(a) by direct summation over GF(2^(ms)), a given in GF(2^m)."""
    return kloosterman_sum(default_field(m * s), xor_columns(default_embedding(m, m * s), a), 1)


def kloosterman_recursive(m: int, s: int, k1_values) -> np.ndarray:
    """Lifted sums from the base scan by the integer three-term recurrence.

    k^(s) = -k^(s-1) * k^(1) - 2^m * k^(s-2), seeded with k^(0) = -2 and
    k^(1) = the supplied base values.  Pure integer arithmetic.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    k1 = np.atleast_1d(np.asarray(k1_values, dtype=np.int64))
    prev = np.full_like(k1, -2)  # k^(0)
    cur = k1.copy()
    for _ in range(s - 1):
        prev, cur = cur, -cur * k1 - (1 << m) * prev
    return cur
