"""Naive oracles for truth tables and Walsh spectra, by the definitions.

The library builds its tables from the affine chart and its spectra by the
butterfly, indexed by dual-basis mask.  These evaluate the same objects one
field element at a time through FieldCtx's scalar arithmetic, or, for a whole
spectrum, as one character matrix from FieldCtx.quotient and the trace mask,
for the tests to compare against.  Nothing here reads dual_mask or
dual_masks, which the fast side does.
"""

import numpy as np

from walshlab import kernels


def build(ctx, evaluator) -> np.ndarray:
    """Evaluate a 0/1-valued function at every element, in coordinate order, uint8."""
    return np.fromiter((evaluator(x) & 1 for x in range(ctx.q)), dtype=np.uint8, count=ctx.q)


def weight(f: np.ndarray) -> int:
    return int(f.sum())


def is_balanced(f: np.ndarray) -> bool:
    return 2 * weight(f) == len(f)


def on_unit_circle(ctx, z: int) -> bool:
    """z * conj(z) = 1."""
    return ctx.mul(z, ctx.conjugate(z)) == 1


def unit_circle(ctx) -> list[int]:
    """{z : z^(2^m+1) = 1} ascending: the order-(2^m + 1) orbit, sorted."""
    return sorted(ctx.cyclic((1 << ctx.m) + 1).tolist())


def walsh_naive_at(ctx, f: np.ndarray, a: int) -> int:
    """Direct O(2^n) evaluation of sum_x (-1)^(f(x) + tr(a*x))."""
    total = 0
    for x in range(ctx.q):
        s = int(f[x]) ^ ctx.tr_abs(ctx.mul(a, x))
        total += 1 - 2 * s
    return total


def walsh_naive(ctx, tables) -> np.ndarray:
    """sum_x (-1)^(f(x) + tr(a*x)) for every a (row) and table f (column), int64.

    One matrix of characters (-1)^tr(a*x) per call, shared by the tables: the
    products through ctx.quotient, the trace through ctx.trace_mask.
    """
    xs = np.arange(ctx.q, dtype=np.int64)
    traces = kernels.masked_parity(ctx.quotient([xs[:, None], xs]), ctx.trace_mask)
    signs = 1 - 2 * np.stack(tables, axis=1).astype(np.int64)
    return (1 - 2 * traces.astype(np.int64)) @ signs


def walsh_at_field_point(ctx, spectrum: np.ndarray, a: int) -> int:
    """Spectrum value at the field point a, i.e. walsh_naive_at(ctx, f, a)."""
    if len(spectrum) != ctx.q:
        raise ValueError("spectrum and context disagree on n")
    return int(spectrum[ctx.dual_mask(a)])
