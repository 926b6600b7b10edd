"""Truth tables of Boolean functions on GF(2^n), as plain numpy arrays.

A truth table is a 1-D uint8 array of 0/1 values of length 2^n, indexed by
the coordinate integer of the field element, so entry i is f(element i).  An
ANF is the same kind of array: entry u is the coefficient of the monomial
with mask u.  Weight, distance, ANF (the binary Moebius transform, which is
its own inverse) and algebraic degree all operate on these arrays.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import kernels
from .gf2n import FieldCtx


class DimensionMismatch(Exception):
    pass


def build(ctx: FieldCtx, evaluator: Callable[[int], int]) -> np.ndarray:
    """Evaluate a 0/1-valued function at every element, in coordinate order."""
    return np.fromiter((evaluator(x) & 1 for x in range(ctx.q)), dtype=np.uint8, count=ctx.q)


def weight(f: np.ndarray) -> int:
    return int(f.sum())


def is_balanced(f: np.ndarray) -> bool:
    return 2 * weight(f) == len(f)


def distance(f: np.ndarray, h: np.ndarray) -> int:
    if f.shape != h.shape:
        raise DimensionMismatch(f"tables of shape {f.shape} and {h.shape}")
    return int((f ^ h).sum())


def anf(f: np.ndarray) -> np.ndarray:
    """ANF coefficients of a truth table; anf(anf(f)) is f again."""
    coeffs = f.copy()
    kernels.mobius_inplace(coeffs)
    return coeffs


def algebraic_degree(f: np.ndarray) -> int:
    """Max popcount over set ANF monomial masks; -1 for the zero function."""
    masks = np.nonzero(anf(f))[0]
    if masks.size == 0:
        return -1
    return int(np.bitwise_count(masks.astype(np.uint64)).max())


# ----------------------------------------------------------------- io ------


def table_to_bytes(f: np.ndarray) -> bytes:
    """Bit-packed little-endian bytes: bit i of the stream is f(i)."""
    return np.packbits(f, bitorder="little").tobytes()


def table_from_bytes(n: int, data: bytes) -> np.ndarray:
    if len(data) * 8 < (1 << n):
        raise ValueError("byte string too short for 2^n bits")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")[: 1 << n]


def table_to_hex(f: np.ndarray) -> str:
    return format(int.from_bytes(table_to_bytes(f), "little"), "#x")


def anf_monomials_hex(a: np.ndarray) -> list[str]:
    """Set monomial masks as lowercase hex, ascending."""
    return [format(int(u), "#x") for u in np.nonzero(a)[0]]
